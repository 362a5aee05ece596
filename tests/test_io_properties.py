"""Property tests for the CSV layer's round trip, over small random files.

Ingest returns the kept rows' numbers bit-exact and their labels trimmed,
the skip notice names the file lines of the skipped rows (blank lines
counted), and a weight dump writes the cells the reference rule in
``oracles`` writes and parses back to the same doubles.  The columnar
reader gives what the row-at-a-time reader kept below gives, whatever its
block size, and names the line of a byte that is not UTF-8.  So does the
span reader, in any number of spans, on the files that are plain, and it
leaves every other file to be read whole.  Examples are derandomized so
the suite reads the same cases on every run.
"""

import csv
import functools
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoweight import (
    EmptyFileError,
    MissingColumnError,
    ParseError,
    ingest_delimited,
)
from pseudoweight import io
from pseudoweight.io import _dump_weights

from oracles import table_bytes

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
DOUBLES = st.floats(allow_nan=False, width=64)
# labels may need quoting, and may be blank once trimmed
LABELS = st.text(alphabet='ab1 ,"', max_size=4)


def assert_bits(got, expected):
    got = np.ascontiguousarray(got, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@st.composite
def survey_files(draw):
    """A survey file's rows as written, with the rows ingest should keep
    and the file lines of the rows it should skip.

    Columns are ``y``, ``w``, one to three covariates and, optionally, the
    labels ``s`` and ``p``, in a random order with header names padded by
    spaces.  Some rows get a blank numeric cell, some are preceded by a
    blank line.
    """
    n = draw(st.integers(1, 25))
    covariates = [f"x{j}" for j in range(1, draw(st.integers(1, 3)) + 1)]
    numeric = ["y", "w"] + covariates
    labels = ["s", "p"] if draw(st.booleans()) else []
    order = draw(st.permutations(numeric + labels))
    pad = st.sampled_from(["", " "])
    header = [draw(pad) + c + draw(pad) for c in order]

    lines, kept, skipped, line = [header], [], [], 1
    for _ in range(n):
        if draw(st.booleans()):
            lines.append([])
            line += 1
        line += 1
        record = {c: draw(DOUBLES) for c in numeric}
        record.update({c: draw(LABELS) for c in labels})
        blank = draw(st.sampled_from([None] + numeric))
        cells = {c: repr(v) if c in numeric else v for c, v in record.items()}
        if blank is not None:
            cells[blank] = ""
        lines.append([cells[c] for c in order])
        if blank is None and all(record[c].strip() for c in labels):
            kept.append(record)
        else:
            skipped.append(line)
    return lines, covariates, labels, kept, skipped


def write_lines(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for cells in lines:
            if cells:
                writer.writerow(cells)
            else:
                fh.write("\n")


@PROPERTY_SETTINGS
@given(survey_files())
def test_ingest_keeps_rows_bit_exact_and_reports_skipped_lines(case):
    lines, covariates, labels, kept, skipped = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "survey.csv")
        write_lines(path, lines)
        declared = dict(
            covariates=covariates,
            outcome="y",
            weight="w",
            stratum="s" if labels else None,
            psu="p" if labels else None,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if kept:
                survey = ingest_delimited(path, **declared)
            else:
                with pytest.raises(EmptyFileError, match="every data row"):
                    ingest_delimited(path, **declared)

    notices = [str(w.message) for w in caught]
    if skipped:
        shown = ", ".join(map(str, skipped[:10])) + (", ..." if len(skipped) > 10 else "")
        assert notices == [
            f"{path}: skipped {len(skipped)} row(s) with missing declared "
            f"fields (rows {shown})"
        ]
    else:
        assert notices == []
    if not kept:
        return
    assert_bits(survey.y, [r["y"] for r in kept])
    assert_bits(survey.d, [r["w"] for r in kept])
    assert_bits(survey.X[:, 0], np.ones(len(kept)))
    assert_bits(survey.X[:, 1:], [[r[c] for c in covariates] for r in kept])
    if labels:
        assert survey.design.stratum.tolist() == [r["s"].strip() for r in kept]
        assert survey.design.psu.tolist() == [r["p"].strip() for r in kept]
    else:
        assert survey.design.stratum is None and survey.design.psu is None


@st.composite
def weight_dumps(draw):
    """One to four methods' weights for the same 1-30 cohort units, NaN
    (of any sign or payload) and the infinities among them."""
    n = draw(st.integers(1, 30))
    weights = st.floats(width=64)
    columns = draw(st.lists(st.lists(weights, min_size=n, max_size=n), min_size=1, max_size=4))
    return {f"m{j}": np.array(c) for j, c in enumerate(columns)}


@PROPERTY_SETTINGS
@given(weight_dumps())
@example({"m0": np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1 + 0.2])})
def test_weight_dump_parses_back_to_the_same_doubles(weights):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.csv")
        _dump_weights(weights, path)
        with open(path, "rb") as fh:
            written = fh.read()
    n = len(weights["m0"])
    # every cell as the reference rule writes it, NaN as "nan"
    rows = ([i] + [float(w[i]) for w in weights.values()] for i in range(n))
    assert written == table_bytes(["unit"] + list(weights), rows)
    header, *rows = list(csv.reader(written.decode().splitlines()))
    assert header == ["unit"] + list(weights)
    assert [int(r[0]) for r in rows] == list(range(n))
    for j, w in enumerate(weights.values(), start=1):
        got = np.array([float(r[j]) for r in rows])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(w))
        assert_bits(got[~np.isnan(w)], w[~np.isnan(w)])


def reference_read_columns(path, numeric, labels=()):
    """The row-at-a-time reader ``io._read_columns`` replaced, kept as the
    reference: each record's declared cells trimmed into a list, the row
    skipped or its numbers parsed before the next record is read."""
    names = list(numeric) + list(labels)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFileError(f"{path} has no header row")
        position = {h.strip(): i for i, h in enumerate(header)}
        missing = [c for c in names if c not in position]
        if missing:
            raise MissingColumnError(
                f"{path} lacks declared column(s): {', '.join(missing)}"
            )
        index = [position[c] for c in names]
        width, k = max(index) + 1, len(numeric)
        numbers, strings, skipped = [], [], []
        for row in reader:
            if not row:
                continue
            row += [""] * (width - len(row))  # a short row's missing cells
            cells = [row[i].strip() for i in index]
            if "" in cells:
                skipped.append(reader.line_num)
                continue
            try:
                numbers.extend(map(float, cells[:k]))
            except ValueError:
                for c, raw in zip(numeric, cells):
                    try:
                        float(raw)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {reader.line_num}, column {c!r}: "
                            f"cannot parse {raw!r} as a number"
                        ) from None
            strings.extend(cells[k:])
    if not numbers and not skipped:
        raise EmptyFileError(f"{path} has a header but no data rows")
    if skipped:
        warnings.warn(
            f"{path}: skipped {len(skipped)} row(s) with missing declared "
            f"fields (rows {', '.join(map(str, skipped[:10]))}"
            + (", ..." if len(skipped) > 10 else "")
            + ")",
            stacklevel=3,
        )
    if not numbers:
        raise EmptyFileError(f"{path}: every data row was missing a declared field")
    n = len(numbers) // k
    columns = np.array(numbers).reshape(n, k).T
    label_columns = np.array(strings, dtype=object).reshape(n, len(labels)).T
    return dict(zip(numeric, columns)), dict(zip(labels, label_columns))


# cells as ``float`` reads them (with underscores, full-width digits,
# padding), cells blank once trimmed, and text, some of it needing quotes
# (commas, quotes, line breaks)
NUMBERS = st.one_of(
    DOUBLES.map(repr),
    st.sampled_from([" 1.5 ", "1_000", "\uff11\uff12", "-0.0", "inf", "nan", "1e5", "\t7"]),
)
BLANKS = st.sampled_from(["", " ", "\t", " \r\n "])
TEXT = st.one_of(
    st.sampled_from(["NA", "abc", "1,5", 'a"b', "2\n3", '""']),
    st.text(alphabet=' 1.e-ab,"\n', max_size=5),
)
NAMES = ["a", "b", "c", "d"]


# what a plain file holds: cells without quotes, commas or line breaks
PLAIN_BLANKS = st.sampled_from(["", " ", "\t"])
PLAIN_TEXT = st.one_of(st.sampled_from(["NA", "abc"]), st.text(alphabet=" 1.e-ab", max_size=5))


@st.composite
def delimited_files(draw, spannable=False):
    """A file's header and rows as written, the columns declared to read
    it, and the writer's options.

    The header may repeat a name and carry columns nobody declares; a
    declared name is now and then absent.  Rows may be blank, short or
    long; a numeric column's cells are mostly numbers, with some blank and,
    in some files, many text cells.  Half the files are *plain*: ``\n``
    line ends, no blank line and no quote, so ``str.split`` splits every
    block; in the others, blocks split by ``str.split`` alternate with ones
    that go through ``csv.reader``.  Plain files may lack the last line
    break.  With ``spannable`` every file is plain and no numeric cell
    holds text.
    """
    plain = spannable or draw(st.booleans())
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5))
    declared = draw(st.lists(st.sampled_from(header), min_size=1, max_size=4))
    if draw(st.integers(0, 9)) == 0:
        declared.append("z")
    k = draw(st.integers(1, len(declared)))
    numeric, labels = declared[:k], declared[k:]
    text = 0 if spannable else draw(st.sampled_from([0, 1, 1, 5]))  # in 20 numeric cells

    def cell(name):
        roll = draw(st.integers(0, 19))
        if roll < 3:
            return draw(PLAIN_BLANKS if plain else BLANKS)
        if roll < 3 + text or (name not in numeric and roll < 12):
            return draw(PLAIN_TEXT if plain else TEXT)
        return draw(NUMBERS)

    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if not plain and draw(st.integers(0, 5)) == 0:
            rows.append(None)  # a blank line
            continue
        widths = [0] * (12 if plain else 4) + [-1, -2, 1]
        width = max(1, len(header) + draw(st.sampled_from(widths)))
        rows.append([cell(header[j] if j < len(header) else "") for j in range(width)])
    header = [draw(st.sampled_from(["", " "])) + h for h in header]
    options = dict(
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL] + [csv.QUOTE_ALL] * (not plain))),
        lineterminator="\n" if plain else draw(st.sampled_from(["\n", "\r\n"])),
    )
    return header, rows, numeric, labels, options, plain and draw(st.booleans())


def read_both(path, numeric, labels, reader):
    """``reader``'s result or exception, with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = reader(path, numeric, labels)
        except Exception as exc:  # compared by class and message
            outcome = exc
    return outcome, [str(w.message) for w in caught]


def write_file(path, header, rows, options, no_last_break):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, **options)
        writer.writerow(header)
        for row in rows:
            if row is None:
                fh.write(options["lineterminator"])
            else:
                writer.writerow(row)
    if no_last_break:
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 1)


def assert_same_read(got, notices, expected, expected_notices):
    """The result or error and the notices of two reads are the same, the
    numbers bit for bit."""
    assert notices == expected_notices
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, Exception), got
    (got_numbers, got_labels), (numbers, label_columns) = got, expected
    assert list(got_numbers) == list(numbers)
    for c in numbers:
        assert_bits(got_numbers[c], numbers[c])
    assert list(got_labels) == list(label_columns)
    for c in label_columns:
        assert got_labels[c].dtype == label_columns[c].dtype == object
        assert got_labels[c].tolist() == label_columns[c].tolist()


@pytest.mark.parametrize("block", [1, 2, 3, io._BLOCK])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=delimited_files())
def test_columnar_reader_matches_the_row_reader(block, case):
    header, rows, numeric, labels, options, no_last_break = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write_file(path, header, rows, options, no_last_break)
        expected, expected_notices = read_both(path, numeric, labels, reference_read_columns)
        with mock.patch.object(io, "_BLOCK", block):
            got, notices = read_both(path, numeric, labels, io._read_columns)
    assert_same_read(got, notices, expected, expected_notices)


def in_this_process(fn, items, workers):
    """``io._fork_map`` without the forks."""
    return [fn(item) for item in items]


def read_in_spans(paths, numeric, labels, spans):
    """``io._read_spans`` of ``paths`` in ``spans`` spans, however small the
    files, all run in this process: each read's result or error and
    notices, and the paths then read whole; None when the files are not
    cut into spans."""
    files = [(path, numeric, labels, ()) for path in paths]
    whole, read_columns = [], io._read_columns
    with mock.patch.multiple(
        io,
        _SPAN_BYTES=1,
        _fork_map=in_this_process,
        _read_columns=lambda path, *args: whole.append(path) or read_columns(path, *args),
    ):
        reads = io._read_spans(files, spans)
        if reads is None:
            return None
        return [read_both(*f[:3], read) for f, read in zip(files, reads)], whole


@pytest.mark.parametrize("block", [1, 2, 3, io._BLOCK])
@pytest.mark.parametrize("spans", [2, 3])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=delimited_files(spannable=True))
def test_span_reader_matches_the_row_reader(spans, block, case):
    # the file is read twice over, so the cuts fall in either copy: in its
    # header, on a line start, inside a line, after its last line (which
    # may lack its break), and there may be more spans than lines
    check_span_reader(spans, block, case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=delimited_files())
def test_span_reader_leaves_to_the_row_reader_what_is_not_plain(case):
    # quoted or CRLF headers and lines, blank lines, short and long rows
    check_span_reader(2, io._BLOCK, case)


def check_span_reader(spans, block, case):
    """The files are cut into spans when they have no quote, CR or NUL
    byte and a header line the declared columns are in; a file is read
    whole after its spans when a row does not parse, even if its rows are
    short or long; and the result is the row reader's."""
    header, rows, numeric, labels, options, no_last_break = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        write_file(path, header, rows, options, no_last_break)
        with open(path, "rb") as fh:
            data = fh.read()
        expected = read_both(path, numeric, labels, reference_read_columns)
        with mock.patch.object(io, "_BLOCK", block):
            got = read_in_spans([path, path], numeric, labels, spans)
    if b"\n" not in data or any(byte in data for byte in b'"\r\0'):
        assert got is None
        return
    if isinstance(expected[0], MissingColumnError):
        assert got is None
        return
    reads, whole = got
    assert whole == ([path] * 2 if isinstance(expected[0], ParseError) else [])
    for read in reads:
        assert_same_read(*read, *expected)


def test_header_over_the_field_limit_is_not_cut(tmp_path):
    # csv.reader refuses the header's long cell, so the file is read whole
    path = str(tmp_path / "file.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y," + "x" * 40 + "\n1,2\n")
    limit = csv.field_size_limit(16)
    try:
        assert read_in_spans([path, path], ["y"], [], 2) is None
        with pytest.raises(ParseError, match="field larger than field limit"):
            io._read_columns(path, ["y"])
    finally:
        csv.field_size_limit(limit)


def test_two_spans_read_the_file_at_every_cut(tmp_path):
    # multibyte digits, an empty line, a skipped row and no last line break;
    # one cut falls at every byte: in the header, at its end, on every line
    # start, and at either end, where one span holds every line
    text = "y , x1,s\n1,2,a\n\n3,,b\n\uff15,6,c\n7,8.5,\uff44\n9,10,e"
    path = tmp_path / "file.csv"
    path.write_text(text, encoding="utf-8")
    expected = read_both(str(path), ["y", "x1"], ["s"], reference_read_columns)
    size, start = len(text.encode()), len("y , x1,s\n")
    for cut in range(size + 1):
        pieces = [
            io._read_piece(str(path), ["y", "x1"], [0, 1, 2], 3, max(lo, start), hi)
            for lo, hi in [(0, cut), (cut, size)]
        ]
        assert sum(p[2] for p in pieces) == 6
        skipped = [line + 1 + pieces[0][2] * k for k, p in enumerate(pieces) for line in p[1]]
        blocks = [b for p in pieces for b in p[0]]
        merge = functools.partial(io._merge, str(path), ["y", "x1"], ["s"], blocks, skipped)
        assert_same_read(*read_both(None, None, None, lambda *_: merge()), *expected)


def test_plain_blocks_are_parsed_up_to_the_first_that_is_not(tmp_path):
    # two-line blocks: an empty line and a skipped row in the plain ones, a
    # quote on the file's last line; that block, whole, is given back
    path = tmp_path / "file.csv"
    path.write_bytes(b'y,s\n1,a\n\n3,\n4,d\n5,e\n6,"f"\n')
    blocks, skipped = [], []
    with mock.patch.object(io, "_BLOCK", 2), open(path, "rb") as fh:
        fh.readline()
        read, rest = io._read_plain(fh, str(path), ["y"], [0, 1], 2, blocks, skipped, 1)
    assert read == 5 and rest == [b"5,e\n", b'6,"f"\n']
    assert skipped == [4]
    assert [b[0] for b in blocks] == [1, 1]
    assert [b[1][0].tolist() for b in blocks] == [[1.0], [4.0]]
    assert [b[2] for b in blocks] == [[["a"]], [["d"]]]


@pytest.mark.parametrize("header", ["y,s", '"y",s'])
@pytest.mark.parametrize("block", [1, io._BLOCK])
def test_byte_order_mark_is_dropped_only_at_the_start(tmp_path, header, block):
    # after a plain header or a quoted one; a mark on a later line is data,
    # whether its block is plain or read by csv.reader
    path = tmp_path / "file.csv"
    with mock.patch.object(io, "_BLOCK", block):
        for later in ["\ufeff2,b", '\ufeff2,"b"']:
            path.write_text(f"\ufeff{header}\n1,a\n{later}\n", encoding="utf-8")
            with pytest.raises(ParseError, match=r"row 3, column 'y': cannot parse '\\ufeff2'"):
                io._read_columns(str(path), ["y"], ["s"])
        path.write_text(f"\ufeff{header}\n1,a\n2,b\n", encoding="utf-8")
        numbers, labels = io._read_columns(str(path), ["y"], ["s"])
    assert numbers["y"].tolist() == [1.0, 2.0] and labels["s"].tolist() == ["a", "b"]


def test_more_spans_than_lines_in_forked_children(tmp_path, no_child_left):
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    (tmp_path / "a.csv").write_text("y,x1\n1,2\n", encoding="utf-8")
    (tmp_path / "b.csv").write_text("x1,y\n3,4\n5,\n", encoding="utf-8")
    with mock.patch.object(io, "_SPAN_BYTES", 1):
        reads = io._read_spans([(p, ["y"], ["x1"], ()) for p in paths], 8)
    for path, read in zip(paths, reads):
        got = read_both(path, ["y"], ["x1"], read)
        assert_same_read(*got, *read_both(path, ["y"], ["x1"], reference_read_columns))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lines=st.integers(1, 4000),
    at=st.floats(0, 1),
    byte=st.sampled_from([b"\xe9", b"\xff", b"\x80", b"\xc3("]),
    terminator=st.sampled_from([b"\n", b"\r\n"]),
    quoted=st.booleans(),
)
def test_byte_not_utf8_is_named_by_its_file_line(lines, at, byte, terminator, quoted):
    # files from a few bytes to past several of the decoder's chunks; the
    # first record may hold a quoted line break, which counts as a line
    rows = [b"y,x1"] + [b"%d,0.%d" % (i, i * 7919) for i in range(lines)]
    if quoted:
        rows[1] = b'1,"2' + terminator + b'"'
    bad = 1 + min(int(at * lines), lines - 1)
    rows[bad] += byte
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        with open(path, "wb") as fh:
            fh.write(terminator.join(rows) + terminator)
        with pytest.raises(ParseError) as err:
            io._read_columns(path, ["y"], ["x1"])
    line = bad + 1 + quoted  # the byte ends its row
    assert str(err.value).startswith(f"{path}: row {line}: byte 0x{byte[0]:02x} is not UTF-8")
