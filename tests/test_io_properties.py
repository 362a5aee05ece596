"""Property tests for the CSV layer's round trip, over small random files.

Ingest returns the kept rows' numbers bit-exact and their labels trimmed,
the skip notice names the file lines of the skipped rows (blank lines
counted), and a weight dump parses back to the same doubles.  The columnar
reader gives what the row-at-a-time reader kept below gives, whatever its
block size, and names the line of a byte that is not UTF-8.  Examples are
derandomized so the suite reads the same cases on every run.
"""

import csv
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoweight import (
    EmptyFileError,
    MissingColumnError,
    ParseError,
    ingest_delimited,
)
from pseudoweight import io
from pseudoweight.io import _dump_weights

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
    """One to four methods' weights for the same 1-30 cohort units."""
    n = draw(st.integers(1, 30))
    columns = draw(st.lists(st.lists(DOUBLES, min_size=n, max_size=n), min_size=1, max_size=4))
    return {f"m{j}": np.array(c) for j, c in enumerate(columns)}


@PROPERTY_SETTINGS
@given(weight_dumps())
def test_weight_dump_parses_back_to_the_same_doubles(weights):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.csv")
        _dump_weights(weights, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
    assert header == ["unit"] + list(weights)
    assert [int(r[0]) for r in rows] == list(range(len(weights["m0"])))
    for j, m in enumerate(weights, start=1):
        assert_bits([float(r[j]) for r in rows], weights[m])


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
def delimited_files(draw):
    """A file's header and rows as written, the columns declared to read
    it, and the writer's options.

    The header may repeat a name and carry columns nobody declares; a
    declared name is now and then absent.  Rows may be blank, short or
    long; a numeric column's cells are mostly numbers, with some blank and,
    in some files, many text cells.  Half the files are *plain*: ``\n``
    line ends, no blank line, no quote, and mostly rows of the header's
    width, so blocks of lines split by ``str.split`` alternate with ones
    that go through ``csv.reader``; some of them lack the last line break.
    """
    plain = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5))
    declared = draw(st.lists(st.sampled_from(header), min_size=1, max_size=4))
    if draw(st.integers(0, 9)) == 0:
        declared.append("z")
    k = draw(st.integers(1, len(declared)))
    numeric, labels = declared[:k], declared[k:]
    text = draw(st.sampled_from([0, 1, 1, 5]))  # text cells in 20 numeric ones

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


@pytest.mark.parametrize("block", [1, 2, 3, io._BLOCK])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=delimited_files())
def test_columnar_reader_matches_the_row_reader(block, case):
    header, rows, numeric, labels, options, no_last_break = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
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
        expected, expected_notices = read_both(path, numeric, labels, reference_read_columns)
        with mock.patch.object(io, "_BLOCK", block):
            got, notices = read_both(path, numeric, labels, io._read_columns)

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
