"""Delimited-file ingestion, estimation jobs, and report emission.

File format: comma-separated, UTF-8 (a leading BOM is dropped), mandatory
header row, ``.`` decimal separator, no thousands separators.  Header names
are matched after trimming surrounding spaces.  Blank lines are ignored.
Rows with an empty value in a declared column are skipped (their file line
numbers are reported through a warning); non-numeric content in a declared
column is a hard :class:`ParseError` naming the file line, and so are a
byte that is not UTF-8 and a cell over the ``csv`` module's field limit.  A
read that fails after the file opened is an :class:`IoError`.

A file's bytes are read in blocks of ``_BLOCK`` lines by one loop,
:func:`_read_plain`.  A block that ``csv.reader`` would read as
``str.split`` does is decoded and split at its commas in one call; the
first other block, and the rest of the file, go through one ``csv.reader``
pass.  Each block's declared cells are split into columns, trimmed, rid of
rows with a blank cell, and each numeric column parsed by ``float`` in one
call, which keeps the peak memory near that of the finished arrays.

An estimation job on two or more CPUs cuts the bytes of two regular files
with no quote, CR or NUL byte into one span per CPU (of ``_SPAN_BYTES`` or
more), each read by that loop in forked children and this process, and
reads a file whole after them only when one of its blocks cannot be split
or parsed.  Other files are read whole, the cohort in a forked child.

Reports are emitted deterministically, each cell as ``csv.writer`` writes
it (None empty, a float as its ``repr``): same results, byte-identical file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings as _warnings
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from functools import partial
from io import BytesIO, TextIOWrapper
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, not_

import numpy as np

from .errors import (
    EmptyFileError,
    IoError,
    MissingColumnError,
    ParseError,
    PseudoweightError,
)
from .estimators import Method, _distinct_methods, estimate_each, fit_key, hajek_mean
from .samples import (
    CohortSample,
    DesignInfo,
    DesignKind,
    SurveySample,
    validate_paired_samples,
)
from .parallel import _fork_map, _usable_cpus
from .simulation import CellResult


@contextmanager
def _open(path):
    """Open a delimited file for reading; a failure to open or read it
    becomes an :class:`IoError`."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc


def _unreadable(path, line, exc):
    """The :class:`ParseError` for a record that could not be read: a byte
    that is not UTF-8 (``UnicodeDecodeError``) or a tokenizer
    ``csv.Error``, named by its file line; ``line`` counts the lines read."""
    if not isinstance(exc, UnicodeDecodeError):
        return ParseError(f"{path}: row {line}: {exc}")
    # The file decodes a chunk at a time, and none of the lines of the
    # failing chunk was read; count those before the bad byte.
    head = exc.object[: exc.start]
    line += 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return ParseError(
        f"{path}: row {line}: byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    )


#: Lines read, or records collected, between two parses of their cells
#: (see the module docstring).
_BLOCK = 4096


def _parse_block(path, numeric, cells, index, width, lines, skipped):
    """Columns of one block of records: ``cells`` holds the records' cells
    in rows of ``width``, the declared ones at ``index``, and ``lines``
    the records' file lines.

    Cells are trimmed; a record with an empty declared cell is dropped and
    its line appended to ``skipped``.  Returns the number of records kept,
    the numeric columns as float arrays and the label columns as lists of
    strings.
    """
    end = len(lines) * width
    columns = [list(map(str.strip, cells[i:end:width])) for i in index]
    blanks = [col for col in columns if "" in col]
    if blanks:
        keep = list(map(all, zip(*blanks)))
        skipped.extend(compress(lines, map(not_, keep)))
        columns = [list(compress(col, keep)) for col in columns]
        lines = list(compress(lines, keep))
    n = len(lines)
    try:
        numbers = [np.fromiter(map(float, col), float, n) for col in columns[: len(numeric)]]
    except ValueError:
        for line, row in zip(lines, zip(*columns)):
            for c, raw in zip(numeric, row):
                try:
                    float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {line}, column {c!r}: "
                        f"cannot parse {raw!r} as a number"
                    ) from None
        raise
    return n, numbers, columns[len(numeric) :]


def _split_plain(lines, width):
    """The cells of ``lines`` of bytes, ``width`` a line, split at every
    comma; a short line gets empty cells and a long one loses its last,
    which no declared column reads.  None unless ``csv.reader`` reads them
    so: UTF-8 with no quote, carriage return or NUL, and no line of more
    bytes than the ``csv`` field limit."""
    data = b"".join(lines)
    if any(c in data for c in b'"\r\0') or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    if set(map(bytes.count, lines, repeat(b","))) - {width - 1}:
        pad = [""] * width
        return [c for line in text.rstrip("\n").split("\n") for c in (line.split(",") + pad)[:width]]
    return text.replace("\n", ",").split(",")


def _read_plain(fh, path, numeric, index, width, blocks, skipped, read, left=math.inf):
    """Parse the lines of ``fh``, a file of bytes, that start in its next
    ``left`` bytes into ``blocks``, ``_BLOCK`` at a time and numbered on
    from ``read``, up to the first block :func:`_split_plain` does not
    split.  Returns the lines then read and that block's lines."""
    while left > 0 and (block := list(islice(fh, _BLOCK))):
        left -= sum(map(len, block))
        while left + len(block[-1]) <= 0:  # lines starting in the next span
            left += len(block.pop())
        lines, kept = range(read + 1, read + len(block) + 1), block
        if b"\n" in block:  # an empty line is no record, as for csv.reader
            lines = [i for i, line in zip(lines, block) if line != b"\n"]
            kept = [line for line in block if line != b"\n"]
        cells = _split_plain(kept, width)
        if cells is None:
            return read, block
        blocks.append(_parse_block(path, numeric, cells, index, width, lines, skipped))
        read, cells = read + len(block), None  # the cells die before the next read
    return read, []


def _positions(path, header, numeric, labels, optional):
    """The ``numeric`` names :func:`_read_columns` keeps, and the header
    position of each of them and of ``labels``."""
    position = {h.strip(): i for i, h in enumerate(header)}
    numeric = [c for c in numeric if c in position or c not in optional]
    missing = [c for c in numeric + list(labels) if c not in position]
    if missing:
        raise MissingColumnError(f"{path} lacks declared column(s): {', '.join(missing)}")
    return numeric, [position[c] for c in numeric + list(labels)]


def _plain_head(path, line, numeric, labels, optional):
    """:func:`_positions`' result and the width of a header ``line`` of
    bytes, less one leading byte-order mark, that a line feed ends and
    :func:`_split_plain` splits; None for any other."""
    line = line.removeprefix(b"\xef\xbb\xbf")
    width = line.count(b",") + 1
    header = _split_plain([line], width) if line.endswith(b"\n") else None
    if header is None:
        return None
    return *_positions(path, header[:width], numeric, labels, optional), width


def _read_columns(path, numeric, labels=(), optional=()):
    """Read the declared columns of a delimited file in one pass.

    Header names are matched after trimming; a name that appears twice is
    read from its last copy.  ``numeric`` columns are parsed as floats and
    ``labels`` columns kept as trimmed strings, each returned as a dict of
    arrays.  A ``numeric`` name listed in ``optional`` that the header
    lacks is left out of the result; any other missing name is a
    :class:`MissingColumnError`.  Blank lines are ignored; a row with an
    empty (or absent) cell in any declared column is skipped and reported
    by its file line.

    Records are checked in file order, so the first bad one is the
    :class:`ParseError` raised even if the file turns unreadable after it:
    a cell over the ``csv`` field limit is reported once every record
    before it is checked, a byte that is not UTF-8 once the records before
    the 8 KiB chunk holding it are (plain blocks decode whole, and the
    first block that is not and the rest of the file a chunk at a time).
    """
    blocks, skipped, cells, lines = [], [], [], []
    with _open(path) as fh:
        first = fh.buffer.readline()
        head = _plain_head(path, first, numeric, labels, optional)
        read, rest = 0, [first]
        if head:
            numeric, index, width = head
            read, rest = _read_plain(fh.buffer, path, numeric, index, width, blocks, skipped, 1)
        # the rest goes through csv.reader; a BOM only at the file's start
        text = TextIOWrapper(BytesIO(b"".join(rest)), "utf-8" if head else "utf-8-sig", newline="")
        reader = csv.reader(chain(text, fh))
        try:
            if not head:
                header = next(reader, None)
                if header is None:
                    raise EmptyFileError(f"{path} has no header row")
                numeric, index = _positions(path, header, numeric, labels, optional)
            short, m = max(index) + 1, len(index)
            pick = itemgetter(*index) if m > 1 else lambda row: (row[index[0]],)
            for row in reader:
                if not row:
                    continue
                if len(row) < short:
                    row += [""] * (short - len(row))  # a short row's missing cells
                cells.extend(pick(row))
                lines.append(read + reader.line_num)
                if len(lines) == _BLOCK:
                    blocks.append(_parse_block(path, numeric, cells, range(m), m, lines, skipped))
                    cells, lines = [], []
        except (csv.Error, UnicodeDecodeError) as exc:
            if lines:  # checked first, in file order
                _parse_block(path, numeric, cells, range(m), m, lines, skipped)
            raise _unreadable(path, read + reader.line_num, exc) from exc
    blocks.append(_parse_block(path, numeric, cells, range(m), m, lines, skipped))
    return _merge(path, numeric, labels, blocks, skipped)


def _merge(path, numeric, labels, blocks, skipped):
    """:func:`_read_columns`' result from a file's parsed blocks and skipped lines."""
    n = sum(b[0] for b in blocks)
    if not n and not skipped:
        raise EmptyFileError(f"{path} has a header but no data rows")
    if skipped:
        _warnings.warn(
            f"{path}: skipped {len(skipped)} row(s) with missing declared "
            f"fields (rows {', '.join(map(str, skipped[:10]))}"
            + (", ..." if len(skipped) > 10 else "")
            + ")",
            stacklevel=4,
        )
    if not n:
        raise EmptyFileError(f"{path}: every data row was missing a declared field")
    columns = [np.concatenate(parts) for parts in zip(*(b[1] for b in blocks))]
    label_columns = [
        np.array(list(chain.from_iterable(parts)), dtype=object)
        for parts in zip(*(b[2] for b in blocks))
    ]
    return dict(zip(numeric, columns)), dict(zip(labels, label_columns))


#: The fewest bytes worth a span: parsing them takes about as long as
#: forking a worker and reaping it.
_SPAN_BYTES = 1 << 17


def _read_piece(path, numeric, index, width, lo, hi):
    """``(blocks, skipped, lines)`` of the data lines of a file that start
    from byte ``lo``, past its header, up to byte ``hi``, lines counted from
    the piece's first; None when a block is not plain or does not parse."""
    blocks, skipped = [], []
    try:
        with open(path, "rb") as fh:  # bytes, so that a span ends at a byte offset
            fh.seek(lo - 1)
            lo += len(fh.readline()) - 1  # the first line starting at or after lo
            n, rest = _read_plain(fh, path, numeric, index, width, blocks, skipped, 0, hi - lo)
    except (OSError, PseudoweightError):
        return None
    return None if rest else (blocks, skipped, n)


def _read_spans(files, cpus):
    """For each of ``files``, the arguments of :func:`_read_columns`, a
    function that reads the file as that does, the first call reading every
    file's spans (see the module docstring); None when they are not cut."""
    sizes = [os.path.getsize(f[0]) if os.path.isfile(f[0]) else -1 for f in files]
    spans, heads, parts = min(cpus, sum(sizes) // _SPAN_BYTES), [], []
    if spans < 2 or -1 in sizes:  # absent, or a pipe, which could not be read again
        return None
    try:
        for path, numeric, labels, optional in files:
            with open(path, "rb") as fh:
                line = fh.readline()
                head = _plain_head(path, line, numeric, labels, optional)
                chunks = iter(partial(fh.read, 1 << 16), b"")  # the lines after it
                if head is None or any(c in chunk for chunk in chunks for c in b'"\r\0'):
                    return None
                heads.append((path, *head, len(line)))
    except (OSError, PseudoweightError):
        return None  # read whole, to raise as the one-pass reader does
    ends = list(accumulate(sizes, initial=0))

    def span(k):
        a, b = ends[-1] * k // spans, ends[-1] * (k + 1) // spans
        return [
            _read_piece(*head[:4], max(a - g, head[4]), min(b - g, size))
            for head, g, size in zip(heads, ends, sizes)
        ]

    def read(f, path, numeric, labels=(), optional=()):
        if not parts:
            parts.extend(zip(*_fork_map(span, list(range(spans)), spans)))
        if None in parts[f]:
            return _read_columns(path, numeric, labels, optional)
        before = accumulate((piece[2] for piece in parts[f]), initial=1)  # the header's line
        skipped = [b + line for piece, b in zip(parts[f], before) for line in piece[1]]
        blocks = [block for piece in parts[f] for block in piece[0]]
        return _merge(path, heads[f][1], labels, blocks, skipped)

    return [partial(read, f) for f in range(len(files))]


def ingest_delimited(
    path,
    covariates,
    outcome: str | None = None,
    weight: str | None = None,
    stratum: str | None = None,
    psu: str | None = None,
    design: DesignKind = DesignKind.POISSON,
    *,
    read_columns=None,
):
    """Load a cohort or survey sample from a delimited file.

    A ``weight`` column makes the result a :class:`SurveySample`, whose
    ``outcome`` is optional: it is read when the header has it and is None
    otherwise.  Without one a :class:`CohortSample` is built and
    ``outcome`` is required.  An intercept column of ones is prepended to
    the declared covariates.  ``read_columns``, when given, reads the file
    in place of :func:`_read_columns`, with its arguments and results.
    """
    covariates = list(covariates)
    data, labels = (read_columns or _read_columns)(
        path, *_declared(path, covariates, outcome, weight, stratum, psu)
    )
    X = np.column_stack(
        [np.ones(len(data[covariates[0]]))] + [data[c] for c in covariates]
    )

    if weight:
        return SurveySample(
            X=X,
            d=data[weight],
            y=data.get(outcome),
            design=DesignInfo(design, labels.get(stratum), labels.get(psu)),
        )
    if not outcome:
        raise MissingColumnError("a cohort file needs an outcome column")
    return CohortSample(y=data[outcome], X=X)


def _declared(path, covariates, outcome=None, weight=None, stratum=None, psu=None, *_):
    """The numeric, label and optional columns :func:`ingest_delimited`
    reads, from its arguments."""
    if not covariates:
        raise MissingColumnError(f"{path}: no covariate columns declared")
    needed = list(covariates) + [c for c in (outcome, weight) if c]
    return needed, [c for c in (stratum, psu) if c], (outcome,) if weight else ()


@dataclass(frozen=True)
class EstimationJob:
    """Everything needed to run the generic two-file estimation path."""

    cohort_path: str
    survey_path: str
    outcome_column: str
    covariate_columns: tuple
    weight_column: str
    design_kind: DesignKind = DesignKind.POISSON
    stratum_column: str | None = None
    psu_column: str | None = None
    methods: tuple = (Method.ALP,)
    dump_weights_path: str | None = None


@dataclass(frozen=True)
class EstimateRow:
    """One method's row of the estimate report; the fields are the columns
    of :func:`emit_report`, in order.  ``pct_rd`` and ``mse`` compare the
    estimate with the design-weighted survey estimate, so both are None
    when the survey has no outcome column (``mse`` also when the method has
    no variance)."""

    method: str
    estimate: float
    variance: float | None
    ci_low: float | None
    ci_high: float | None
    pct_rd: float | None
    mse: float | None
    w_min: float
    w_max: float
    w_cv: float
    warnings: str


def _ingest(args, read_columns=None):
    """``ingest_delimited(*args, read_columns=...)`` and its notices' messages
    (each a plain ``UserWarning``); any other warning is shown as it would be."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", UserWarning)
        sample = ingest_delimited(*args, read_columns=read_columns)
    for w in caught:
        if w.category is not UserWarning:
            _warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return sample, tuple(str(w.message) for w in caught if w.category is UserWarning)


def run_estimation_job(job: EstimationJob):
    """Ingest both files, run every requested method, and build one
    :class:`EstimateRow` per method.

    When the survey file carries the outcome column, each row's ``pct_rd``
    and ``mse`` are the relative difference from (nan when it is 0), and the
    estimated squared error against, the design-weighted survey estimate.  A
    row's ``warnings`` are its method's notices, then the files' skip notices.
    The first package error, in method order, is raised.  So are ``tw``, an
    empty method list and a method named twice, before either file is read:
    ``tw`` needs the known participation rates, which only a simulated study
    has, and a repeated method would write two report rows and weight columns.

    With two or more usable CPUs (on Linux), the files are read in byte
    spans or else one per process (see the module docstring), and the
    groups of methods that share a fit are split between this process and
    forked children.
    """
    methods = _distinct_methods(job.methods)
    if not methods:
        raise PseudoweightError("no methods given")
    if Method.TW in methods:
        raise PseudoweightError(
            "method 'tw' needs known participation rates and runs only under simulate"
        )
    columns = job.covariate_columns, job.outcome_column
    design = job.weight_column, job.stratum_column, job.psu_column, job.design_kind
    cpus = _usable_cpus()
    files = [(job.cohort_path, *columns), (job.survey_path, *columns, *design)]
    reads = _read_spans([(f[0], *_declared(*f)) for f in files], cpus)
    (cohort, cohort_warnings), (survey, survey_warnings) = (
        _fork_map(_ingest, files, cpus) if reads is None else map(_ingest, files, reads)
    )
    ingest_warnings = cohort_warnings + survey_warnings

    validate_paired_samples(cohort, survey)

    mu_ref = None
    if survey.y is not None:
        mu_ref = hajek_mean(survey.y, survey.d)

    groups = {}  # method indices by fit key; a key that raises is a group of its own
    for i, method in enumerate(methods):
        try:
            groups.setdefault(fit_key(method, cohort, survey), []).append(i)
        except PseudoweightError:
            groups["raised", i] = [i]  # no fit key is a tuple; 1 would equal 1.0

    def run(group):
        return list(zip(group, estimate_each([methods[i] for i in group], cohort, survey)))

    done = dict(chain.from_iterable(_fork_map(run, list(groups.values()), cpus)))
    rows = []
    weight_dump = {}
    for result in map(done.get, range(len(methods))):
        if isinstance(result, PseudoweightError):
            raise result
        mu, var, w = result.mu_hat, result.var_hat, result.weights
        pct_rd = mse = None
        if mu_ref is not None:
            pct_rd = (mu - mu_ref) / mu_ref * 100.0 if mu_ref else math.nan
            mse = (mu - mu_ref) ** 2 + var if var is not None else None
        mean = float(np.mean(w))
        rows.append(
            EstimateRow(
                method=result.method,
                estimate=mu,
                variance=var,
                ci_low=result.ci_low,
                ci_high=result.ci_high,
                pct_rd=pct_rd,
                mse=mse,
                w_min=float(np.min(w)),
                w_max=float(np.max(w)),
                w_cv=float(np.std(w, ddof=1) / mean) if w.size > 1 and mean != 0 else 0.0,
                warnings="; ".join(result.warnings + ingest_warnings),
            )
        )
        weight_dump[result.method] = w

    if job.dump_weights_path:
        _dump_weights(weight_dump, job.dump_weights_path)
    return rows


@contextmanager
def _create(path, what):
    """Open a file for writing; a failure to open or write it becomes an
    :class:`IoError` naming ``what`` is written and the path."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def _write_table(path, header, rows, what="report"):
    """Write a header and rows as a comma-separated table."""
    with _create(path, what) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _dump_weights(weight_dump, path):
    rows = zip(count(), *(w.tolist() for w in weight_dump.values()))
    _write_table(path, ["unit", *weight_dump], rows, what="weights")


def _json(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def emit_report(results, path):
    """Write :class:`EstimateRow` results as a delimited table or structured
    document.

    A path ending in ``.json`` gets a JSON document, in which a float that
    JSON cannot hold (the NaN interval of a negative variance) is ``null``;
    any other path gets a delimited table.  Both have one column per
    :class:`EstimateRow` field, in order, except that ``pct_rd`` and ``mse``
    are left out when no row has a ``pct_rd``: that is, when the survey has
    no outcome column.  Refuses to write an empty report.
    """
    results = list(results)
    if not results:
        raise IoError("refusing to write an empty report")
    columns = [f.name for f in fields(EstimateRow)]
    if all(r.pct_rd is None for r in results):
        columns.remove("pct_rd")
        columns.remove("mse")
    rows = [[getattr(r, c) for c in columns] for r in results]
    if not str(path).endswith(".json"):
        _write_table(path, columns, rows)
        return
    payload = json.dumps([dict(zip(columns, map(_json, row))) for row in rows], indent=2)
    with _create(path, "report") as fh:
        fh.write(payload + "\n")


def emit_simulation_report(report, path):
    """Write a Monte Carlo :class:`~pseudoweight.simulation.SimulationReport`
    as a delimited table.

    One row per (scenario, participation rate, method) and one column per
    :class:`CellResult` field, in order; ``warning_counts`` is written as
    ``warnings``, its ``code: count`` pairs joined by ``; ``.  Deterministic
    byte-for-byte for identical reports.
    """
    if not report.cells:
        raise IoError("refusing to write an empty simulation report")
    header = [f.name for f in fields(CellResult)[:-1]] + ["warnings"]
    rows = (
        [*astuple(cell)[:-1], "; ".join(f"{k}: {v}" for k, v in cell.warning_counts)]
        for cell in report.cells
    )
    _write_table(path, header, rows)
