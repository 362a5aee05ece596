"""Delimited-file ingestion, estimation jobs, and report emission.

File format: comma-separated, UTF-8, mandatory header row, ``.`` decimal
separator, no thousands separators.  Header names are matched after
trimming surrounding spaces.  Blank lines are ignored.  Rows with an empty
value in a declared column are skipped (their file line numbers are
reported through a warning); non-numeric content in a declared column is a
hard :class:`ParseError` naming the file line, and so are a byte that is
not UTF-8 and a cell over the ``csv`` module's field limit.  A read that
fails after the file opened is an :class:`IoError`.

A file is read in blocks of ``_BLOCK`` lines.  A block that ``csv.reader``
would read as ``str.split`` does is split at its commas in one call; the
first other block, and the rest of the file, go through one ``csv.reader``
pass.  Each block's declared cells are split into columns, trimmed, rid of
rows with a blank cell, and each numeric column parsed by ``float`` in one
call, which keeps the peak memory near that of the finished arrays.

Reports are emitted deterministically: same results, byte-identical file.
"""

from __future__ import annotations

import csv
import json
import math
import warnings as _warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter, not_

import numpy as np

from .errors import (
    EmptyFileError,
    IoError,
    MissingColumnError,
    ParseError,
    PseudoweightError,
)
from .estimators import Method, MethodSpec, estimate_each, fit_key, hajek_mean
from .samples import (
    CohortSample,
    DesignInfo,
    DesignKind,
    SurveySample,
    validate_paired_samples,
)
from .simulation import SimulationReport, _fork_map, _usable_cpus


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; empty string for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return repr(value)
    return str(value)


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


def _raising(exc):
    """An iterator that raises ``exc`` when it is first read."""
    raise exc
    yield


#: Lines read, or records collected, between two parses of their cells
#: (see the module docstring).
_BLOCK = 4096


def _split_plain(lines, width):
    """The cells of ``lines``, line after line, split at every comma; None
    unless ``csv.reader`` reads them the same: no quote, carriage return or
    NUL, no empty line, ``width - 1`` commas on every line and no line
    longer than the ``csv`` field limit."""
    text = "".join(lines)
    odd = any(c in text for c in '"\r\0') or "\n" in lines
    if odd or set(map(str.count, lines, repeat(","))) - {width - 1}:
        return None
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return text.replace("\n", ",").split(",")


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
    the chunk of the file holding it are (the file decodes a chunk at a
    time).
    """
    blocks, skipped, cells, lines, read = [], [], [], [], 0
    with _open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyFileError(f"{path} has no header row")
            position = {h.strip(): i for i, h in enumerate(header)}
            numeric = [c for c in numeric if c in position or c not in optional]
            names = numeric + list(labels)
            missing = [c for c in names if c not in position]
            if missing:
                raise MissingColumnError(
                    f"{path} lacks declared column(s): {', '.join(missing)}"
                )
            index, width, m = [position[c] for c in names], len(header), len(names)
            # Plain blocks of lines are split by str.split; the first block
            # that is not, and the rest of the file, go through csv.reader.
            read, tail = reader.line_num, fh
            while tail is fh:
                block = []
                try:
                    block.extend(islice(fh, _BLOCK))
                except UnicodeDecodeError as exc:
                    tail = _raising(exc)  # read after the lines before the bad byte
                split = _split_plain(block, width)
                if split is None:
                    break
                n, block = len(block), []
                plain = range(read + 1, read + n + 1)
                blocks.append(_parse_block(path, numeric, split, index, width, plain, skipped))
                read += n
                if n < _BLOCK:
                    break
            reader = csv.reader(chain(block, tail))
            short = max(index) + 1
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
    n = sum(b[0] for b in blocks)
    if not n and not skipped:
        raise EmptyFileError(f"{path} has a header but no data rows")
    if skipped:
        _warnings.warn(
            f"{path}: skipped {len(skipped)} row(s) with missing declared "
            f"fields (rows {', '.join(map(str, skipped[:10]))}"
            + (", ..." if len(skipped) > 10 else "")
            + ")",
            stacklevel=3,
        )
    if not n:
        raise EmptyFileError(f"{path}: every data row was missing a declared field")
    columns = [np.concatenate(parts) for parts in zip(*(b[1] for b in blocks))]
    label_columns = [
        np.array(list(chain.from_iterable(parts)), dtype=object)
        for parts in zip(*(b[2] for b in blocks))
    ]
    return dict(zip(numeric, columns)), dict(zip(labels, label_columns))


def ingest_delimited(
    path,
    covariates,
    outcome: str | None = None,
    weight: str | None = None,
    stratum: str | None = None,
    psu: str | None = None,
    design: DesignKind = DesignKind.POISSON,
):
    """Load a cohort or survey sample from a delimited file.

    A ``weight`` column makes the result a :class:`SurveySample`, whose
    ``outcome`` is optional: it is read when the header has it and is None
    otherwise.  Without one a :class:`CohortSample` is built and
    ``outcome`` is required.  An intercept column of ones is prepended to
    the declared covariates.
    """
    covariates = list(covariates)
    if not covariates:
        raise MissingColumnError(f"{path}: no covariate columns declared")
    needed = covariates + [c for c in (outcome, weight) if c]
    data, labels = _read_columns(
        path, needed, [c for c in (stratum, psu) if c], (outcome,) if weight else ()
    )
    X = np.column_stack(
        [np.ones(len(data[covariates[0]]))] + [data[c] for c in covariates]
    )

    if weight:
        return SurveySample(
            X=X,
            d=data[weight],
            y=data.get(outcome),
            design=DesignInfo(
                kind=DesignKind(design),
                stratum=labels.get(stratum),
                psu=labels.get(psu),
            ),
        )
    if not outcome:
        raise MissingColumnError("a cohort file needs an outcome column")
    return CohortSample(y=data[outcome], X=X)


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
    truncate_pi: bool = False
    dump_weights_path: str | None = None


def _weight_summary(w: np.ndarray):
    """The report's ``w_min``, ``w_max`` and ``w_cv`` columns."""
    mean = float(np.mean(w))
    cv = float(np.std(w, ddof=1) / mean) if w.size > 1 and mean != 0 else 0.0
    return {"w_min": float(np.min(w)), "w_max": float(np.max(w)), "w_cv": cv}


def _ingest(args):
    """``ingest_delimited(*args)`` and the messages of its warnings."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        sample = ingest_delimited(*args)
    return sample, tuple(str(w.message) for w in caught)


def run_estimation_job(job: EstimationJob):
    """Ingest both files, run every requested method, and build report rows.

    When the survey file carries the outcome column, each row also gets the
    design-weighted reference estimate, the relative difference from it, and
    the estimated squared error against it.  Warnings raised anywhere in the
    pipeline surface in the row's ``warnings`` field.  The first package
    error, in method order, is raised.  ``tw`` is rejected before either
    file is read: it needs the known participation rates, which only a
    simulated study has.

    With two or more usable CPUs (on Linux), a forked child reads the
    cohort while this process reads the survey, and the groups of methods
    that share a fit are split between this process and forked children.
    """
    methods = tuple(Method(m) for m in job.methods)
    if Method.TW in methods:
        raise PseudoweightError(
            "method 'tw' needs known participation rates and runs only under simulate"
        )
    columns = job.covariate_columns, job.outcome_column
    survey_design = job.weight_column, job.stratum_column, job.psu_column, job.design_kind
    cpus = _usable_cpus()
    (cohort, cohort_warnings), (survey, survey_warnings) = _fork_map(
        _ingest, [(job.cohort_path, *columns), (job.survey_path, *columns, *survey_design)], cpus
    )
    ingest_warnings = cohort_warnings + survey_warnings

    validate_paired_samples(cohort, survey)

    mu_ref = None
    if survey.y is not None:
        mu_ref = hajek_mean(survey.y, survey.d)

    specs = [MethodSpec(m, truncate_pi_at_one=job.truncate_pi) for m in methods]
    groups = {}  # spec indices by fit key; a key that raises is a group of its own
    for i, spec in enumerate(specs):
        try:
            groups.setdefault(fit_key(spec.method, cohort, survey), []).append(i)
        except PseudoweightError:
            groups[i] = [i]  # fit keys are None or tuples, never ints

    def run(group):
        return list(zip(group, estimate_each([specs[i] for i in group], cohort, survey)))

    done = dict(chain.from_iterable(_fork_map(run, list(groups.values()), cpus)))
    rows = []
    weight_dump = {}
    for result in map(done.get, range(len(specs))):
        if isinstance(result, PseudoweightError):
            raise result
        row = {
            "method": result.method,
            "estimate": result.mu_hat,
            "variance": result.var_hat,
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
        }
        if mu_ref is not None:
            row["pct_rd"] = (result.mu_hat - mu_ref) / mu_ref * 100.0
            row["mse"] = (
                (result.mu_hat - mu_ref) ** 2 + result.var_hat
                if result.var_hat is not None
                else None
            )
        row.update(_weight_summary(result.weights))
        row["warnings"] = "; ".join(result.warnings + ingest_warnings)
        rows.append(row)
        weight_dump[result.method] = result.weights

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
    methods = list(weight_dump)
    n = len(next(iter(weight_dump.values())))
    rows = ([i] + [_fmt(float(weight_dump[m][i])) for m in methods] for i in range(n))
    _write_table(path, ["unit"] + methods, rows, what="weights")


_COLUMN_ORDER = (
    "method",
    "estimate",
    "variance",
    "ci_low",
    "ci_high",
    "pct_rd",
    "mse",
    "w_min",
    "w_max",
    "w_cv",
    "warnings",
)


def _json(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def emit_report(results, path):
    """Write estimation results as a delimited table or structured document.

    A path ending in ``.json`` gets a JSON document, in which a float that
    JSON cannot hold (the NaN interval of a negative variance) is ``null``;
    any other path gets a delimited table.  Column order is fixed; optional
    columns appear only when present in the rows.  Refuses to write an
    empty report.
    """
    results = list(results)
    if not results:
        raise IoError("refusing to write an empty report")
    columns = [c for c in _COLUMN_ORDER if any(c in r for r in results)]
    if not str(path).endswith(".json"):
        _write_table(path, columns, ([_fmt(r.get(c)) for c in columns] for r in results))
        return
    payload = json.dumps([{c: _json(r.get(c)) for c in columns} for r in results], indent=2)
    with _create(path, "report") as fh:
        fh.write(payload + "\n")


_SIM_COLUMNS = (
    "scenario",
    "f_c",
    "method",
    "pct_rb",
    "v_emp",
    "vr",
    "mse",
    "cp",
    "n_replicates",
    "n_excluded",
    "mean_cohort_size",
    "warnings",
)


def emit_simulation_report(report: SimulationReport, path):
    """Write the Monte Carlo summary as a delimited table.

    One row per (scenario, participation rate, method); every column but
    ``warnings`` is the :class:`CellResult` field of its name.  Deterministic
    byte-for-byte for identical reports.
    """
    if not report.cells:
        raise IoError("refusing to write an empty simulation report")
    rows = (
        [_fmt(getattr(cell, c)) for c in _SIM_COLUMNS[:-1]]
        + ["; ".join(f"{k}: {v}" for k, v in cell.warning_counts)]
        for cell in report.cells
    )
    _write_table(path, _SIM_COLUMNS, rows)
