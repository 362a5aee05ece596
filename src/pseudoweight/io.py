"""Delimited-file ingestion, estimation jobs, and report emission.

File format: comma-separated, UTF-8, mandatory header row, ``.`` decimal
separator, no thousands separators.  Header names are matched after
trimming surrounding spaces.  Blank lines are ignored.  Rows with an empty
value in a declared column are skipped (their file line numbers are
reported through a warning); non-numeric content in a declared column is a
hard :class:`ParseError` naming the file line, and so are a byte that is
not UTF-8 and a cell over the ``csv`` module's field limit.  A read that
fails after the file opened is an :class:`IoError`.

A file is read in one ``csv.reader`` pass that keeps only each record's
declared cells, in one flat list, and its file line.  Every ``_BLOCK``
records the cells are split into columns, trimmed, rid of rows with a
blank cell, and each numeric column parsed by ``float`` in one call.
Parsing block by block, rather than once at the end, keeps the peak
memory near that of the finished arrays.

Reports are emitted deterministically: same results, byte-identical file.
"""

from __future__ import annotations

import csv
import json
import warnings as _warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter, not_

import numpy as np

from .errors import (
    EmptyFileError,
    IoError,
    MissingColumnError,
    ParseError,
    PseudoweightError,
    ValidationError,
)
from .estimators import Method, MethodSpec, estimate_each, hajek_mean
from .samples import (
    CohortSample,
    DesignInfo,
    DesignKind,
    SurveySample,
    validate_paired_samples,
)
from .simulation import SimulationReport


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


def _unreadable(path, reader, exc):
    """The :class:`ParseError` for a record ``reader`` could not produce:
    a byte that is not UTF-8 (``UnicodeDecodeError``) or a tokenizer
    ``csv.Error``, named by its file line."""
    if not isinstance(exc, UnicodeDecodeError):
        return ParseError(f"{path}: row {reader.line_num}: {exc}")
    # The file decodes a chunk at a time, and the reader has taken none of
    # the lines of the failing chunk; count those before the bad byte.
    head = exc.object[: exc.start]
    line = reader.line_num + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return ParseError(
        f"{path}: row {line}: byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    )


#: Records read between two parses of their cells (see the module docstring).
_BLOCK = 4096


def _parse_block(path, numeric, labels, cells, lines, skipped):
    """Columns of one block of records: ``cells`` holds each record's
    declared cells in a row, ``lines`` each record's file line.

    Cells are trimmed; a record with an empty declared cell is dropped and
    its line appended to ``skipped``.  Returns the number of records kept,
    the numeric columns as float arrays and the label columns as lists of
    strings.
    """
    m = len(numeric) + len(labels)
    columns = [list(map(str.strip, cells[j::m])) for j in range(m)]
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
    blocks, skipped, cells, lines = [], [], [], []
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
            index = [position[c] for c in names]
            width = max(index) + 1
            pick = itemgetter(*index) if len(index) > 1 else lambda row: (row[index[0]],)
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))  # a short row's missing cells
                cells.extend(pick(row))
                lines.append(reader.line_num)
                if len(lines) == _BLOCK:
                    blocks.append(_parse_block(path, numeric, labels, cells, lines, skipped))
                    cells, lines = [], []
        except (csv.Error, UnicodeDecodeError) as exc:
            _parse_block(path, numeric, labels, cells, lines, skipped)  # may raise first
            raise _unreadable(path, reader, exc) from exc
    blocks.append(_parse_block(path, numeric, labels, cells, lines, skipped))
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
    mean = float(np.mean(w))
    cv = float(np.std(w, ddof=1) / mean) if w.size > 1 and mean != 0 else 0.0
    return float(np.min(w)), float(np.max(w)), cv


def run_estimation_job(job: EstimationJob):
    """Ingest both files, run every requested method, and build report rows.

    When the survey file carries the outcome column, each row also gets the
    design-weighted reference estimate, the relative difference from it, and
    the estimated squared error against it.  Warnings raised anywhere in the
    pipeline surface in the row's ``warnings`` field.  The first package
    error, in method order, is raised.  ``tw`` is rejected before either
    file is read: it needs the known participation rates, which only a
    simulated study has.
    """
    methods = tuple(Method(m) for m in job.methods)
    if Method.TW in methods:
        raise PseudoweightError(
            "method 'tw' needs known participation rates and runs only under simulate"
        )
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        cohort = ingest_delimited(
            job.cohort_path,
            covariates=job.covariate_columns,
            outcome=job.outcome_column,
        )
        survey = ingest_delimited(
            job.survey_path,
            covariates=job.covariate_columns,
            outcome=job.outcome_column,
            weight=job.weight_column,
            stratum=job.stratum_column,
            psu=job.psu_column,
            design=job.design_kind,
        )
    ingest_warnings = tuple(str(w.message) for w in caught)

    report = validate_paired_samples(cohort, survey)
    if not report.ok:
        raise ValidationError(report.violations)

    mu_ref = None
    if survey.y is not None:
        mu_ref = hajek_mean(survey.y, survey.d)

    specs = [MethodSpec(m, truncate_pi_at_one=job.truncate_pi) for m in methods]
    rows = []
    weight_dump = {}
    for result in estimate_each(specs, cohort, survey):
        if isinstance(result, PseudoweightError):
            raise result
        w_min, w_max, w_cv = _weight_summary(result.weights)
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
        row["w_min"] = w_min
        row["w_max"] = w_max
        row["w_cv"] = w_cv
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


def emit_report(results, path):
    """Write estimation results as a delimited table or structured document.

    A path ending in ``.json`` gets a JSON document; any other path gets a
    delimited table.  Column order is fixed; optional columns appear only
    when present in the rows.  Refuses to write an empty report.
    """
    results = list(results)
    if not results:
        raise IoError("refusing to write an empty report")
    columns = [c for c in _COLUMN_ORDER if any(c in r for r in results)]
    if not str(path).endswith(".json"):
        _write_table(path, columns, ([_fmt(r.get(c)) for c in columns] for r in results))
        return
    payload = json.dumps([{c: r.get(c) for c in columns} for r in results], indent=2)
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
