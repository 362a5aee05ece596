"""Delimited-file ingestion, estimation jobs, and report emission.

File format: comma-separated, UTF-8, mandatory header row, ``.`` decimal
separator, no thousands separators.  Header names are matched after
trimming surrounding spaces.  Blank lines are ignored.  Rows with an empty
value in a declared column are skipped (their file line numbers are
reported through a warning); non-numeric content in a declared column is a
hard :class:`ParseError` naming the file line.

Reports are emitted deterministically: same results, byte-identical file.
"""

from __future__ import annotations

import csv
import json
import warnings as _warnings
from dataclasses import dataclass

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


def _open(path):
    """Open a delimited file for reading; a failure becomes an :class:`IoError`."""
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc


def _read_columns(path, numeric, labels=()):
    """Read the declared columns of a delimited file in one pass.

    Header names are matched after trimming; a name that appears twice is
    read from its last copy.  ``numeric`` columns are parsed as floats and
    ``labels`` columns kept as trimmed strings, each returned as a dict of
    arrays.  Blank lines are ignored; a row with an empty (or absent) cell
    in any declared column is skipped and reported by its file line.
    """
    names = list(numeric) + list(labels)
    with _open(path) as fh:
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
        _warnings.warn(
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

    A ``weight`` column makes the result a :class:`SurveySample`; otherwise
    a :class:`CohortSample` is built and ``outcome`` is required.  An
    intercept column of ones is prepended to the declared covariates.
    """
    covariates = list(covariates)
    if not covariates:
        raise MissingColumnError(f"{path}: no covariate columns declared")
    needed = covariates + [c for c in (outcome, weight) if c]
    data, labels = _read_columns(path, needed, [c for c in (stratum, psu) if c])
    X = np.column_stack(
        [np.ones(len(data[covariates[0]]))] + [data[c] for c in covariates]
    )

    if weight:
        return SurveySample(
            X=X,
            d=data[weight],
            y=data[outcome] if outcome else None,
            design=DesignInfo(
                kind=DesignKind(design),
                stratum=labels.get(stratum),
                psu=labels.get(psu),
            ),
        )
    if not outcome:
        raise MissingColumnError("a cohort file needs an outcome column")
    return CohortSample(y=data[outcome], X=X)


def _header(path):
    with _open(path) as fh:
        first = next(csv.reader(fh), None)
    if first is None:
        raise EmptyFileError(f"{path} has no header row")
    return [h.strip() for h in first]


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
    output_path: str | None = None
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
        survey_has_outcome = job.outcome_column in _header(job.survey_path)
        survey = ingest_delimited(
            job.survey_path,
            covariates=job.covariate_columns,
            outcome=job.outcome_column if survey_has_outcome else None,
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


def _write_table(path, header, rows, what="report"):
    """Write a header and rows as a comma-separated table; a failure to
    write becomes an :class:`IoError`."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


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
    try:
        doc = [{c: r.get(c) for c in columns} for r in results]
        payload = json.dumps(doc, indent=2, allow_nan=True, sort_keys=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


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
