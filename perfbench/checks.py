"""Output checks.  Each check returns a list of problems; empty means the
output is correct.

* Study reports must list the 2 x 4 x 7 grid in order, and each row must
  account for every requested replicate (kept plus excluded).
* Estimate reports must match the library's ``estimate()`` run on the
  generated arrays before they were written to CSV.  The CSVs hold
  ``repr`` floats, so ingest must reproduce the arrays exactly and the
  fitted numbers must agree to the last bit.
* At the default seed, every report is also compared with the stored
  reference under ``reference/``.  That comparison allows a relative
  difference of ``REFERENCE_REL_TOL``: the references were written on one
  machine, and OpenBLAS picks its kernels by CPU, which can move the last
  bits of a sum.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from workloads import (
    ESTIMATE_METHODS,
    STUDY_F_C_GRID,
    STUDY_METHODS,
    STUDY_SCENARIOS,
)

REFERENCE_REL_TOL = 1e-9

STUDY_COLUMNS = [
    "scenario", "f_c", "method", "pct_rb", "v_emp", "vr", "mse", "cp",
    "n_replicates", "n_excluded", "mean_cohort_size", "warnings",
]
ESTIMATE_COLUMNS = [
    "method", "estimate", "variance", "ci_low", "ci_high", "pct_rd", "mse",
    "w_min", "w_max", "w_cv", "warnings",
]
# Columns taken straight from ``estimate()`` or the weight vector; the
# rest are derived from them by the report and are checked with a
# tolerance of a few ulps.
_EXACT = ("estimate", "variance", "ci_low", "ci_high", "w_min", "w_max")
_DERIVED_REL_TOL = 1e-12


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def study_rows(text: str):
    """Rows of a study report as dicts keyed by column."""
    header, rows = parse_csv(text)
    return [dict(zip(header, r)) for r in rows]


def check_study_report(text: str, reps_per_cell: int):
    """Checks that hold for a study report at any seed."""
    header, rows = parse_csv(text)
    if header != STUDY_COLUMNS:
        return [f"study header {header} != {STUDY_COLUMNS}"]
    grid = [
        (s, f, m) for s in STUDY_SCENARIOS for f in STUDY_F_C_GRID for m in STUDY_METHODS
    ]
    if len(rows) != len(grid):
        return [f"study report has {len(rows)} rows, expected {len(grid)}"]
    problems = []
    for row, (scenario, f_c, method) in zip(rows, grid):
        cell = dict(zip(header, row))
        where = f"{scenario}/{f_c}/{method}"
        if (cell["scenario"], cell["method"]) != (scenario, method) or float(cell["f_c"]) != f_c:
            problems.append(f"row {where} out of grid order: {row[:3]}")
            continue
        if int(cell["n_replicates"]) + int(cell["n_excluded"]) != reps_per_cell:
            problems.append(
                f"{where}: n_replicates {cell['n_replicates']} + n_excluded "
                f"{cell['n_excluded']} != {reps_per_cell}"
            )
        if not math.isfinite(float(cell["pct_rb"])):
            problems.append(f"{where}: pct_rb is not finite")
    return problems


def excluded_count(text: str) -> int:
    """Method x replicate operations the study excluded (failed fits)."""
    return sum(int(r["n_excluded"]) for r in study_rows(text))


def _close(a: str, b: str, rel_tol: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=rel_tol, abs_tol=0.0)


def compare_to_reference(text: str, reference: str):
    """Cell-by-cell comparison; numbers may differ by ``REFERENCE_REL_TOL``."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"report shape {header}/{len(rows)} differs from the reference "
                f"{ref_header}/{len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in zip(header, row, ref):
            if not _close(a, b, REFERENCE_REL_TOL):
                problems.append(f"row {i + 1} column {col}: {a!r} != reference {b!r}")
    return problems


def expected_estimate_rows(inputs, pw):
    """Report rows the library gives on the generated arrays.

    ``pw`` is the imported ``pseudoweight`` package.  Returns the rows and
    the per-method weight vectors.
    """
    y_c, X_c, X_s, y_s, d, stratum, psu = inputs.kept()
    cohort = pw.CohortSample(y=y_c, X=np.column_stack([np.ones(len(y_c)), X_c]))
    design = pw.DesignInfo(
        kind=pw.DesignKind.STRATIFIED_WR if stratum is not None else pw.DesignKind.POISSON,
        stratum=stratum,
        psu=psu,
    )
    survey = pw.SurveySample(
        X=np.column_stack([np.ones(len(d)), X_s]), d=d, y=y_s, design=design
    )
    mu_ref = pw.hajek_mean(y_s, d)
    rows, weights = [], {}
    for name in ESTIMATE_METHODS:
        res = pw.estimate(pw.MethodSpec(method=pw.Method(name)), cohort, survey)
        w = res.weights
        mean = float(np.mean(w))
        rows.append(
            {
                "method": res.method,
                "estimate": res.mu_hat,
                "variance": res.var_hat,
                "ci_low": res.ci_low,
                "ci_high": res.ci_high,
                "pct_rd": (res.mu_hat - mu_ref) / mu_ref * 100.0,
                "mse": None if res.var_hat is None else (res.mu_hat - mu_ref) ** 2 + res.var_hat,
                "w_min": float(np.min(w)),
                "w_max": float(np.max(w)),
                "w_cv": float(np.std(w, ddof=1) / mean) if w.size > 1 else 0.0,
                "warnings": res.warnings,
            }
        )
        weights[res.method] = w
    return rows, weights


def check_estimate_report(text: str, expected_rows, skipped: dict):
    """Compare a CLI report with the library's rows.

    ``skipped`` maps each input path to the number of rows ingest had to
    skip; the row's warnings must carry the library's warnings first, then
    one skip notice per such file.
    """
    header, rows = parse_csv(text)
    if header != ESTIMATE_COLUMNS:
        return [f"estimate header {header} != {ESTIMATE_COLUMNS}"]
    if len(rows) != len(expected_rows):
        return [f"estimate report has {len(rows)} rows, expected {len(expected_rows)}"]
    problems = []
    for row, exp in zip(rows, expected_rows):
        got = dict(zip(header, row))
        where = exp["method"]
        if got["method"] != exp["method"]:
            problems.append(f"method {got['method']!r} != {exp['method']!r}")
            continue
        for col in ESTIMATE_COLUMNS[1:-1]:
            want = _fmt(exp[col])
            tol = 0.0 if col in _EXACT else _DERIVED_REL_TOL
            if not _close(got[col], want, tol):
                problems.append(f"{where} {col}: {got[col]!r} != library {want!r}")
        notes = got["warnings"].split("; ") if got["warnings"] else []
        lib = list(exp["warnings"])
        if notes[: len(lib)] != lib:
            problems.append(f"{where} warnings {notes!r} lack the library's {lib!r}")
        ingest = notes[len(lib):]
        wanted = [(p, n) for p, n in skipped.items() if n]
        if len(ingest) != len(wanted) or any(
            not note.startswith(f"{p}: skipped {n} row(s)")
            for note, (p, n) in zip(ingest, wanted)
        ):
            problems.append(f"{where} skip notices {ingest!r} do not match {wanted!r}")
    return problems


def expected_dump(weights: dict) -> str:
    """Weight dump text for the library's weight vectors."""
    methods = list(weights)
    cols = [[repr(float(v)) for v in weights[m]] for m in methods]
    lines = [",".join(["unit"] + methods)]
    lines += [",".join((str(i),) + vals) for i, vals in enumerate(zip(*cols))]
    return "\n".join(lines) + "\n"
