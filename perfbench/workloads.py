"""Inputs of the benchmark workloads, made from the workload seed alone.

``study-desk`` needs no generated files: the study draws its own samples
from the desk population, with the workload seed as the replicate base
seed.  The two ``estimate-*`` workloads get a cohort CSV and a survey CSV
drawn here.  Units follow the desk population's covariate model (the one
``pseudoweight.generate_population`` uses), volunteers are kept with a
logistic participation probability, and survey units are kept with
probability proportional to a size variable, so the design weights are
unequal.  Every float is written with ``repr``, so an exact reader
recovers the generated arrays bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

#: Replicates per cell in one study call.  Each call repeats the whole
#: 2 x 4 grid, so a run holds many calls and per-call percentiles exist.
STUDY_REPS_PER_CELL = 5
STUDY_SCENARIOS = ("log", "logit")
STUDY_F_C_GRID = (0.005, 0.05, 0.10, 0.20)
STUDY_METHODS = ("naive", "tw", "rdw", "fdw", "alp", "clw", "alps")
STUDY_CELLS = len(STUDY_SCENARIOS) * len(STUDY_F_C_GRID)

ESTIMATE_METHODS = ("naive", "alp", "fdw", "rdw", "clw", "alps")
COVARIATES = ("x1", "x2", "x3", "x4")
OUTCOME = "y"
WEIGHT = "w"
STRATUM = "stratum"
PSU = "psu"

# Participation model of the volunteers: logit link, mean rate near 5%.
_PARTICIPATION_INTERCEPT = -1.7
_PARTICIPATION_SLOPES = np.array([0.18, 0.18, -0.27, -0.27])
# Survey size variable 2 + x3 (at least 2); units are kept with
# probability size / _SIZE_CAP, which stays below one for these draws.
_SIZE_CAP = 60.0
_CHUNK = 100_000


@dataclass(frozen=True)
class EstimateSpec:
    """Shape of one two-file estimation workload."""

    n_cohort: int
    n_survey: int
    cohort_blank_frac: float
    survey_blank_frac: float
    strata: int = 0
    psus_per_stratum: int = 0
    dump_weights: bool = False
    code: int = 0

    @property
    def design(self) -> str:
        return "stratified" if self.strata else "poisson"


ESTIMATE_SPECS = {
    "estimate-large": EstimateSpec(
        n_cohort=100_000,
        n_survey=12_500,
        cohort_blank_frac=0.005,
        survey_blank_frac=0.005,
        dump_weights=True,
        code=1,
    ),
    "estimate-clustered": EstimateSpec(
        n_cohort=10_000,
        n_survey=12_500,
        cohort_blank_frac=0.0,
        survey_blank_frac=0.01,
        strata=50,
        psus_per_stratum=20,
        code=2,
    ),
}

WORKLOADS = ("study-desk",) + tuple(ESTIMATE_SPECS)


@dataclass(frozen=True)
class EstimateInputs:
    """Generated arrays (intercept not included) and the blanked cells.

    ``*_blanks`` map a row index to the declared column left empty in the
    CSV; those rows are exactly the ones ingest must skip.
    """

    cohort_y: np.ndarray
    cohort_X: np.ndarray
    survey_X: np.ndarray
    survey_y: np.ndarray
    survey_d: np.ndarray
    stratum: np.ndarray | None
    psu: np.ndarray | None
    cohort_blanks: dict
    survey_blanks: dict

    def kept(self):
        """Arrays of the rows without a blank cell, in file order."""
        keep_c = np.ones(len(self.cohort_y), dtype=bool)
        keep_c[list(self.cohort_blanks)] = False
        keep_s = np.ones(len(self.survey_d), dtype=bool)
        keep_s[list(self.survey_blanks)] = False
        labels = (None, None)
        if self.stratum is not None:
            labels = (self.stratum[keep_s], self.psu[keep_s])
        return (
            self.cohort_y[keep_c],
            self.cohort_X[keep_c],
            self.survey_X[keep_s],
            self.survey_y[keep_s],
            self.survey_d[keep_s],
            *labels,
        )


def _rng(seed: int, code: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(code,)))


def _draw_units(rng, n):
    """Covariates and outcome of ``n`` units from the desk population model."""
    x1 = rng.binomial(1, 0.5, n).astype(float)
    x2 = rng.uniform(0, 2, n) + 0.3 * x1
    x3 = rng.exponential(1.0, n) + 0.2 * (x1 + x2)
    x4 = rng.chisquare(4, n) + 0.1 * (x1 + x2 + x3)
    y = (-x1 - x2 + x3 + x4) + rng.standard_normal(n)
    return np.column_stack([x1, x2, x3, x4]), y


def _keep_until(rng, n_target, keep_prob):
    """Draw units in chunks, keeping each with ``keep_prob(X)``, until
    ``n_target`` are kept.  Returns the kept X, y and the number drawn."""
    Xs, ys, kept, drawn = [], [], 0, 0
    while kept < n_target:
        X, y = _draw_units(rng, _CHUNK)
        idx = np.flatnonzero(rng.random(_CHUNK) < keep_prob(X))[: n_target - kept]
        drawn += int(idx[-1]) + 1 if kept + len(idx) == n_target else _CHUNK
        Xs.append(X[idx])
        ys.append(y[idx])
        kept += len(idx)
    return np.concatenate(Xs), np.concatenate(ys), drawn


def _blanks(rng, n_rows, frac, columns):
    rows = rng.choice(n_rows, size=int(round(frac * n_rows)), replace=False)
    cols = rng.integers(0, len(columns), size=len(rows))
    return {int(r): columns[c] for r, c in sorted(zip(rows.tolist(), cols.tolist()))}


def make_estimate_inputs(spec: EstimateSpec, seed: int) -> EstimateInputs:
    """Draw one workload's cohort and survey; deterministic per seed."""
    rng = _rng(seed, spec.code)

    def participation(X):
        return 1.0 / (1.0 + np.exp(-(_PARTICIPATION_INTERCEPT + X @ _PARTICIPATION_SLOPES)))

    cohort_X, cohort_y, n_population = _keep_until(rng, spec.n_cohort, participation)

    def size(X):
        return 2.0 + X[:, 2]

    survey_X, survey_y, n_drawn = _keep_until(
        rng, spec.n_survey, lambda X: size(X) / _SIZE_CAP
    )
    # Design weight = 1 / (n_s * size / population size total); the mean
    # size follows from the share of drawn units that were kept.
    mean_size = spec.n_survey * _SIZE_CAP / n_drawn
    survey_d = n_population * mean_size / (spec.n_survey * size(survey_X))

    stratum = psu = None
    survey_columns = COVARIATES + (WEIGHT,)
    if spec.strata:
        n_psu = spec.strata * spec.psus_per_stratum
        cluster = rng.permutation(np.arange(spec.n_survey) % n_psu)
        h, k = np.divmod(cluster, spec.psus_per_stratum)
        stratum = np.array([f"S{a:02d}" for a in h], dtype=object)
        psu = np.array([f"S{a:02d}-P{b:02d}" for a, b in zip(h, k)], dtype=object)
        survey_columns += (STRATUM, PSU)

    return EstimateInputs(
        cohort_y=cohort_y,
        cohort_X=cohort_X,
        survey_X=survey_X,
        survey_y=survey_y,
        survey_d=survey_d,
        stratum=stratum,
        psu=psu,
        cohort_blanks=_blanks(rng, spec.n_cohort, spec.cohort_blank_frac, (OUTCOME,) + COVARIATES),
        survey_blanks=_blanks(rng, spec.n_survey, spec.survey_blank_frac, survey_columns),
    )


def _csv_text(header, columns, blanks):
    """CSV text with ``repr`` floats (strings as they are) and blank cells."""
    lines = [",".join(header)]
    cells = [[v if isinstance(v, str) else repr(float(v)) for v in col] for col in columns]
    for i, row in enumerate(zip(*cells)):
        if i in blanks:
            row = tuple("" if name == blanks[i] else v for name, v in zip(header, row))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cohort_csv(inputs: EstimateInputs) -> str:
    header = (OUTCOME,) + COVARIATES
    columns = [inputs.cohort_y] + list(inputs.cohort_X.T)
    return _csv_text(header, columns, inputs.cohort_blanks)


def survey_csv(inputs: EstimateInputs) -> str:
    header = COVARIATES + (OUTCOME, WEIGHT)
    columns = list(inputs.survey_X.T) + [inputs.survey_y, inputs.survey_d]
    if inputs.stratum is not None:
        header += (STRATUM, PSU)
        columns += [inputs.stratum, inputs.psu]
    return _csv_text(header, columns, inputs.survey_blanks)


def estimate_argv(spec: EstimateSpec, cohort_path, survey_path, report_path, dump_path):
    """Arguments of ``pseudoweight estimate`` for one workload call."""
    argv = [
        "estimate",
        "--cohort", cohort_path,
        "--survey", survey_path,
        "--outcome", OUTCOME,
        "--covariates", ",".join(COVARIATES),
        "--weight", WEIGHT,
        "--design", spec.design,
        "--methods", ",".join(ESTIMATE_METHODS),
        "--out", report_path,
    ]
    if spec.strata:
        argv += ["--strata", STRATUM, "--psu", PSU]
    if spec.dump_weights:
        argv += ["--dump-weights", dump_path]
    return argv
