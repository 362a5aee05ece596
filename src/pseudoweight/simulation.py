"""Monte Carlo study engine: population generation, calibrated sampling
mechanisms, replicated estimation, and summary metrics.

A single finite population is generated per study.  Within each grid cell
(scenario x participation rate), unit-level participation probabilities and
survey inclusion probabilities are calibrated once, and every replicate then
draws both samples independently, runs the requested estimators, and feeds a
deterministic reduction.

Seed discipline: replicate generators are spawned from the base seed with a
counter key ``(scenario code, participation-rate key, replicate index)``, so
any cell or replicate can be reproduced in isolation and replicates can run
in any order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

from .errors import (
    CellInfeasibleError,
    DomainError,
    InfeasibleTargetError,
    InsufficientReplicatesError,
    NonConvergenceError,
    PseudoweightError,
)
from .estimators import Method, MethodSpec, estimate_each
from .samples import CohortSample, DesignInfo, DesignKind, SurveySample

#: Slope coefficients of the participation models, shared by both scenarios.
PARTICIPATION_SLOPES = (0.18, 0.18, -0.27, -0.27)

#: Outcome coefficient in the survey size variable.
SURVEY_OUTCOME_COEF = 0.03

#: Target ratio of the largest to smallest survey size variable.
SURVEY_WEIGHT_RATIO = 20.0


class Scenario(str, enum.Enum):
    """Functional form of the participation-rate mechanism.

    ``LOG_LINK`` makes the log participation rate linear in the covariates
    (the membership-model methods are correctly specified); ``LOGIT_LINK``
    makes the logit linear (the participation-score method is correctly
    specified).
    """

    LOG_LINK = "log"
    LOGIT_LINK = "logit"

    @property
    def code(self) -> int:
        return 1 if self is Scenario.LOG_LINK else 2


@dataclass(frozen=True)
class PopulationConfig:
    """Size and seed of the generated finite population."""

    N: int = 50_000
    seed: int = 2468

    def __post_init__(self):
        if self.N < 1000:
            raise ValueError("population size below 1000 makes sampling fractions meaningless")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: mechanism and target sampling rates."""

    scenario: Scenario
    f_c_target: float
    f_p_target: float = 0.025

    def __post_init__(self):
        if not 0.0 < self.f_c_target < 1.0:
            raise ValueError("participation-rate target must lie in (0, 1)")
        if not 0.0 < self.f_p_target < 1.0:
            raise ValueError("survey sampling fraction must lie in (0, 1)")


@dataclass(frozen=True)
class FinitePopulation:
    """Generated population: covariates (with intercept), outcomes, truth."""

    X: np.ndarray
    y: np.ndarray
    mu: float

    @property
    def N(self) -> int:
        return self.X.shape[0]


def generate_population(config: PopulationConfig) -> FinitePopulation:
    """Draw the study population; deterministic for a given seed.

    Four base variates (Bernoulli, uniform, exponential, chi-square) are
    chained into correlated covariates, and the outcome is normal with unit
    variance around a linear combination of them.  The returned ``mu`` is the realized
    population mean, the estimand of every simulated estimator.
    """
    rng = np.random.default_rng(config.seed)
    N = config.N
    v1 = rng.binomial(1, 0.5, N).astype(float)
    v2 = rng.uniform(0, 2, N)
    v3 = rng.exponential(1.0, N)
    v4 = rng.chisquare(4, N)
    x1 = v1
    x2 = v2 + 0.3 * x1
    x3 = v3 + 0.2 * (x1 + x2)
    x4 = v4 + 0.1 * (x1 + x2 + x3)
    X = np.column_stack([np.ones(N), x1, x2, x3, x4])
    y = (-x1 - x2 + x3 + x4) + rng.standard_normal(N)
    return FinitePopulation(X=X, y=y, mu=float(y.mean()))


def participation_probabilities(
    population: FinitePopulation,
    scenario: Scenario,
    intercept: float,
    slopes=PARTICIPATION_SLOPES,
) -> np.ndarray:
    """Per-unit participation probabilities under a scenario's link."""
    eta = population.X[:, 1:] @ np.asarray(slopes, dtype=float)
    if scenario is Scenario.LOG_LINK:
        return np.exp(intercept + eta)
    return expit(intercept + eta)


def calibrate_participation_intercept(
    population: FinitePopulation,
    scenario: Scenario,
    f_c_target: float,
    slopes=PARTICIPATION_SLOPES,
) -> float:
    """Intercept for which the mean participation probability hits the target.

    The mean probability is strictly increasing in the intercept, so a
    bracketing root search applies.  Under the log link the bracket's upper
    end is the feasibility boundary (largest probability reaching one); a
    target above what that boundary allows raises
    :class:`InfeasibleTargetError`.
    """
    if not 0.0 < f_c_target < 1.0:
        raise InfeasibleTargetError("participation-rate target must lie in (0, 1)")
    eta = population.X[:, 1:] @ np.asarray(slopes, dtype=float)
    N = population.N
    if scenario is Scenario.LOG_LINK:

        def g(c):
            return np.exp(c + eta).sum() / N - f_c_target

        hi = -eta.max() - 1e-9
        lo = hi - 40.0
        if g(hi) < 0:
            raise InfeasibleTargetError(
                f"no intercept keeps all probabilities below one while the "
                f"mean reaches {f_c_target}"
            )
        if g(lo) > 0:  # pragma: no cover - would need f_c below exp(-40)
            raise InfeasibleTargetError("participation-rate target too small for the bracket")
    else:

        def g(c):
            return expit(c + eta).sum() / N - f_c_target

        lo, hi = -40.0, 40.0
    try:
        intercept = float(brentq(g, lo, hi, xtol=1e-13))
    except (ValueError, RuntimeError) as exc:
        raise NonConvergenceError(f"intercept calibration failed: {exc}") from exc
    if abs(g(intercept)) >= 1e-8:
        raise NonConvergenceError(
            f"intercept calibration residual {abs(g(intercept)):.2e} above 1e-8"
        )
    return intercept


def calibrate_survey_const(population: FinitePopulation, f_p_target: float):
    """Solve for the constant that fixes the survey size-variable spread.

    The size variable is ``const + x3 + c * y`` with ``c`` =
    :data:`SURVEY_OUTCOME_COEF`; its max/min ratio, strictly decreasing in
    ``const``, must equal :data:`SURVEY_WEIGHT_RATIO`.  The ratio equation
    is linear in ``const``, so the root is exact.  Returns the constant and
    the survey inclusion probabilities ``n_p q / sum(q)`` capped at one.
    """
    t = population.X[:, 3] + SURVEY_OUTCOME_COEF * population.y
    if t.max() - t.min() <= 0.0:
        raise InfeasibleTargetError(
            "size variable is constant across units; no constant can produce "
            f"a weight ratio of {SURVEY_WEIGHT_RATIO}"
        )
    const = (t.max() - SURVEY_WEIGHT_RATIO * t.min()) / (SURVEY_WEIGHT_RATIO - 1.0)
    q = const + t
    if q.min() <= 0:  # pragma: no cover - excluded by the algebra above
        raise InfeasibleTargetError("size variable would be nonpositive")
    n_p = f_p_target * population.N
    pi_p = np.clip(n_p * q / q.sum(), 0.0, 1.0)
    return float(const), pi_p


def poisson_sample(probabilities: np.ndarray, seed) -> np.ndarray:
    """Independent per-unit inclusion draws; returns the selected indices.

    ``seed`` may be an integer or a ``numpy.random.Generator``.  The draw is
    deterministic for a given seed.
    """
    pi = np.asarray(probabilities, dtype=float)
    if np.any(pi <= 0.0) or np.any(pi > 1.0):
        raise DomainError("inclusion probabilities must lie in (0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return np.flatnonzero(rng.random(pi.shape[0]) < pi)


@dataclass(frozen=True)
class MetricRecord:
    """Cross-replicate summary for one estimator in one cell."""

    pct_rb: float
    v_emp: float
    mse: float
    vr: float | None
    cp: float | None


def compute_metrics(
    estimates,
    variance_estimates,
    ci_hits,
    mu_true: float,
) -> MetricRecord:
    """Relative bias, empirical variance, MSE, variance ratio, and coverage.

    The empirical variance uses the ``B - 1`` denominator; the variance
    ratio is the mean estimated variance over the empirical variance
    (a ratio near one means calibrated).  ``variance_estimates`` and
    ``ci_hits`` may be ``None`` for estimators without a variance.
    """
    est = np.asarray(estimates, dtype=float)
    if est.size < 2:
        raise InsufficientReplicatesError("need at least two replicates for a variance")
    pct_rb = float(np.mean((est - mu_true) / mu_true) * 100.0)
    v_emp = float(np.var(est, ddof=1))
    mse = float(np.mean((est - mu_true) ** 2))
    vr = None
    cp = None
    if variance_estimates is not None:
        mean_v = float(np.mean(np.asarray(variance_estimates, dtype=float)))
        vr = mean_v / v_emp if v_emp > 0 else float("nan")
    if ci_hits is not None:
        cp = float(np.mean(np.asarray(ci_hits, dtype=bool)))
    return MetricRecord(pct_rb=pct_rb, v_emp=v_emp, mse=mse, vr=vr, cp=cp)


@dataclass(frozen=True)
class CellResult:
    """Aggregated metrics for one (scenario, rate, method) cell."""

    scenario: str
    f_c: float
    method: str
    n_replicates: int
    n_excluded: int
    mean_cohort_size: float
    pct_rb: float
    v_emp: float
    mse: float
    vr: float | None
    cp: float | None
    warning_counts: tuple = ()


@dataclass(frozen=True)
class SimulationReport:
    """All cell results plus the population truth they were scored against."""

    mu_true: float
    n_population: int
    n_replicates: int
    base_seed: int
    cells: tuple = ()


def _replicate_seed(base_seed: int, scenario: Scenario, f_c: float, rep: int):
    key = (scenario.code, int(round(f_c * 10_000)), rep)
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=key))


def _run_cell(
    population: FinitePopulation,
    cell: ScenarioConfig,
    methods,
    replicates: int,
    base_seed: int,
):
    try:
        intercept = calibrate_participation_intercept(
            population, cell.scenario, cell.f_c_target
        )
        pi_c = participation_probabilities(population, cell.scenario, intercept)
        _, pi_p = calibrate_survey_const(population, cell.f_p_target)
    except (InfeasibleTargetError, NonConvergenceError) as exc:
        raise CellInfeasibleError(
            f"cell ({cell.scenario.value}, f_c={cell.f_c_target}) cannot be "
            f"calibrated: {exc}"
        ) from exc

    d_pop = 1.0 / pi_p
    specs = [MethodSpec(method=m) for m in methods]
    est = {m: [] for m in methods}
    var = {m: [] for m in methods}
    hits = {m: [] for m in methods}
    warn_counts = {m: {} for m in methods}
    cohort_sizes = []

    def note_warnings(method, ws):
        for w in ws:
            key, _, count = w.partition(":")
            key = key.strip()
            try:
                n = int(count.strip()) if count else 1
            except ValueError:
                n = 1
            warn_counts[method][key] = warn_counts[method].get(key, 0) + n

    for rep in range(replicates):
        rng = _replicate_seed(base_seed, cell.scenario, cell.f_c_target, rep)
        inc_c = poisson_sample(pi_c, rng)
        inc_p = poisson_sample(pi_p, rng)

        cohort = CohortSample(y=population.y[inc_c], X=population.X[inc_c])
        survey = SurveySample(
            X=population.X[inc_p],
            d=d_pop[inc_p],
            design=DesignInfo(kind=DesignKind.POISSON),
        )
        cohort_sizes.append(cohort.n_c)
        results = estimate_each(specs, cohort, survey, true_participation=pi_c[inc_c])
        for m, result in zip(methods, results):
            if isinstance(result, PseudoweightError):
                continue
            est[m].append(result.mu_hat)
            note_warnings(m, result.warnings)
            if result.var_hat is not None:
                var[m].append(result.var_hat)
                covered = np.isfinite(result.ci_low) and (
                    result.ci_low <= population.mu <= result.ci_high
                )
                hits[m].append(bool(covered))

    results = []
    for m in methods:
        metrics = compute_metrics(est[m], var[m] or None, hits[m] or None, population.mu)
        results.append(
            CellResult(
                scenario=cell.scenario.value,
                f_c=cell.f_c_target,
                method=m.value,
                n_replicates=len(est[m]),
                n_excluded=replicates - len(est[m]),
                mean_cohort_size=float(np.mean(cohort_sizes)),
                pct_rb=metrics.pct_rb,
                v_emp=metrics.v_emp,
                mse=metrics.mse,
                vr=metrics.vr,
                cp=metrics.cp,
                warning_counts=tuple(sorted(warn_counts[m].items())),
            )
        )
    return results


DEFAULT_METHODS = (
    Method.NAIVE,
    Method.TW,
    Method.RDW,
    Method.FDW,
    Method.ALP,
    Method.CLW,
    Method.ALPS,
)
DEFAULT_F_C_GRID = (0.005, 0.05, 0.10, 0.20)


def run_monte_carlo(
    population_config: PopulationConfig,
    scenarios=(Scenario.LOG_LINK, Scenario.LOGIT_LINK),
    f_c_grid=DEFAULT_F_C_GRID,
    methods=DEFAULT_METHODS,
    replicates: int = 1000,
    base_seed: int = 99,
    f_p: float = 0.025,
) -> SimulationReport:
    """Run the full study grid and aggregate per-cell metrics.

    A replicate on which a method raises a package error (in its fit key,
    its propensity fit, or its weights and variance) is excluded from that
    method's aggregates and counted in ``n_excluded``.  Cells that cannot be
    calibrated raise :class:`CellInfeasibleError`.
    """
    population = generate_population(population_config)
    methods = tuple(Method(m) for m in methods)
    cells = []
    for scenario in scenarios:
        for f_c in f_c_grid:
            cell = ScenarioConfig(Scenario(scenario), float(f_c), f_p)
            cells.extend(_run_cell(population, cell, methods, replicates, base_seed))
    return SimulationReport(
        mu_true=population.mu,
        n_population=population.N,
        n_replicates=replicates,
        base_seed=base_seed,
        cells=tuple(cells),
    )
