"""Monte Carlo study engine: population generation, calibrated sampling
mechanisms, replicated estimation, and summary metrics.

A single finite population is generated per study.  Within each grid cell
(scenario x participation rate), unit-level participation probabilities and
survey inclusion probabilities are calibrated once, and every replicate then
draws both samples independently, runs the requested estimators, and feeds a
deterministic reduction.

Seed discipline: replicate generators are spawned from the base seed with a
counter key ``(scenario code, participation-rate key, replicate index)``, so
any cell or replicate can be reproduced in isolation.  The engine relies on
that: after the calling process has generated the population and calibrated
every cell, forked worker processes each draw and estimate an interleaved
share of the replicates, and the calling process reduces their results in
replicate order, so the report does not depend on the number of workers.

Each cell's participation intercept is found by :func:`_brentq`, a port of
scipy's ``brentq`` that returns the same double, so neither the package nor
a study loads anything from scipy but ``scipy.special``: the desk study's
set-up (import, population and the 8 cells' calibration) takes 0.44 s,
against 0.74 s while the calibration loaded scipy's optimize subpackage
(medians on 2 cores, ``BENCH_3.json``).
"""

from __future__ import annotations

import enum
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np
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


#: The relative tolerance and iteration cap scipy's ``brentq`` defaults to.
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, a, b, xtol):
    """Root of ``f`` in ``[a, b]`` by Brent's method (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4).

    A step-for-step port of scipy's C ``brentq`` at its default ``rtol`` and
    iteration cap, so it returns the same double.  A NaN value, a bracket
    whose ends have the same sign, or the cap raises
    :class:`NonConvergenceError`.
    """

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise NonConvergenceError(
                f"intercept calibration failed: the function value at x={x:.17g} is NaN"
            )
        return fx

    def negative(v):
        return math.copysign(1.0, v) < 0

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise NonConvergenceError(
            "intercept calibration failed: f(a) and f(b) must have different signs"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonConvergenceError(
        f"intercept calibration failed: no convergence after {_BRENT_MAXITER} "
        f"iterations, last value {xcur!r}"
    )


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
    intercept = _brentq(g, lo, hi, xtol=1e-13)
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
    if not np.all((pi > 0.0) & (pi <= 1.0)):
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


@dataclass(frozen=True)
class _Study:
    """What every replicate of a study reads: the population, the cells
    with their calibrated participation probabilities, and the survey's
    inclusion probabilities and design weights."""

    population: FinitePopulation
    cells: tuple
    pi_c: tuple
    pi_p: np.ndarray
    d: np.ndarray
    specs: tuple
    base_seed: int


def _calibrate(population, cells, methods, base_seed, f_p) -> _Study:
    """Calibrate every cell before any replicate runs.  The survey's
    inclusion probabilities depend only on the population and ``f_p``, so
    they are solved once per study."""
    pi_c = []
    for cell in cells:
        try:
            intercept = calibrate_participation_intercept(
                population, cell.scenario, cell.f_c_target
            )
        except (InfeasibleTargetError, NonConvergenceError) as exc:
            raise CellInfeasibleError(
                f"cell ({cell.scenario.value}, f_c={cell.f_c_target}) cannot be "
                f"calibrated: {exc}"
            ) from exc
        pi_c.append(participation_probabilities(population, cell.scenario, intercept))
    try:
        _, pi_p = calibrate_survey_const(population, f_p)
    except InfeasibleTargetError as exc:
        raise CellInfeasibleError(f"the survey cannot be calibrated: {exc}") from exc
    return _Study(
        population=population,
        cells=tuple(cells),
        pi_c=tuple(pi_c),
        pi_p=pi_p,
        d=1.0 / pi_p,
        specs=tuple(MethodSpec(method=m) for m in methods),
        base_seed=base_seed,
    )


def _replicate(study: _Study, cell_index: int, rep: int):
    """Draw one replicate of one cell and run every method on it.

    Returns the cohort size and, per method, ``(mu_hat, var_hat, ci_low,
    ci_high, warnings)`` or the class name of the package error that
    excluded the replicate.  Weight vectors are not returned.
    """
    cell = study.cells[cell_index]
    pi_c = study.pi_c[cell_index]
    population = study.population
    rng = _replicate_seed(study.base_seed, cell.scenario, cell.f_c_target, rep)
    inc_c = poisson_sample(pi_c, rng)
    inc_p = poisson_sample(study.pi_p, rng)
    cohort = CohortSample(y=population.y[inc_c], X=population.X[inc_c])
    survey = SurveySample(
        X=population.X[inc_p],
        d=study.d[inc_p],
        design=DesignInfo(kind=DesignKind.POISSON),
    )
    results = estimate_each(study.specs, cohort, survey, true_participation=pi_c[inc_c])
    return cohort.n_c, tuple(
        type(r).__name__
        if isinstance(r, PseudoweightError)
        else (r.mu_hat, r.var_hat, r.ci_low, r.ci_high, r.warnings)
        for r in results
    )


#: cgroup v2 CPU quota, ``max`` or ``QUOTA PERIOD`` in microseconds; inside
#: a container this is the container's own cgroup.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota() -> float:
    """CPUs the cgroup quota in :data:`_CPU_MAX` pays for, rounded up;
    infinite when there is no quota or the file is absent or malformed."""
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = map(int, fh.read().split())
    except (OSError, ValueError):  # includes "max", which means no quota
        return math.inf
    if quota <= 0 or period <= 0:
        return math.inf
    return math.ceil(quota / period)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, capped by the
    cgroup CPU quota.  Forked workers are verified on Linux only, so other
    platforms (which lack ``os.sched_getaffinity``) count one and run
    serially."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _cpu_quota())


def _outcome(fn, *args):
    """``(True, fn(*args))``, or ``(False, exc)`` when it raises ``exc``."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _fork(fn, *args):
    """Start ``fn(*args)`` in a forked child and return the function that
    waits for it.  The wait reaps the child and returns what ``fn``
    returned, or raises what it raised, pickled back through a pipe; a
    child that ends without a result raises :class:`ChildProcessError`
    naming its exit status.  Forked, not spawned: a spawned child would
    import numpy and ``scipy.special`` again, which takes longer than an
    ``estimate`` call."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(_outcome(fn, *args), pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)

    def wait():
        try:
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or not data:
            raise ChildProcessError(f"a forked worker ended with exit status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return wait


def _fork_map(fn, items, workers, here=True):
    """``[fn(item) for item in items]`` in up to ``workers`` shares: share
    k is ``items[k::workers]`` and runs in a forked child (:func:`_fork`),
    except the last, which this process runs when ``here`` or when it is
    the only share.  Every child is reaped before an error is raised, the
    first in share order."""
    workers = max(1, min(workers, len(items)))
    shares = [items[k::workers] for k in range(workers)]
    here = here or workers == 1
    waits, outcomes = [], []

    def run(share):
        return [fn(item) for item in share]

    try:
        for share in shares[:-1] if here else shares:
            waits.append(_fork(run, share))
        outcomes = [_outcome(run, shares[-1])] if here else []
    finally:
        outcomes = [_outcome(wait) for wait in waits] + outcomes
    results = [None] * len(items)
    for k, (ok, value) in enumerate(outcomes):
        if not ok:
            raise value
        results[k::workers] = value
    return results


def _run_replicates(study: _Study, replicates: int):
    """Every cell's replicate outcomes, in replicate order.

    One worker per usable CPU, capped at the number of (cell, replicate)
    units.  More than one each run an interleaved share of the units in a
    forked child, which inherits the calibrated study, while this process
    only waits; the results come back in unit order, so the reduction sees
    the same lists whatever the worker count.
    """
    n_cells = len(study.cells)
    units = [(c, rep) for c in range(n_cells) for rep in range(replicates)]
    done = _fork_map(lambda unit: _replicate(study, *unit), units, _usable_cpus(), here=False)
    return [done[c * replicates : (c + 1) * replicates] for c in range(n_cells)]


def _cell_results(cell: ScenarioConfig, methods, outcomes, mu: float):
    """Reduce one cell's replicate outcomes, in replicate order, to one
    :class:`CellResult` per method."""
    results = []
    for i, m in enumerate(methods):
        est, var, hits, warn_counts = [], [], [], {}
        for _, per_method in outcomes:
            if isinstance(per_method[i], str):
                continue
            mu_hat, var_hat, ci_low, ci_high, warnings = per_method[i]
            est.append(mu_hat)
            for w in warnings:
                key, _, count = (part.strip() for part in w.partition(":"))
                n = int(count) if count.isdecimal() else 1
                warn_counts[key] = warn_counts.get(key, 0) + n
            if var_hat is not None:
                var.append(var_hat)
                hits.append(bool(np.isfinite(ci_low) and ci_low <= mu <= ci_high))
        if len(est) >= 2:
            metrics = compute_metrics(est, var or None, hits or None, mu)
        else:
            # too few kept replicates for a variance: the row keeps its
            # counts, and every metric the method reports reads nan
            nan = float("nan")
            no_variance = None if m is Method.NAIVE else nan
            metrics = MetricRecord(nan, nan, nan, no_variance, no_variance)
        results.append(
            CellResult(
                scenario=cell.scenario.value,
                f_c=cell.f_c_target,
                method=m.value,
                n_replicates=len(est),
                n_excluded=len(outcomes) - len(est),
                mean_cohort_size=float(np.mean([n_c for n_c, _ in outcomes])),
                warning_counts=tuple(sorted(warn_counts.items())),
                **vars(metrics),
            )
        )
    return results


DEFAULT_METHODS = tuple(Method)
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
    method's aggregates and counted in ``n_excluded``; a method left with
    fewer than two replicates gets ``nan`` for every metric it reports.
    Fewer than two ``replicates`` raise :class:`InsufficientReplicatesError`
    and cells that cannot be calibrated raise :class:`CellInfeasibleError`,
    both before any replicate runs.

    On Linux, replicates run in one forked process per usable CPU, capped
    at the number of replicates in the grid; with one CPU, or on other
    platforms, they run in this process.  The report is the same, byte for
    byte, whatever the worker count.
    """
    if replicates < 2:
        raise InsufficientReplicatesError("need at least two replicates for a variance")
    population = generate_population(population_config)
    methods = tuple(Method(m) for m in methods)
    cells = [
        ScenarioConfig(Scenario(scenario), float(f_c), f_p)
        for scenario in scenarios
        for f_c in f_c_grid
    ]
    study = _calibrate(population, cells, methods, base_seed, f_p)
    outcomes = _run_replicates(study, replicates)
    return SimulationReport(
        mu_true=population.mu,
        n_population=population.N,
        n_replicates=replicates,
        base_seed=base_seed,
        cells=tuple(
            result
            for cell, cell_outcomes in zip(cells, outcomes)
            for result in _cell_results(cell, methods, cell_outcomes, population.mu)
        ),
    )
