"""Monte Carlo study engine: population generation, calibrated sampling
mechanisms, replicated estimation, and summary metrics.

A single finite population and one survey design are made per study; the
survey fraction, one for the whole study, is checked when the survey is
calibrated.  Within each grid cell (scenario x participation rate),
unit-level participation probabilities are calibrated, and every replicate
then draws both samples independently, runs the requested estimators, and
feeds a deterministic reduction.

Seed discipline: replicate generators are spawned from the base seed with a
counter key ``(scenario code, participation-rate key, replicate index)``, so
any cell or replicate can be reproduced in isolation.  The engine relies on
that: the calling process makes the population, checks every cell's root
bracket and solves the survey's constant; forked workers then calibrate,
draw and estimate whole cells, each taking the costliest cell left whenever
it is free (a cell is split only when workers outnumber cells), and the
calling process reduces their results in replicate order, so the report does
not depend on the number of workers.

Both scenarios' links take one linear predictor, ``X[:, 1:] @``
:data:`PARTICIPATION_SLOPES`, made once per population, and each keeps the
mean rate at every intercept tried, so a worker's root search reads back the
ends the bracket check computed.  The search is :func:`_brentq`, a port of
scipy's ``brentq`` that returns the same double, so no study loads scipy's
optimize subpackage (it made set-up 0.74 s, not 0.44 s; ``BENCH_3.json``).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field

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
from .estimators import Method, _distinct_methods, estimate_each
from .parallel import _fork_queue, _usable_cpus
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
    """One simulation cell: mechanism and target participation rate."""

    scenario: Scenario
    f_c_target: float

    def __post_init__(self):
        if not 0.0 < self.f_c_target < 1.0:
            raise ValueError("participation-rate target must lie in (0, 1)")

    def __str__(self):
        return f"cell ({self.scenario.value}, f_c={self.f_c_target})"


@dataclass(frozen=True)
class FinitePopulation:
    """Generated population: covariates (with intercept), outcomes, truth."""

    X: np.ndarray
    y: np.ndarray
    mu: float
    #: scenario -> {intercept: mean rate}, so no root search evaluates one twice
    link_means: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @functools.cached_property
    def eta(self) -> np.ndarray:
        """The participation models' linear predictor without intercept."""
        return self.X[:, 1:] @ np.asarray(PARTICIPATION_SLOPES, dtype=float)


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
    population: FinitePopulation, scenario: Scenario, intercept: float
) -> np.ndarray:
    """Per-unit participation probabilities under a scenario's link."""
    link = np.exp if scenario is Scenario.LOG_LINK else expit
    return link(intercept + population.eta)


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

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NonConvergenceError(
            "intercept calibration failed: f(a) and f(b) must have different signs"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
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


def _intercept_equation(population, scenario, f_c_target):
    """The mean-rate residual ``g`` whose root is a cell's intercept, and the
    bracket ``lo, hi`` holding it.  Under the log link ``hi`` is the
    feasibility boundary (largest intercept keeping every rate below one)."""
    if not 0.0 < f_c_target < 1.0:
        raise InfeasibleTargetError("participation-rate target must lie in (0, 1)")
    eta, means = population.eta, population.link_means.setdefault(scenario, {})
    link = np.exp if scenario is Scenario.LOG_LINK else expit

    def g(c):
        if c not in means:
            means[c] = link(c + eta).sum() / population.N
        return means[c] - f_c_target

    if link is expit:
        return g, -40.0, 40.0
    hi = -eta.max() - 1e-9
    if g(hi) < 0:
        raise InfeasibleTargetError(
            f"no intercept keeps all probabilities below one while the mean reaches {f_c_target}"
        )
    if g(hi - 40.0) > 0:  # pragma: no cover - would need f_c below exp(-40)
        raise InfeasibleTargetError("participation-rate target too small for the bracket")
    return g, hi - 40.0, hi


def calibrate_participation_intercept(
    population: FinitePopulation, scenario: Scenario, f_c_target: float
) -> float:
    """Intercept for which the mean participation probability hits the target.

    The mean probability is strictly increasing in the intercept, so a
    bracketing root search applies.  A target the log link cannot reach
    with every probability below one raises :class:`InfeasibleTargetError`.
    """
    g, lo, hi = _intercept_equation(population, scenario, f_c_target)
    intercept = _brentq(g, lo, hi, xtol=1e-13)
    if abs(g(intercept)) >= 1e-8:
        raise NonConvergenceError(
            f"intercept calibration residual {abs(g(intercept)):.2e} above 1e-8"
        )
    return intercept


def calibrate_survey_const(population: FinitePopulation, f_p: float):
    """Solve for the constant that fixes the survey size-variable spread.

    The size variable is ``const + x3 + c * y`` with ``c`` =
    :data:`SURVEY_OUTCOME_COEF`; its max/min ratio, strictly decreasing in
    ``const``, must equal :data:`SURVEY_WEIGHT_RATIO`.  The ratio equation
    is linear in ``const``, so the root is exact.  Returns the constant and
    the survey inclusion probabilities ``f_p N q / sum(q)`` capped at one; an
    ``f_p`` outside (0, 1) raises :class:`InfeasibleTargetError`.
    """
    if not 0.0 < f_p < 1.0:
        raise InfeasibleTargetError("survey sampling fraction must lie in (0, 1)")
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
    n_p = f_p * population.N
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
class CellResult:
    """Aggregated metrics for one (scenario, rate, method) cell; the fields
    are the columns of :func:`~pseudoweight.io.emit_simulation_report`, in order."""

    scenario: str
    f_c: float
    method: str
    pct_rb: float
    v_emp: float
    vr: float | None
    mse: float
    cp: float | None
    n_replicates: int
    n_excluded: int
    mean_cohort_size: float
    warning_counts: tuple = ()


@dataclass(frozen=True)
class SimulationReport:
    """All cell results plus the population truth they were scored against."""

    mu_true: float
    n_population: int
    n_replicates: int
    base_seed: int
    cells: tuple = ()


@dataclass(frozen=True)
class _Study:
    """What every replicate of a study reads besides its cell."""

    population: FinitePopulation
    pi_p: np.ndarray
    d: np.ndarray
    methods: tuple
    base_seed: int


def _for_cell(cell: ScenarioConfig, calibrate, population):
    """``calibrate`` one cell; a failure raises :class:`CellInfeasibleError` naming it."""
    try:
        return calibrate(population, cell.scenario, cell.f_c_target)
    except (InfeasibleTargetError, NonConvergenceError) as exc:
        raise CellInfeasibleError(f"{cell} cannot be calibrated: {exc}") from exc


def _seed_key(cell: ScenarioConfig) -> tuple:
    """A cell's part of its replicates' counter key: scenario code, rate in 0.0001s."""
    return 1 if cell.scenario is Scenario.LOG_LINK else 2, int(round(cell.f_c_target * 10_000))


def _replicate(study: _Study, cell: ScenarioConfig, pi_c: np.ndarray, rep: int):
    """Draw replicate ``rep`` of a cell of participation probabilities
    ``pi_c``, from the generator its counter key spawns (see the module
    docstring), and run every method on it.

    Returns the cohort size and, per method, ``(mu_hat, var_hat, ci_low,
    ci_high, warnings)`` or the class name of the package error that
    excluded the replicate.  Weight vectors are not returned.
    """
    population = study.population
    key = (*_seed_key(cell), rep)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=study.base_seed, spawn_key=key))
    inc_c = poisson_sample(pi_c, rng)
    inc_p = poisson_sample(study.pi_p, rng)
    X_c, X_p = population.X.take(inc_c, axis=0), population.X.take(inc_p, axis=0)
    y_c, d_p = population.y.take(inc_c), study.d.take(inc_p)
    for a in (X_c, X_p, y_c, d_p):  # read-only, so the sample containers keep them uncopied
        a.flags.writeable = False
    cohort = CohortSample(y=y_c, X=X_c)
    survey = SurveySample(X_p, d_p, DesignInfo(DesignKind.POISSON))
    results = estimate_each(study.methods, cohort, survey, true_participation=pi_c[inc_c])
    return cohort.n_c, tuple(
        type(r).__name__
        if isinstance(r, PseudoweightError)
        else (r.mu_hat, r.var_hat, r.ci_low, r.ci_high, r.warnings)
        for r in results
    )


def _run_cell(study: _Study, cell: ScenarioConfig, reps: range):
    """A cell's root search, then the outcomes of its replicates ``reps``."""
    intercept = _for_cell(cell, calibrate_participation_intercept, study.population)
    pi_c = participation_probabilities(study.population, cell.scenario, intercept)
    return [_replicate(study, cell, pi_c, rep) for rep in reps]


def _pieces(costs, replicates: int, workers: int):
    """Cells of estimated ``costs`` as ``(cell, replicate range)`` pieces,
    costliest first: whole cells, unless workers outnumber cells, when each
    cell is cut into the fewest pieces that give every worker one (piece
    ``k`` of ``n`` holding replicates ``k, k + n, ...``)."""
    n = min(replicates, -(-workers // max(len(costs), 1)))
    order = sorted(range(len(costs)), key=lambda c: -costs[c])
    return [(c, range(k, replicates, n)) for c in order for k in range(n)]


def _run_replicates(study: _Study, cells, replicates: int):
    """Every cell's replicate outcomes, in order.  One worker per usable CPU
    (at most one per replicate) takes the next of the :func:`_pieces` as it
    becomes free; with more than one, each runs in a forked child while this
    process only waits."""
    workers = min(_usable_cpus(), len(cells) * replicates)
    # in replicates of an empty cohort; a root search costs 0.3 (log) or 1.5 (logit)
    search = {Scenario.LOG_LINK: 0.3, Scenario.LOGIT_LINK: 1.5}
    costs = [search[c.scenario] + replicates * (1.0 + 7.0 * c.f_c_target) for c in cells]
    pieces = _pieces(costs, replicates, workers)
    done = _fork_queue(lambda piece: _run_cell(study, cells[piece[0]], piece[1]), pieces, workers)
    outcomes = [[None] * replicates for _ in cells]
    for (c, reps), piece in zip(pieces, done):
        outcomes[c][reps.start :: reps.step] = piece
    return outcomes


def _cell_results(cell: ScenarioConfig, methods, outcomes, mu: float):
    """Reduce one cell's replicate outcomes, in replicate order, to one
    :class:`CellResult` per method.

    Over a method's kept replicates: the mean relative bias in percent, the
    empirical variance (``B - 1`` denominator), the MSE against ``mu``, the
    variance ratio (mean estimated variance over the empirical one; nan when
    that is zero) and the interval coverage.  A method without a variance
    (naive) has no ratio or coverage (None)."""
    results = []
    mean_cohort_size = float(np.mean([n_c for n_c, _ in outcomes]))
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
        nan = float("nan")
        if len(est) >= 2:
            e = np.asarray(est, dtype=float)
            v_emp = float(np.var(e, ddof=1))
            pct_rb = float(np.mean((e - mu) / mu) * 100.0)
            mse = float(np.mean((e - mu) ** 2))
            vr = (float(np.mean(var)) / v_emp if v_emp > 0 else nan) if var else None
            cp = float(np.mean(hits)) if hits else None
        else:
            # too few kept replicates for a variance: the row keeps its
            # counts, and every metric the method reports reads nan
            pct_rb = v_emp = mse = nan
            vr = cp = None if m is Method.NAIVE else nan
        results.append(
            CellResult(
                scenario=cell.scenario.value,
                f_c=cell.f_c_target,
                method=m.value,
                pct_rb=pct_rb,
                v_emp=v_emp,
                vr=vr,
                mse=mse,
                cp=cp,
                n_replicates=len(est),
                n_excluded=len(outcomes) - len(est),
                mean_cohort_size=mean_cohort_size,
                warning_counts=tuple(sorted(warn_counts.items())),
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
    Fewer than two ``replicates`` raise :class:`InsufficientReplicatesError`,
    and a method named twice or two cells with one :func:`_seed_key`
    :class:`PseudoweightError`, all before the population is made.  A cell
    whose root bracket fails, or an ``f_p`` outside (0, 1), raises
    :class:`CellInfeasibleError` before any replicate runs; a root search
    failing in a worker raises it once every worker has ended.

    On Linux, cells run in one forked process per usable CPU, capped at the
    number of replicates in the grid; with one CPU, or on other platforms,
    they run in this process.  The report is the same, byte for byte,
    whatever the worker count.
    """
    if replicates < 2:
        raise InsufficientReplicatesError("need at least two replicates for a variance")
    methods = _distinct_methods(methods)
    cells = [ScenarioConfig(Scenario(s), float(f_c)) for s in scenarios for f_c in f_c_grid]
    for cell in cells:
        first = next(c for c in cells if _seed_key(c) == _seed_key(cell))
        if first is not cell:
            raise PseudoweightError(f"{first} and {cell} would draw the same replicates")
    population = generate_population(population_config)
    for cell in cells:  # Brent's method checks its bracket, then stops at this tolerance
        _for_cell(cell, lambda *args: _brentq(*_intercept_equation(*args), math.inf), population)
    try:
        _, pi_p = calibrate_survey_const(population, f_p)
    except InfeasibleTargetError as exc:
        raise CellInfeasibleError(f"the survey cannot be calibrated: {exc}") from exc
    study = _Study(population, pi_p, 1.0 / pi_p, methods, base_seed)
    outcomes = _run_replicates(study, cells, replicates)
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
