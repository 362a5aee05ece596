import functools
import math
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

from pseudoweight import (
    CellInfeasibleError,
    DesignError,
    DomainError,
    InfeasibleTargetError,
    InsufficientReplicatesError,
    Method,
    NonConvergenceError,
    PopulationConfig,
    PseudoweightError,
    Scenario,
    calibrate_participation_intercept,
    calibrate_survey_const,
    generate_population,
    participation_probabilities,
    poisson_sample,
    run_monte_carlo,
)
from pseudoweight import estimators, parallel, simulation, solvers
from pseudoweight.simulation import FinitePopulation, ScenarioConfig

from oracles import cell_metrics

ANALYTIC_MEAN = 3.978  # from the covariate recipe's moments


class TestPopulation:
    def test_deterministic_for_seed(self):
        a = generate_population(PopulationConfig(N=2000, seed=5))
        b = generate_population(PopulationConfig(N=2000, seed=5))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert a.mu == b.mu

    def test_different_seeds_differ(self):
        a = generate_population(PopulationConfig(N=2000, seed=5))
        b = generate_population(PopulationConfig(N=2000, seed=6))
        assert not np.array_equal(a.y, b.y)

    def test_mean_matches_analytic_moments(self):
        pop = generate_population(PopulationConfig(N=50_000, seed=123))
        se = pop.y.std(ddof=1) / np.sqrt(pop.N)
        assert abs(pop.mu - ANALYTIC_MEAN) < 3 * se

    def test_intercept_column_and_shapes(self):
        pop = generate_population(PopulationConfig(N=1500, seed=1))
        assert pop.X.shape == (1500, 5)
        assert np.all(pop.X[:, 0] == 1.0)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(N=10, seed=0)


def flat_population(N=4000, seed=9):
    # convenience: a real generated population for calibration tests
    return generate_population(PopulationConfig(N=N, seed=seed))


def covariate_free_population(N=4000):
    """A population whose non-intercept covariates are all zero, so every
    unit's participation rate is the link of the intercept alone."""
    X = np.column_stack([np.ones(N), np.zeros((N, 4))])
    return FinitePopulation(X=X, y=np.zeros(N), mu=0.0)


class TestParticipationCalibration:
    def test_log_link_zero_slopes_closed_form(self):
        c = calibrate_participation_intercept(covariate_free_population(), Scenario.LOG_LINK, 0.07)
        assert c == pytest.approx(np.log(0.07), abs=1e-9)

    def test_logit_link_zero_slopes_closed_form(self):
        pop = covariate_free_population()
        c = calibrate_participation_intercept(pop, Scenario.LOGIT_LINK, 0.07)
        assert c == pytest.approx(np.log(0.07 / 0.93), abs=1e-9)

    @pytest.mark.parametrize("scenario", [Scenario.LOG_LINK, Scenario.LOGIT_LINK])
    @pytest.mark.parametrize("f_c", [0.005, 0.05, 0.2])
    def test_reevaluation_oracle(self, scenario, f_c):
        pop = flat_population()
        c = calibrate_participation_intercept(pop, scenario, f_c)
        pi = participation_probabilities(pop, scenario, c)
        assert abs(pi.sum() / pop.N - f_c) < 1e-8
        assert pi.max() < 1.0

    def test_log_link_infeasible_target(self):
        pop = flat_population()
        # a mean this close to one cannot be reached with every probability
        # strictly below one under the log link
        with pytest.raises(InfeasibleTargetError):
            calibrate_participation_intercept(pop, Scenario.LOG_LINK, 0.999)


def test_bracket_check_values_are_not_evaluated_again(monkeypatch):
    """The bracket check the study runs before forking fills the cell's two
    ends, so its root search reads them back; the root keeps its bits."""
    pop = flat_population()
    args = pop, Scenario.LOGIT_LINK, 0.05
    simulation._brentq(*simulation._intercept_equation(*args), math.inf)
    assert list(pop.link_means) == [Scenario.LOGIT_LINK]
    means = pop.link_means[Scenario.LOGIT_LINK]
    assert sorted(means) == [-40.0, 40.0]

    evaluated = []

    def counting_expit(x):
        evaluated.append(x)
        return expit(x)

    monkeypatch.setattr(simulation, "expit", counting_expit)
    got = calibrate_participation_intercept(*args)
    # one link evaluation per intercept the search added, none at the ends
    assert evaluated and len(evaluated) == len(means) - 2
    monkeypatch.undo()
    cold = calibrate_participation_intercept(flat_population(), Scenario.LOGIT_LINK, 0.05)
    assert float(got).hex() == float(cold).hex()


@pytest.mark.parametrize("scenario", [Scenario.LOG_LINK, Scenario.LOGIT_LINK])
def test_participation_probabilities_read_the_root_search_memo(scenario):
    """The probabilities take the linear predictor the root search made,
    and their bits are those of the direct product; made first, by the
    probabilities, the predictor gives the search the same root."""
    pop = flat_population()
    c = calibrate_participation_intercept(pop, scenario, 0.05)
    eta = pop.eta
    pi = participation_probabilities(pop, scenario, c)
    assert pop.eta is eta and list(pop.link_means) == [scenario]
    direct = pop.X[:, 1:] @ np.asarray(simulation.PARTICIPATION_SLOPES, dtype=float)
    link = np.exp if scenario is Scenario.LOG_LINK else expit
    assert pi.tobytes() == link(c + direct).tobytes()

    fresh = flat_population()
    assert participation_probabilities(fresh, scenario, c).tobytes() == pi.tobytes()
    assert fresh.link_means == {}
    assert calibrate_participation_intercept(fresh, scenario, 0.05) == c


class CountingProducts(np.ndarray):
    """A covariate matrix that counts the matrix products taken of it."""

    products = 0

    def __matmul__(self, other):
        CountingProducts.products += 1
        return np.asarray(self) @ other


def test_one_linear_predictor_per_population(monkeypatch):
    """Both scenarios' bracket checks, root searches and probabilities
    share one ``X[:, 1:] @ PARTICIPATION_SLOPES`` product per population,
    with the roots and probabilities of a plain one."""
    monkeypatch.setattr(CountingProducts, "products", 0)
    plain = flat_population()
    pop = FinitePopulation(X=plain.X.view(CountingProducts), y=plain.y, mu=plain.mu)
    for scenario in Scenario:
        args = pop, scenario, 0.05
        simulation._brentq(*simulation._intercept_equation(*args), math.inf)
        c = calibrate_participation_intercept(*args)
        cold = calibrate_participation_intercept(plain, scenario, 0.05)
        assert float(c).hex() == float(cold).hex()
        pi = participation_probabilities(pop, scenario, c)
        assert pi.tobytes() == participation_probabilities(plain, scenario, c).tobytes()
    assert CountingProducts.products == 1
    assert list(pop.link_means) == list(Scenario)


# The in-package root finder is checked against scipy's brentq, the
# function it ports, as an oracle.  Examples are derandomized so the suite
# reads the same cases on every run.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

#: Test functions and their roots.
SHAPES = {
    "affine": (lambda x: x, 0.0),
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0945514815423265),
    "tanh": (math.tanh, 0.0),
    "exp": (lambda x: math.exp(x) - 3.0, math.log(3.0)),
    # flat near the root, then steep: interpolation often fails here
    "ninth-power": (lambda x: x**9, 0.0),
    "tenth-root": (lambda x: math.copysign(abs(x) ** 0.1, x), 0.0),
}


@functools.lru_cache(maxsize=None)
def calibration_population():
    return generate_population(PopulationConfig(N=2000, seed=11))


def calibration_eta():
    return calibration_population().X[:, 1:] @ np.asarray(simulation.PARTICIPATION_SLOPES)


def calibration_function(scenario, f_c):
    """The mean-rate residual ``calibrate_participation_intercept`` solves."""
    eta = calibration_eta()
    link = np.exp if scenario is Scenario.LOG_LINK else expit
    return lambda c: link(c + eta).sum() / eta.size - f_c


def outcome(solve):
    """The root as its exact bits, or the kind of failure."""
    try:
        return float(solve()).hex()
    except (ValueError, RuntimeError, NonConvergenceError) as exc:
        message = str(exc)
        if "NaN" in message:
            return "nan"
        if "different signs" in message:
            return "same-sign"
        return "no-convergence"


class TestBrentRootFinder:
    @PROPERTY_SETTINGS
    @given(
        shape=st.sampled_from(sorted(SHAPES) + ["log-calibration", "logit-calibration"]),
        shift=st.floats(-10.0, 10.0),
        scale=st.floats(0.1, 10.0),
        below=st.floats(-2.0, 30.0),
        above=st.floats(-2.0, 30.0),
        swap=st.booleans(),
        xtol_exponent=st.floats(-15.0, -1.0),
    )
    def test_matches_scipy_brentq_bit_for_bit(
        self, shape, shift, scale, below, above, swap, xtol_exponent
    ):
        # the bracket reaches `below` under the root and `above` over it;
        # a negative reach leaves both ends on one side
        if shape.endswith("-calibration"):
            scenario = Scenario.LOG_LINK if shape.startswith("log-") else Scenario.LOGIT_LINK
            f_c = scale / 20.0
            f = calibration_function(scenario, f_c)
            # the log link's root, near the logit link's for small rates
            root = math.log(f_c) - math.log(np.exp(calibration_eta()).mean())
        else:
            base, base_root = SHAPES[shape]
            f = lambda x: scale * base(x - shift)  # noqa: E731
            root = shift + base_root
        a, b = root - below, root + above
        if swap:
            a, b = b, a
        xtol = 10.0**xtol_exponent
        expected = outcome(lambda: brentq(f, a, b, xtol=xtol))
        assert outcome(lambda: simulation._brentq(f, a, b, xtol)) == expected

    @pytest.mark.parametrize(
        "shift, a, b, xtol",
        [(0.0, -20.0, 16.0, 1e-4), (0.0, -12.0, 5.0, 1e-10), (1.5, -9.0, 20.0, 0.1)],
        ids=["tiny-previous-step", "converges-on-the-last-iteration", "interpolation-step-bound"],
    )
    def test_matches_scipy_brentq_on_a_ninth_power(self, shift, a, b, xtol):
        # cases in which the property's draws rarely land: each takes a
        # branch of the step choice, or the iteration cap, at its edge
        def f(x):
            return x**9 - shift

        assert outcome(lambda: simulation._brentq(f, a, b, xtol)) == outcome(
            lambda: brentq(f, a, b, xtol=xtol)
        )

    @pytest.mark.parametrize("scenario", [Scenario.LOG_LINK, Scenario.LOGIT_LINK])
    @pytest.mark.parametrize("f_c", [0.001, 0.005, 0.05, 0.2, 0.5])
    def test_calibrated_intercept_is_brentqs(self, scenario, f_c):
        pop = calibration_population()
        f = calibration_function(scenario, f_c)
        eta = calibration_eta()
        if scenario is Scenario.LOG_LINK:
            hi = -eta.max() - 1e-9
            lo = hi - 40.0
        else:
            lo, hi = -40.0, 40.0
        try:
            expected = brentq(f, lo, hi, xtol=1e-13)
        except ValueError:
            # the log link cannot reach a mean of one half below one
            with pytest.raises(InfeasibleTargetError):
                calibrate_participation_intercept(pop, scenario, f_c)
            return
        got = calibrate_participation_intercept(pop, scenario, f_c)
        assert float(got).hex() == float(expected).hex()

    def test_nan_value_raises(self):
        with pytest.raises(NonConvergenceError, match="intercept calibration failed: .*NaN"):
            simulation._brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-13)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(NonConvergenceError, match="intercept calibration failed: .*signs"):
            simulation._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13)

    def test_iteration_cap_raises(self):
        # a step at a tiny positive root: only bisection applies, and a
        # tolerance of 1e-300 needs far more than the cap's 100 halvings
        def step(x):
            return -1.0 if x < 1e-200 else 1.0

        with pytest.raises(RuntimeError):
            brentq(step, -1.0, 1.0, xtol=1e-300)
        with pytest.raises(NonConvergenceError, match="intercept calibration failed: .*100"):
            simulation._brentq(step, -1.0, 1.0, 1e-300)

    def test_root_at_a_bracket_end_is_returned(self):
        assert simulation._brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-13) == 2.0
        assert simulation._brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-13) == 5.0


class TestSurveyCalibration:
    def test_ratio_reproduced(self):
        pop = flat_population()
        const, pi_p = calibrate_survey_const(pop, 0.025)
        q = const + pop.X[:, 3] + 0.03 * pop.y
        assert q.max() / q.min() == pytest.approx(20.0, abs=1e-6)
        assert np.all(pi_p > 0) and pi_p.max() <= 1.0

    def test_full_scale_ratio_and_validity(self):
        # at full scale the heavy covariate tails force a positive constant;
        # the operative contract is the exact weight-ratio target and valid
        # inclusion probabilities
        pop = generate_population(PopulationConfig(N=500_000, seed=77))
        const, pi_p = calibrate_survey_const(pop, 0.025)
        q = const + pop.X[:, 3] + 0.03 * pop.y
        assert q.max() / q.min() == pytest.approx(20.0, abs=1e-6)
        assert q.min() > 0
        assert pi_p.max() <= 1.0

    def test_degenerate_spread_rejected(self):
        X = np.column_stack([np.ones(1200)] * 5)
        pop = FinitePopulation(X=X, y=np.zeros(1200), mu=0.0)
        with pytest.raises(InfeasibleTargetError):
            calibrate_survey_const(pop, 0.025)

    def test_expected_sample_size(self):
        pop = flat_population(N=20_000)
        _, pi_p = calibrate_survey_const(pop, 0.025)
        assert pi_p.sum() == pytest.approx(0.025 * pop.N, rel=1e-9)

    @pytest.mark.parametrize("f_p", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_fraction_outside_the_unit_interval_rejected(self, f_p):
        # a fraction of 1.5 would otherwise clip two thirds of these units to certainty
        pop = flat_population(N=3000)
        with pytest.raises(InfeasibleTargetError, match=r"sampling fraction must lie in \(0, 1\)"):
            calibrate_survey_const(pop, f_p)


class TestPoissonSampling:
    def test_certainty_selects_all(self):
        idx = poisson_sample(np.ones(100), seed=4)
        assert len(idx) == 100

    def test_count_within_binomial_bounds(self):
        idx = poisson_sample(np.full(100_000, 0.5), seed=4)
        sigma = np.sqrt(100_000 * 0.25)
        assert abs(len(idx) - 50_000) < 5 * sigma

    def test_deterministic_given_seed(self):
        p = np.full(5000, 0.2)
        assert np.array_equal(poisson_sample(p, seed=11), poisson_sample(p, seed=11))

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            poisson_sample(np.array([0.0, 0.5]), seed=1)
        with pytest.raises(DomainError):
            poisson_sample(np.array([1.1]), seed=1)

    def test_nan_probability_rejected(self):
        with pytest.raises(DomainError):
            poisson_sample(np.array([0.5, np.nan, 1.0]), seed=0)


def reduced(estimates, variances=None, hits=None, mu=4.0, excluded=0):
    """The :class:`CellResult` a cell reduces to for one method whose kept
    replicates give ``estimates``, with ``variances`` and interval ``hits``
    (an ``alp`` row), or none (a ``naive`` row), after ``excluded`` replicates
    that raised."""
    method = Method.NAIVE if variances is None else Method.ALP
    outcomes = [(50, ("NonConvergenceError",))] * excluded
    for i, est in enumerate(estimates):
        if variances is None:
            outcomes.append((50, ((est, None, None, None, ()),)))
        else:
            lo = mu - 1.0 if hits[i] else mu + 1.0  # an interval holding mu, or one above it
            outcomes.append((50, ((est, variances[i], lo, lo + 2.0, ()),)))
    cell = ScenarioConfig(Scenario.LOG_LINK, 0.05)
    (row,) = simulation._cell_results(cell, (method,), outcomes, mu)
    return row


def metrics_of(row):
    return {k: getattr(row, k) for k in ("pct_rb", "v_emp", "mse", "vr", "cp")}


class TestMetrics:
    def test_exact_estimates(self):
        for m in (metrics_of(reduced([4.0, 4.0])), cell_metrics([4.0, 4.0], None, None, 4.0)):
            assert (m["pct_rb"], m["v_emp"], m["mse"]) == (0.0, 0.0, 0.0)
            assert m["vr"] is None and m["cp"] is None

    def test_hand_arithmetic(self):
        args = [3.0, 5.0], [2.0, 2.0], [True, True], 4.0
        for m in (metrics_of(reduced(*args)), cell_metrics(*args)):
            assert m["v_emp"] == pytest.approx(2.0)
            assert m["mse"] == pytest.approx(1.0)
            assert m["vr"] == pytest.approx(1.0)
            assert m["pct_rb"] == pytest.approx(0.0)
            assert m["cp"] == 1.0

    def test_coverage_proportion(self):
        args = [1.0, 1.0, 1.0, 1.0], [1, 1, 1, 1], [True, False, True, True], 1.0
        for m in (metrics_of(reduced(*args)), cell_metrics(*args)):
            assert m["cp"] == pytest.approx(0.75)
            assert math.isnan(m["vr"])  # no empirical variance to compare with

    def test_insufficient_replicates(self):
        # one kept replicate leaves the row its counts and nan metrics
        naive = reduced([1.0], mu=1.0, excluded=2)
        assert (naive.n_replicates, naive.n_excluded) == (1, 2)
        assert all(math.isnan(getattr(naive, k)) for k in ("pct_rb", "v_emp", "mse"))
        assert naive.vr is None and naive.cp is None
        alp = reduced([1.0], [1.0], [True], mu=1.0)
        assert all(math.isnan(v) for v in metrics_of(alp).values())
        with pytest.raises(InsufficientReplicatesError):
            run_monte_carlo(PopulationConfig(N=2000, seed=1), replicates=1)

    def test_mse_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            est = rng.normal(2.0, 0.5, int(rng.integers(5, 60))).tolist()
            m = reduced(est, mu=2.0)
            B = len(est)
            bias = np.mean(est) - 2.0
            assert m.mse == pytest.approx(m.v_emp * (B - 1) / B + bias**2, rel=1e-10)

    def test_rows_match_the_metric_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            B = int(rng.integers(2, 40))
            est = rng.normal(2.0, 0.5, B).tolist()
            var = rng.uniform(0.1, 0.5, B).tolist()
            hits = (rng.random(B) < 0.9).tolist()
            excluded = int(rng.integers(0, 3))
            row = reduced(est, var, hits, mu=2.0, excluded=excluded)
            assert (row.n_replicates, row.n_excluded) == (B, excluded)
            got, want = metrics_of(row), cell_metrics(est, var, hits, 2.0)
            assert got == pytest.approx(want, rel=1e-12)
            assert metrics_of(reduced(est, mu=2.0)) == pytest.approx(
                cell_metrics(est, None, None, 2.0), rel=1e-12
            )


@pytest.fixture(scope="module")
def small_report():
    return run_monte_carlo(
        PopulationConfig(N=4000, seed=17),
        scenarios=(Scenario.LOG_LINK,),
        f_c_grid=(0.05,),
        methods=(Method.NAIVE, Method.TW, Method.ALP, Method.CLW),
        replicates=30,
        base_seed=5,
    )


class TestMonteCarlo:

    def test_report_structure(self, small_report):
        assert len(small_report.cells) == 4
        methods = [c.method for c in small_report.cells]
        assert methods == ["naive", "tw", "alp", "clw"]
        for cell in small_report.cells:
            assert cell.n_replicates + cell.n_excluded == 30
            assert cell.mean_cohort_size == pytest.approx(0.05 * 4000, rel=0.25)

    def test_naive_metrics_have_no_vr_cp(self, small_report):
        naive = small_report.cells[0]
        assert naive.vr is None and naive.cp is None
        alp = small_report.cells[2]
        assert alp.vr is not None and 0.0 <= alp.cp <= 1.0

    def test_rerun_is_identical(self, small_report):
        again = run_monte_carlo(
            PopulationConfig(N=4000, seed=17),
            scenarios=(Scenario.LOG_LINK,),
            f_c_grid=(0.05,),
            methods=(Method.NAIVE, Method.TW, Method.ALP, Method.CLW),
            replicates=30,
            base_seed=5,
        )
        for a, b in zip(small_report.cells, again.cells):
            assert a == b

    def test_naive_is_biased_downward(self, small_report):
        assert small_report.cells[0].pct_rb < -30


def test_package_error_in_one_estimate_excludes_only_that_replicate(monkeypatch):
    # counts calls in this process, so the replicates must run here too
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    study = dict(
        population_config=PopulationConfig(N=4000, seed=17),
        scenarios=(Scenario.LOG_LINK,),
        f_c_grid=(0.05,),
        methods=(Method.NAIVE, Method.TW, Method.ALP, Method.FDW, Method.CLW),
        replicates=6,
        base_seed=5,
    )
    baseline = run_monte_carlo(**study)
    assert all(c.n_excluded == 0 for c in baseline.cells)

    real = estimators.estimate_from_fit
    fdw_calls = []

    def failing_on_second_fdw(method, *args, **kwargs):
        if method is Method.FDW:
            fdw_calls.append(method)
            if len(fdw_calls) == 2:
                raise DesignError("injected design failure")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(estimators, "estimate_from_fit", failing_on_second_fdw)
    report = run_monte_carlo(**study)

    assert len(fdw_calls) == 6
    for before, after in zip(baseline.cells, report.cells):
        if after.method == "fdw":
            assert after.n_excluded == 1
            assert after.n_replicates + after.n_excluded == 6
        else:
            # alp shares fdw's fit and must not lose its replicate
            assert after == before


@pytest.mark.parametrize("gufunc", ["svd", "solve1"])
def test_failed_linear_solve_excludes_only_that_replicate(monkeypatch, gufunc):
    # the first guarded solve is alp's first Newton step in replicate 0; an
    # SVD that does not converge or an exact zero pivot gives NaN there
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    study = dict(
        population_config=PopulationConfig(N=4000, seed=17),
        scenarios=(Scenario.LOG_LINK,),
        f_c_grid=(0.05,),
        methods=(Method.NAIVE, Method.ALP, Method.CLW),
        replicates=4,
        base_seed=5,
    )
    baseline = run_monte_carlo(**study)
    real = solvers._umath_linalg
    calls = []

    def nan_on_first_call(*args, **kwargs):
        calls.append(args)
        out = getattr(real, gufunc)(*args, **kwargs)
        return out * np.nan if len(calls) == 1 else out

    patched = {"svd": real.svd, "solve1": real.solve1, gufunc: nan_on_first_call}
    monkeypatch.setattr(solvers, "_umath_linalg", types.SimpleNamespace(**patched))
    naive, alp, clw = run_monte_carlo(**study).cells

    assert len(calls) > 1
    assert (alp.n_replicates, alp.n_excluded) == (3, 1)
    assert (naive, clw) == (baseline.cells[0], baseline.cells[2])


@pytest.mark.parametrize("replicates", [1, 0, -3])
def test_too_few_replicates_raise_before_the_population(monkeypatch, replicates):
    def no_population(config):
        raise AssertionError("the population was generated")

    monkeypatch.setattr(simulation, "generate_population", no_population)
    with pytest.raises(InsufficientReplicatesError, match="at least two replicates"):
        run_monte_carlo(PopulationConfig(N=4000, seed=17), replicates=replicates)


def test_method_left_with_one_replicate_reports_nan_metrics(monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    study = dict(
        population_config=PopulationConfig(N=4000, seed=17),
        scenarios=(Scenario.LOG_LINK,),
        f_c_grid=(0.05,),
        methods=(Method.NAIVE, Method.ALP, Method.FDW),
        replicates=4,
        base_seed=5,
    )
    baseline = run_monte_carlo(**study)

    real = estimators.estimate_from_fit
    calls = {Method.NAIVE: 0, Method.FDW: 0}

    def all_but_the_first_fail(method, *args, **kwargs):
        if method in calls:
            calls[method] += 1
            if calls[method] > 1:
                raise DesignError("injected design failure")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(estimators, "estimate_from_fit", all_but_the_first_fail)
    naive, alp, fdw = run_monte_carlo(**study).cells

    assert alp == baseline.cells[1]
    for cell in (naive, fdw):
        assert (cell.n_replicates, cell.n_excluded) == (1, 3)
        assert cell.mean_cohort_size == baseline.cells[0].mean_cohort_size
        assert all(math.isnan(v) for v in (cell.pct_rb, cell.v_emp, cell.mse))
    # naive reports no variance, so its vr and cp stay empty
    assert naive.vr is None and naive.cp is None
    assert math.isnan(fdw.vr) and math.isnan(fdw.cp)


def small_grid(**overrides):
    study = dict(
        population_config=PopulationConfig(N=4000, seed=17),
        scenarios=(Scenario.LOG_LINK, Scenario.LOGIT_LINK),
        f_c_grid=(0.05, 0.2),
        replicates=3,
        base_seed=5,
    )
    study.update(overrides)
    return study


@pytest.fixture
def forks(monkeypatch):
    """One entry for every child the engine forks."""
    started = []
    real = parallel._fork

    def recording(*args):
        started.append(args)
        return real(*args)

    monkeypatch.setattr(parallel, "_fork", recording)
    return started


def run_on_cpus(monkeypatch, cpus, study):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    return run_monte_carlo(**study)


class TestReplicateEngine:
    @pytest.mark.parametrize(
        "cpus, overrides, children",
        [
            (2, {}, 2),
            (3, {}, 3),
            (8, {}, 8),
            # a one-cell grid of 2 replicates has fewer units than CPUs
            (8, dict(scenarios=(Scenario.LOG_LINK,), f_c_grid=(0.05,), replicates=2), 2),
            # 2 cells on 3 CPUs: the costlier cell's replicates are split
            (3, dict(scenarios=(Scenario.LOG_LINK,)), 3),
        ],
        ids=["2-workers", "3-workers", "8-workers", "more-cpus-than-units", "split-cell"],
    )
    def test_report_is_identical_for_any_worker_count(
        self, monkeypatch, forks, no_child_left, cpus, overrides, children
    ):
        study = small_grid(**overrides)
        serial = run_on_cpus(monkeypatch, 1, study)
        assert forks == []
        assert repr(run_on_cpus(monkeypatch, cpus, study)) == repr(serial)
        # the calling process only waits: every share runs in a child
        assert len(forks) == children

    def test_injected_failure_excludes_the_same_replicates(
        self, monkeypatch, forks, no_child_left
    ):
        # keyed on the replicate's content, which a forked worker sees too
        real = estimators.estimate_from_fit

        def failing_on_cohort_size(method, fit, cohort, *args, **kwargs):
            if method is Method.FDW and cohort.n_c % 5 == 0:
                raise DesignError("injected design failure")
            return real(method, fit, cohort, *args, **kwargs)

        monkeypatch.setattr(estimators, "estimate_from_fit", failing_on_cohort_size)
        study = small_grid(replicates=4)
        serial = run_on_cpus(monkeypatch, 1, study)
        parallel = run_on_cpus(monkeypatch, 2, study)

        assert len(forks) == 2
        assert repr(parallel) == repr(serial)
        excluded = {c.method: 0 for c in serial.cells}
        for cell in serial.cells:
            excluded[cell.method] += cell.n_excluded
        assert excluded.pop("fdw") > 0
        assert set(excluded.values()) == {0}

    def test_error_in_a_worker_is_raised_after_every_child_ends(
        self, monkeypatch, forks, no_child_left
    ):
        # an error that is not a package error stops the study, as it would
        # in one process; the worker's exception comes back pickled
        def broken(*args):
            raise RuntimeError(f"injected in process {os.getpid()}")

        monkeypatch.setattr(simulation, "_replicate", broken)
        with pytest.raises(RuntimeError, match="injected in process") as info:
            run_on_cpus(monkeypatch, 2, small_grid())
        assert len(forks) == 2
        assert str(os.getpid()) not in str(info.value)

    def test_child_that_exits_without_a_result_raises(self, no_child_left):
        parent = os.getpid()

        def exit_in_a_child(item):
            if os.getpid() != parent:
                os._exit(3)
            return item

        wait = parallel._fork(exit_in_a_child, 1)
        with pytest.raises(ChildProcessError, match="exit status 3"):
            wait()
        # the same through the share runner, with a share in this process
        with pytest.raises(ChildProcessError, match="exit status 3"):
            parallel._fork_map(exit_in_a_child, [1, 2, 3], 2)

    def test_fork_map_keeps_item_order(self, no_child_left):
        items = list(range(11))
        for workers in (1, 2, 3, 20):
            for here in (True, False):
                got = parallel._fork_map(lambda i: (i, i * i), items, workers, here)
                assert got == [(i, i * i) for i in items]
        assert parallel._fork_map(abs, [], 4) == []

    def test_fork_queue_runs_each_item_once_in_a_child(self, no_child_left):
        parent, items = os.getpid(), list(range(11))
        for workers in (1, 2, 3, 20):
            got = parallel._fork_queue(lambda i: (i * i, os.getpid()), items, workers)
            assert [square for square, _ in got] == [i * i for i in items]
            pids = {pid for _, pid in got}
            assert pids == {parent} if workers == 1 else parent not in pids
        # a failing item stops only its child; the error comes after every child ends
        with pytest.raises(ZeroDivisionError):
            parallel._fork_queue(lambda i: 1 / (i - 3), items, 3)

    def test_uncalibratable_cell_raises_before_any_replicate(self, monkeypatch, forks):
        def no_replicate(*args):
            raise AssertionError("a replicate ran before every cell was calibrated")

        monkeypatch.setattr(simulation, "_replicate", no_replicate)
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
        # no intercept keeps every log-link probability below one at 99.9%
        with pytest.raises(CellInfeasibleError, match="f_c=0.999"):
            run_monte_carlo(**small_grid(scenarios=(Scenario.LOG_LINK,), f_c_grid=(0.05, 0.999)))
        assert forks == []

    def test_root_search_failing_in_a_worker_names_its_cell(
        self, monkeypatch, forks, no_child_left
    ):
        # the bracket holds, so only the worker's root search finds the fault
        real = simulation.calibrate_participation_intercept
        parent = os.getpid()

        def failing_for_one_cell(population, scenario, f_c):
            if scenario is Scenario.LOGIT_LINK and f_c == 0.05 and os.getpid() != parent:
                raise NonConvergenceError("injected in a worker")
            return real(population, scenario, f_c)

        monkeypatch.setattr(simulation, "calibrate_participation_intercept", failing_for_one_cell)
        with pytest.raises(CellInfeasibleError, match=r"cell \(logit, f_c=0.05\) .*in a worker"):
            run_on_cpus(monkeypatch, 2, small_grid())
        assert len(forks) == 2


WHOLE = range(5)


@pytest.mark.parametrize(
    "costs, replicates, workers, expected",
    [
        # no more workers than cells: whole cells, costliest first
        ([1.0, 4.0, 2.0, 3.0], 5, 1, [(1, WHOLE), (3, WHOLE), (2, WHOLE), (0, WHOLE)]),
        ([1.0, 4.0, 2.0, 3.0], 5, 4, [(1, WHOLE), (3, WHOLE), (2, WHOLE), (0, WHOLE)]),
        # more workers than cells: every cell cut into interleaved replicates
        (
            [1.0, 4.0],
            5,
            3,
            [(1, range(0, 5, 2)), (1, range(1, 5, 2)), (0, range(0, 5, 2)), (0, range(1, 5, 2))],
        ),
        (
            [1.0, 4.0],
            5,
            8,
            [(1, range(k, 5, 4)) for k in range(4)] + [(0, range(k, 5, 4)) for k in range(4)],
        ),
        # never into more pieces than a cell has replicates
        ([1.0, 9.0], 2, 6, [(c, range(k, 2, 2)) for c in (1, 0) for k in range(2)]),
        # an empty grid has no pieces, whatever the worker count
        ([], 5, 0, []),
    ],
    ids=[
        "one-worker", "4-workers-4-cells", "3-workers-2-cells", "8-workers-2-cells", "capped",
        "no-cells",
    ],
)
def test_pieces_are_whole_cells_unless_workers_outnumber_them(costs, replicates, workers, expected):
    pieces = simulation._pieces(costs, replicates, workers)
    assert pieces == expected
    # every replicate of every cell is in exactly one piece
    covered = sorted((c, rep) for c, reps in pieces for rep in reps)
    assert covered == [(c, rep) for c in range(len(costs)) for rep in range(replicates)]


def test_repeated_method_is_rejected_before_the_population_is_made(monkeypatch):
    made = []
    monkeypatch.setattr(simulation, "generate_population", made.append)
    study = small_grid(methods=("alp", Method.FDW, Method.ALP))
    with pytest.raises(PseudoweightError, match="method 'alp' is requested more than once") as info:
        run_monte_carlo(**study)
    assert type(info.value) is PseudoweightError
    assert made == []


@pytest.mark.parametrize(
    "overrides, first, second",
    [
        (dict(scenarios=("log",), f_c_grid=(0.05, 0.05)), 0.05, 0.05),
        (dict(scenarios=("log", "log")), 0.05, 0.05),
        (dict(scenarios=("log",), f_c_grid=(0.05, 0.05004)), 0.05, 0.05004),
    ],
    ids=["repeated-rate", "repeated-scenario", "rates-one-seed-key-apart"],
)
def test_cells_with_one_seed_key_are_rejected_before_the_population(
    monkeypatch, overrides, first, second
):
    # such cells would draw the same replicates and write the same rows
    made = []
    monkeypatch.setattr(simulation, "generate_population", made.append)
    with pytest.raises(PseudoweightError) as info:
        run_monte_carlo(**small_grid(**overrides))
    assert type(info.value) is PseudoweightError
    assert str(info.value) == (
        f"cell (log, f_c={first}) and cell (log, f_c={second}) would draw the same replicates"
    )
    assert made == []


@pytest.mark.parametrize("f_p", [0.0, 1.5, math.nan])
@pytest.mark.parametrize("overrides", [{}, dict(f_c_grid=())], ids=["default-grid", "no-cells"])
def test_survey_fraction_outside_the_unit_interval_is_rejected(monkeypatch, f_p, overrides):
    def no_replicate(*args):
        raise AssertionError("a replicate ran before the survey was calibrated")

    monkeypatch.setattr(simulation, "_replicate", no_replicate)
    study = dict(population_config=PopulationConfig(N=3000, seed=17), replicates=3, f_p=f_p)
    with pytest.raises(CellInfeasibleError) as info:
        run_monte_carlo(**study, **overrides)
    assert str(info.value) == (
        "the survey cannot be calibrated: survey sampling fraction must lie in (0, 1)"
    )


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "overrides",
    [dict(f_c_grid=()), dict(scenarios=()), dict(methods=())],
    ids=["no-f_c", "no-scenarios", "no-methods"],
)
def test_grid_without_cells_or_methods_gives_an_empty_report(monkeypatch, cpus, overrides):
    report = run_on_cpus(monkeypatch, cpus, small_grid(**overrides))
    assert report.cells == ()
    assert report.n_replicates == 3


@pytest.mark.parametrize(
    "content, cpus",
    [
        ("max 100000\n", 8),
        ("200000 100000\n", 2),
        ("150000 100000\n", 2),
        ("50000 100000\n", 1),
        ("800000 100000\n", 8),
        ("max\n", 8),
        ("100000 0\n", 8),
        ("garbage\n", 8),
        ("\xff\n", 8),
        (None, 8),
    ],
)
def test_usable_cpus_capped_by_cgroup_quota(tmp_path, monkeypatch, content, cpus):
    path = tmp_path / "cpu.max"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    monkeypatch.setattr(parallel, "_CPU_MAX", str(path))
    monkeypatch.setattr(
        parallel.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
    )
    assert parallel._usable_cpus() == cpus
