import functools
import math
import os

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
    Scenario,
    calibrate_participation_intercept,
    calibrate_survey_const,
    compute_metrics,
    generate_population,
    participation_probabilities,
    poisson_sample,
    run_monte_carlo,
)
from pseudoweight import estimators, simulation
from pseudoweight.simulation import FinitePopulation

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


class TestParticipationCalibration:
    def test_log_link_zero_slopes_closed_form(self):
        pop = flat_population()
        c = calibrate_participation_intercept(
            pop, Scenario.LOG_LINK, 0.07, slopes=(0.0, 0.0, 0.0, 0.0)
        )
        assert c == pytest.approx(np.log(0.07), abs=1e-9)

    def test_logit_link_zero_slopes_closed_form(self):
        pop = flat_population()
        c = calibrate_participation_intercept(
            pop, Scenario.LOGIT_LINK, 0.07, slopes=(0.0, 0.0, 0.0, 0.0)
        )
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


class TestMetrics:
    def test_exact_estimates(self):
        m = compute_metrics([4.0, 4.0], None, None, 4.0)
        assert (m.pct_rb, m.v_emp, m.mse) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        m = compute_metrics([3.0, 5.0], [2.0, 2.0], [True, True], 4.0)
        assert m.v_emp == pytest.approx(2.0)
        assert m.mse == pytest.approx(1.0)
        assert m.vr == pytest.approx(1.0)
        assert m.pct_rb == pytest.approx(0.0)

    def test_coverage_proportion(self):
        m = compute_metrics([1.0, 1.0, 1.0, 1.0], [1, 1, 1, 1], [True, False, True, True], 1.0)
        assert m.cp == pytest.approx(0.75)

    def test_insufficient_replicates(self):
        with pytest.raises(InsufficientReplicatesError):
            compute_metrics([1.0], None, None, 1.0)

    def test_mse_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            est = rng.normal(2.0, 0.5, int(rng.integers(5, 60)))
            m = compute_metrics(est, None, None, 2.0)
            B = len(est)
            bias = est.mean() - 2.0
            assert m.mse == pytest.approx(m.v_emp * (B - 1) / B + bias**2, rel=1e-10)


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

    def failing_on_second_fdw(spec, *args, **kwargs):
        if spec.method is Method.FDW:
            fdw_calls.append(spec)
            if len(fdw_calls) == 2:
                raise DesignError("injected design failure")
        return real(spec, *args, **kwargs)

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

    def all_but_the_first_fail(spec, *args, **kwargs):
        if spec.method in calls:
            calls[spec.method] += 1
            if calls[spec.method] > 1:
                raise DesignError("injected design failure")
        return real(spec, *args, **kwargs)

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
    real = simulation._fork

    def recording(*args):
        started.append(args)
        return real(*args)

    monkeypatch.setattr(simulation, "_fork", recording)
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
        ],
        ids=["2-workers", "3-workers", "8-workers", "more-cpus-than-units"],
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

        def failing_on_cohort_size(spec, fit, cohort, *args, **kwargs):
            if spec.method is Method.FDW and cohort.n_c % 5 == 0:
                raise DesignError("injected design failure")
            return real(spec, fit, cohort, *args, **kwargs)

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
        def broken(study, cell_index, rep):
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

        wait = simulation._fork(exit_in_a_child, 1)
        with pytest.raises(ChildProcessError, match="exit status 3"):
            wait()
        # the same through the share runner, with a share in this process
        with pytest.raises(ChildProcessError, match="exit status 3"):
            simulation._fork_map(exit_in_a_child, [1, 2, 3], 2)

    def test_fork_map_keeps_item_order(self, no_child_left):
        items = list(range(11))
        for workers in (1, 2, 3, 20):
            for here in (True, False):
                got = simulation._fork_map(lambda i: (i, i * i), items, workers, here)
                assert got == [(i, i * i) for i in items]
        assert simulation._fork_map(abs, [], 4) == []

    def test_uncalibratable_cell_raises_before_any_replicate(self, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran before every cell was calibrated")

        monkeypatch.setattr(simulation, "_replicate", no_replicate)
        # no intercept keeps every log-link probability below one at 99.9%
        with pytest.raises(CellInfeasibleError, match="f_c=0.999"):
            run_monte_carlo(**small_grid(scenarios=(Scenario.LOG_LINK,), f_c_grid=(0.05, 0.999)))


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
    monkeypatch.setattr(simulation, "_CPU_MAX", str(path))
    monkeypatch.setattr(
        simulation.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
    )
    assert simulation._usable_cpus() == cpus
