import types
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from pseudoweight import (
    CohortSample,
    DomainError,
    InfeasibleTotalsError,
    Method,
    NonConvergenceError,
    SingularSystemError,
    SurveySample,
    build_pooled_matrix,
    estimators,
    fit_clw_score,
    fit_pooled_logistic,
    solvers,
)
from pseudoweight.estimators import fit_key

from oracles import score_at


def intercept_only(n_c, d_values):
    cohort = CohortSample(y=np.zeros(n_c), X=np.ones((n_c, 1)))
    survey = SurveySample(X=np.ones((len(d_values), 1)), d=np.asarray(d_values, float))
    return cohort, survey


# frozen instance solved independently by a staged grid search over
# [-5, 5]^2 (and cross-checked with a generic root finder) before the
# solver existed
GRID_POOLED_XC = np.column_stack([np.ones(4), [-1.0, 0.5, 1.5, 2.0]])
GRID_POOLED_XP = np.column_stack([np.ones(4), [-0.5, 0.0, 1.0, 2.5]])
GRID_POOLED_D = np.array([2.0, 1.5, 3.0, 2.5])
GRID_POOLED_BETA = np.array([-0.703666, -0.128728])

GRID_CLW_XC = np.column_stack([np.ones(3), [0.5, 1.0, -0.5]])
GRID_CLW_XP = np.column_stack([np.ones(5), [0.0, 1.0, 2.0, -1.0, 0.5]])
GRID_CLW_D = np.array([3.0, 2.0, 2.0, 4.0, 3.0])
GRID_CLW_GAMMA = np.array([-1.329068, 0.106346])


class TestPooledLogistic:
    def test_intercept_only_closed_form(self):
        # cohort weight 50 vs survey weight 100: p = 1/3, intercept log(1/2)
        cohort, survey = intercept_only(50, [25.0, 25.0, 25.0, 25.0])
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        assert fit.beta[0] == pytest.approx(np.log(0.5), abs=1e-9)
        np.testing.assert_allclose(fit.p_hat_cohort, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(fit.p_hat_survey, 1.0 / 3.0, atol=1e-9)

    def test_balanced_binary_covariate_gives_zero_slope(self):
        # both covariate groups carry the same cohort/survey weight ratio
        Xc = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        cohort = CohortSample(y=np.zeros(4), X=Xc)
        Xp = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        survey = SurveySample(X=Xp, d=np.array([3.0, 3.0, 3.0, 3.0]))
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        assert fit.beta[1] == pytest.approx(0.0, abs=1e-9)
        # per group: 2 (1 - p) = 6 p, so p = 1/4 and the intercept is log(1/3)
        assert fit.beta[0] == pytest.approx(np.log(1.0 / 3.0), abs=1e-9)

    def test_matches_grid_search_oracle_instance(self):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        np.testing.assert_allclose(fit.beta, GRID_POOLED_BETA, atol=1e-3)

    def test_equivalent_to_unweighted_logistic_when_weights_one(self):
        rng = np.random.default_rng(42)
        n_c, n_p = 30, 40
        Xc = np.column_stack([np.ones(n_c), rng.normal(size=n_c)])
        Xp = np.column_stack([np.ones(n_p), rng.normal(0.6, 1.0, n_p)])
        cohort = CohortSample(y=np.zeros(n_c), X=Xc)
        survey = SurveySample(X=Xp, d=np.ones(n_p))
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))

        # hand-rolled unweighted Newton on the stacked membership response
        X = np.vstack([Xc, Xp])
        R = np.concatenate([np.ones(n_c), np.zeros(n_p)])
        beta = np.zeros(2)
        for _ in range(60):
            p = expit(X @ beta)
            g = X.T @ (R - p)
            H = X.T @ ((p * (1 - p))[:, None] * X)
            beta = beta + np.linalg.solve(H, g)
        np.testing.assert_allclose(fit.beta, beta, atol=1e-8)

    def test_score_norm_path_non_increasing(self):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        path = np.array(fit.score_norm_path)
        assert np.all(np.diff(path) <= 0)
        assert fit.final_score_norm <= 1e-10

    def test_collinear_columns_raise_singular(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), 2 * np.arange(6.0)])
        cohort = CohortSample(y=np.zeros(6), X=X)
        survey = SurveySample(X=X.copy(), d=np.full(6, 2.0))
        with pytest.raises(SingularSystemError):
            fit_pooled_logistic(build_pooled_matrix(cohort, survey))

    def test_separated_data_raise(self):
        # cohort strictly above the survey on x: membership is separable
        Xc = np.column_stack([np.ones(5), np.linspace(2.0, 4.0, 5)])
        Xp = np.column_stack([np.ones(5), np.linspace(-4.0, -2.0, 5)])
        cohort = CohortSample(y=np.zeros(5), X=Xc)
        survey = SurveySample(X=Xp, d=np.ones(5))
        with pytest.raises((NonConvergenceError, SingularSystemError)):
            fit_pooled_logistic(build_pooled_matrix(cohort, survey))

    def test_iteration_cap_respected(self, monkeypatch):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        monkeypatch.setattr(solvers, "MAX_ITER", 1)
        with pytest.raises(NonConvergenceError):
            fit_pooled_logistic(build_pooled_matrix(cohort, survey))

    def test_iteration_cap_error_carries_the_last_iterate(self, monkeypatch):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        path = fit_pooled_logistic(build_pooled_matrix(cohort, survey)).score_norm_path
        assert len(path) > 3
        monkeypatch.setattr(solvers, "MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as err:
            fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        assert err.value.iterations == 2
        assert err.value.score_norm == path[2] > solvers.TOL
        s = score_at(Method.ALP, err.value.coefficients, cohort, survey)
        assert np.abs(s).max() == pytest.approx(err.value.score_norm, rel=1e-9)


def test_step_halving_exhaustion_carries_the_attempted_step():
    # the score falls from 4 to 2 on the first step, then no step lowers it
    def evaluate(x):
        return np.array([max(4.0 - x[0], 2.0)]), None

    with pytest.raises(NonConvergenceError) as err:
        solvers._damped_newton(evaluate, lambda probs: np.eye(1), 1, 4, "test")
    assert err.value.iterations == 2
    assert err.value.score_norm == 0.5
    np.testing.assert_array_equal(err.value.coefficients, [4.0])


class TestClwScore:
    def test_intercept_only_closed_form(self):
        cohort, survey = intercept_only(50, [250.0, 250.0, 250.0, 250.0])
        fit = fit_clw_score(cohort, survey)
        assert fit.beta[0] == pytest.approx(np.log(0.05 / 0.95), abs=1e-9)
        np.testing.assert_allclose(fit.p_hat_cohort, 0.05, atol=1e-9)

    def test_survey_equal_to_cohort_with_double_weights(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(6), rng.normal(size=6)])
        cohort = CohortSample(y=np.zeros(6), X=X)
        survey = SurveySample(X=X.copy(), d=np.full(6, 2.0))
        fit = fit_clw_score(cohort, survey)
        # n_c = 2 n_p pi with identical rows forces pi = 1/2 everywhere
        np.testing.assert_allclose(fit.p_hat_cohort, 0.5, atol=1e-9)
        np.testing.assert_allclose(fit.beta, 0.0, atol=1e-9)

    def test_matches_grid_search_oracle_instance(self):
        cohort = CohortSample(y=np.zeros(3), X=GRID_CLW_XC)
        survey = SurveySample(X=GRID_CLW_XP, d=GRID_CLW_D)
        fit = fit_clw_score(cohort, survey)
        np.testing.assert_allclose(fit.beta, GRID_CLW_GAMMA, atol=1e-3)

    def test_flavor_and_lambda(self):
        cohort = CohortSample(y=np.zeros(3), X=GRID_CLW_XC)
        survey = SurveySample(X=GRID_CLW_XP, d=GRID_CLW_D)
        assert fit_key(Method.CLW, cohort, survey) is Method.CLW
        assert fit_clw_score(cohort, survey).lam == 1.0

    def test_infeasible_cohort_count_raises_immediately(self):
        cohort, survey = intercept_only(5, [2.0, 2.0])
        with pytest.raises(InfeasibleTotalsError):
            fit_clw_score(cohort, survey)

    def test_infeasible_covariate_total_detected(self):
        # cohort x-total is 12 but the weighted survey can reproduce at most
        # 10 even with every probability at one
        Xc = np.column_stack([np.ones(3), np.full(3, 4.0)])
        Xp = np.column_stack([np.ones(10), np.repeat([0.0, 1.0], 5)])
        cohort = CohortSample(y=np.zeros(3), X=Xc)
        survey = SurveySample(X=Xp, d=np.full(10, 2.0))
        with pytest.raises((InfeasibleTotalsError, NonConvergenceError)):
            fit_clw_score(cohort, survey)


class TestScoreAt:
    def test_zero_at_pooled_solution(self):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        s = score_at(Method.ALP, fit.beta, cohort, survey)
        assert np.abs(s).max() <= 1e-10

    def test_zero_at_clw_solution(self):
        cohort = CohortSample(y=np.zeros(3), X=GRID_CLW_XC)
        survey = SurveySample(X=GRID_CLW_XP, d=GRID_CLW_D)
        fit = fit_clw_score(cohort, survey)
        s = score_at(Method.CLW, fit.beta, cohort, survey)
        assert np.abs(s).max() <= 1e-10

    def test_value_at_zero_coefficients_intercept_only(self):
        # p = 1/2 everywhere at zero coefficients
        cohort, survey = intercept_only(50, [25.0, 25.0, 25.0, 25.0])
        s = score_at(Method.ALP, np.zeros(1), cohort, survey)
        expected = (50 * 0.5 - 100 * 0.5) / (50 + 4)
        assert s[0] == pytest.approx(expected, abs=1e-12)

    def test_perturbation_increases_norm(self):
        cohort = CohortSample(y=np.zeros(4), X=GRID_POOLED_XC)
        survey = SurveySample(X=GRID_POOLED_XP, d=GRID_POOLED_D)
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey))
        base = np.linalg.norm(
            score_at(Method.ALP, fit.beta, cohort, survey)
        )
        for j in range(2):
            bumped = fit.beta.copy()
            bumped[j] += 0.01
            norm = np.linalg.norm(
                score_at(Method.ALP, bumped, cohort, survey)
            )
            assert norm > base

    def test_lambda_scaling_enters_pooled_score(self):
        cohort, survey = intercept_only(10, [10.0, 10.0])
        s_full = score_at(Method.ALP, np.zeros(1), cohort, survey, lam=1.0)
        s_half = score_at(Method.ALP, np.zeros(1), cohort, survey, lam=0.5)
        # halving lambda removes half the survey-side pull: + 0.5 * sum(d)/2
        assert s_full[0] == pytest.approx((10 * 0.5 - 20 * 0.5) / 12, abs=1e-12)
        assert s_half[0] == pytest.approx(s_full[0] + 0.5 * 20 * 0.5 / 12, abs=1e-12)


def square_matrices():
    """Square matrices the condition check must judge as ``np.linalg.cond``
    does: full rank, nearly singular, rank deficient and all zero."""
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    full = st.integers(1, 5).flatmap(
        lambda n: st.lists(entries, min_size=n * n, max_size=n * n).map(
            lambda v: np.array(v).reshape(n, n)
        )
    )
    scale = st.floats(1e-16, 1.0)

    def near_singular(args):
        A, s, k = args
        A = A.copy()
        A[:, k % A.shape[1]] *= s
        return A

    def duplicated(A):
        A = A.copy()
        A[:, -1] = A[:, 0]
        return A

    return st.one_of(
        full,
        st.tuples(full, scale, st.integers(0, 4)).map(near_singular),
        full.map(duplicated),
        st.integers(1, 5).map(lambda n: np.zeros((n, n))),
        st.just(np.diag([1.0, 1e-12 * (1 + 2.0**-52)])),
        st.just(np.diag([1.0, 1e-12 * (1 - 2.0**-52)])),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=square_matrices())
def test_condition_check_decides_as_numpys_cond(A):
    refused = np.linalg.cond(A) > solvers._MAX_CONDITION
    rhs = np.ones(A.shape[0])
    try:
        x = solvers._guarded_solve(A, rhs, "test system")
    except SingularSystemError as exc:
        assert refused, str(exc)
    else:
        assert not refused
        assert x.tobytes() == np.linalg.solve(A, rhs).tobytes()


@pytest.mark.parametrize("gufunc", ["svd", "solve1"])
def test_nan_from_a_gufunc_is_refused_not_a_linalg_error(monkeypatch, gufunc):
    # np.linalg raises LinAlgError where these gufuncs give NaN: an SVD that
    # does not converge, or an exact zero pivot
    real = solvers._umath_linalg
    patched = {"svd": real.svd, "solve1": real.solve1}
    patched[gufunc] = lambda *args, **kwargs: getattr(real, gufunc)(*args, **kwargs) * np.nan
    monkeypatch.setattr(solvers, "_umath_linalg", types.SimpleNamespace(**patched))
    with pytest.raises(SingularSystemError, match="test system"):
        solvers._guarded_solve(np.eye(3), np.ones(3), "test system")


#: Entries on and around the edges of the open unit interval.
EDGES = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1 - 2**-53, 1 + 2**-52]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=arrays(
        np.float64,
        st.integers(0, 6),
        elements=st.one_of(st.sampled_from(EDGES), st.floats(-0.5, 1.5, allow_subnormal=True)),
    )
)
def test_both_probability_guards_decide_as_they_did(p):
    """The one open-interval test behind the estimators' and the solvers'
    checks, against the separate tests each made before."""
    outside = np.any(p <= 0.0) or np.any(p >= 1.0) or not np.all(np.isfinite(p))
    with pytest.raises(DomainError) if p.size == 0 or outside else nullcontext():
        estimators._check_probs(p)
    saturated = p.size and not np.all((p > 0.0) & (p < 1.0))
    with pytest.raises(NonConvergenceError) if saturated else nullcontext():
        solvers._check_probabilities(p, "test")
