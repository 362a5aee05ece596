"""Property tests for the damped-Newton core shared by both propensity
systems, over small random cohort/survey pairs.

Whenever a fit returns, its scale-free score is within tolerance and its
score-norm path never rises; whenever it raises, the error is one of the
solver's own failure classes.  Examples are derandomized so the suite reads
the same cases on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoweight import (
    CohortSample,
    InfeasibleTotalsError,
    Method,
    NonConvergenceError,
    SingularSystemError,
    SurveySample,
    build_pooled_matrix,
    fit_clw_score,
    fit_pooled_logistic,
    solvers,
)

from oracles import score_at

SOLVER_ERRORS = (NonConvergenceError, SingularSystemError, InfeasibleTotalsError)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def sample_pairs(draw):
    """A cohort and a survey of 3-30 rows each, an intercept plus up to two
    normal covariates; the cohort's covariates are shifted against the
    survey's, so some pairs are (nearly) separated."""
    n_c = draw(st.integers(3, 30))
    n_p = draw(st.integers(3, 30))
    k = draw(st.integers(0, 2))
    shift = draw(st.floats(-2.0, 2.0))
    max_weight = draw(st.floats(1.0, 60.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Xc = np.column_stack([np.ones(n_c)] + [rng.normal(shift, 1.0, n_c) for _ in range(k)])
    Xp = np.column_stack([np.ones(n_p)] + [rng.normal(0.0, 1.0, n_p) for _ in range(k)])
    cohort = CohortSample(y=rng.normal(size=n_c), X=Xc)
    survey = SurveySample(X=Xp, d=rng.uniform(1.0, max_weight, n_p))
    return cohort, survey


def assert_solved(fit, method, cohort, survey, lam):
    assert np.abs(score_at(method, fit.beta, cohort, survey, lam)).max() <= solvers.TOL
    path = fit.score_norm_path
    assert all(later <= earlier for earlier, later in zip(path, path[1:]))
    assert fit.final_score_norm == path[-1]


@PROPERTY_SETTINGS
@given(pair=sample_pairs(), lam=st.floats(0.05, 2.0))
def test_pooled_fit_solves_its_score_or_raises_a_solver_error(pair, lam):
    cohort, survey = pair
    try:
        fit = fit_pooled_logistic(build_pooled_matrix(cohort, survey, lam))
    except SOLVER_ERRORS:
        return
    assert_solved(fit, Method.ALP, cohort, survey, lam)


@PROPERTY_SETTINGS
@given(pair=sample_pairs())
def test_clw_fit_solves_its_score_or_raises_a_solver_error(pair):
    cohort, survey = pair
    try:
        fit = fit_clw_score(cohort, survey)
    except SOLVER_ERRORS:
        return
    assert_solved(fit, Method.CLW, cohort, survey, 1.0)


def test_clw_divergence_reraised_as_infeasible_totals(monkeypatch):
    # the cohort's x-total (3) equals the survey's weighted x-total, so only
    # a participation probability of exactly one reproduces it: the slope
    # grows without bound and passes the divergence bound by iteration 16
    cohort = CohortSample(y=np.zeros(3), X=np.column_stack([np.ones(3), np.ones(3)]))
    survey = SurveySample(
        X=np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]]),
        d=np.array([2.0, 2.0, 1.5, 1.5]),
    )
    monkeypatch.setattr(solvers, "MAX_ITER", 16)
    with pytest.raises(InfeasibleTotalsError) as info:
        fit_clw_score(cohort, survey)
    cause = info.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    assert cause.coefficients is not None
    assert np.abs(cause.coefficients).max() > 30.0
