"""Estimating-equation solvers for the two propensity systems.

Both systems are solved on the unnormalized score (sums, not means), but the
convergence tolerance :data:`TOL` is applied to the score divided by the
total number of pooled rows, so that it is scale free.  A fit takes at most
:data:`MAX_ITER` Newton steps.

The pooled membership system,

    sum_cohort w (1 - p) x  -  sum_survey w p x  =  0,   p = expit(beta . x),

is the score of a weighted logistic regression of the membership indicator
on the covariates.  The participation-rate system,

    sum_cohort x  -  sum_survey d pi x  =  0,   pi = expit(gamma . x),

is *not* a logistic score: its Jacobian sums over the survey side only.
Both are solved by one damped Newton loop, :func:`_damped_newton`, which
takes the system's score and Jacobian and halves each step until the score
max-norm decreases, so the norm is non-increasing across accepted iterates.
Every fit starts from zero coefficients, where each fitted probability is
one half.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.special import expit

from .errors import InfeasibleTotalsError, NonConvergenceError, SingularSystemError
from .samples import CohortSample, PooledMatrix, PropensityFit, SurveySample

# Beyond this coefficient magnitude the fitted probabilities are saturated;
# continued growth means the score cannot be zeroed (infeasible totals).
_DIVERGENCE_BOUND = 30.0
_MAX_CONDITION = 1e12
_STEP_HALVING_MAX = 20
#: Bound on the max-norm of the score divided by the pooled row count.
TOL = 1e-10
#: Bound on the number of Newton steps.
MAX_ITER = 50


def _guarded_solve(A: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    """Solve ``A x = rhs``, refusing non-finite or rank-deficient systems
    rather than falling back to a pseudo-inverse.  ``label`` names the
    system in the error message.  It calls ``np.linalg``'s own gufuncs, so
    the bits are the same; their NaN, where ``np.linalg`` raises, is refused."""
    if not np.isfinite(A).all():
        raise SingularSystemError(f"{label} contains non-finite entries")
    with np.errstate(all="ignore"):
        s = _umath_linalg.svd(A, signature="d->d").tolist()
        x = _umath_linalg.solve1(A, rhs, signature="dd->d")
    # np.linalg.cond's ratio, whose 0/0 it reads as infinite
    if not (s[-1] > 0 and s[0] / s[-1] <= _MAX_CONDITION and np.isfinite(x).all()):
        raise SingularSystemError(
            f"{label} is rank deficient (condition number exceeds "
            f"{_MAX_CONDITION:g}); check for collinear covariates"
        )
    return x


def _inside_unit_interval(p: np.ndarray) -> bool:
    """Whether every entry lies in (0, 1), which NaN and infinities do not."""
    return bool(((p > 0.0) & (p < 1.0)).all())


def _check_probabilities(p: np.ndarray, what: str) -> None:
    if not _inside_unit_interval(p):
        raise NonConvergenceError(
            f"fitted {what} probabilities reached 0 or 1 exactly; "
            "the linear predictor is saturated (separation?)"
        )


def _damped_newton(evaluate, jacobian, n_coef: int, n_rows: int, what: str):
    """Zero a score by Newton steps halved until its max-norm decreases.

    ``evaluate(x)`` returns the raw score at ``x`` and the probabilities it
    used, from which ``jacobian`` builds the Newton matrix.  Returns the
    solution, the probabilities ``evaluate`` gave there and the score-norm
    path; a failure raises :class:`NonConvergenceError` carrying the last
    accepted coefficients.
    """
    x = np.zeros(n_coef)
    score, probs = evaluate(x)
    path = [float(np.abs(score).max()) / n_rows]
    while path[-1] > TOL:
        if len(path) > MAX_ITER:
            raise NonConvergenceError(
                f"{what}-score fit did not converge in {MAX_ITER} iterations "
                f"(score norm {path[-1]:.3e} > tol {TOL:.1e})",
                score_norm=path[-1],
                iterations=MAX_ITER,
                coefficients=x,
            )
        delta = _guarded_solve(jacobian(probs), score, "normal-equation matrix")

        step = 1.0
        for _ in range(_STEP_HALVING_MAX + 1):
            cand = x + step * delta
            score_cand, probs_cand = evaluate(cand)
            norm = float(np.abs(score_cand).max()) / n_rows
            if norm < path[-1]:
                x, probs, score = cand, probs_cand, score_cand
                path.append(norm)
                break
            step *= 0.5
        else:
            raise NonConvergenceError(
                f"step halving exhausted without improving the {what} score "
                f"(norm {path[-1]:.3e})",
                score_norm=path[-1],
                iterations=len(path),
                coefficients=x,
            )
    return x, probs, path


def fit_pooled_logistic(pooled: PooledMatrix) -> PropensityFit:
    """Weighted logistic pseudo-maximum-likelihood on the pooled rows.

    Returns the coefficient vector solving the weighted membership score,
    with fitted probabilities split back into cohort and survey rows.

    Raises
    ------
    NonConvergenceError
        Score norm still above :data:`TOL` after :data:`MAX_ITER` steps, or
        step halving cannot improve the score (typically separation).
    SingularSystemError
        The iteratively reweighted normal equations are rank deficient.
    """
    X, R, w = pooled.X, pooled.R, pooled.w

    def evaluate(beta):
        p = expit(X @ beta)
        return X.T @ (w * (R - p)), p

    def jacobian(p):
        return X.T @ ((w * p * (1.0 - p))[:, None] * X)

    beta, p, path = _damped_newton(evaluate, jacobian, X.shape[1], X.shape[0], "membership")
    p_cohort, p_survey = p[: pooled.n_c], p[pooled.n_c :]
    _check_probabilities(p_cohort, "cohort")
    _check_probabilities(p_survey, "survey")
    return PropensityFit(
        beta=beta,
        p_hat_cohort=p_cohort,
        p_hat_survey=p_survey,
        lam=pooled.lam,
        score_norm_path=tuple(path),
    )


def fit_clw_score(cohort: CohortSample, survey: SurveySample) -> PropensityFit:
    """Newton-Raphson solve of the participation-rate score system.

    The score matches the cohort covariate totals against the
    design-weighted survey totals of ``pi(gamma) x``; its Jacobian involves
    survey rows only.

    Raises
    ------
    InfeasibleTotalsError
        The cohort totals exceed what any probability below one can
        reproduce on the weighted survey (detected up front for the
        intercept, and by coefficient divergence when the Newton loop
        fails; the loop's :class:`NonConvergenceError` is the cause).
    NonConvergenceError, SingularSystemError
        As for the pooled fit.
    """
    Xc, Xp, d = cohort.X, survey.X, survey.d
    sum_d = float(np.sum(d))
    if cohort.n_c >= sum_d:
        raise InfeasibleTotalsError(
            f"cohort size {cohort.n_c} is not smaller than the survey weight "
            f"total {sum_d:.1f}; no participation probabilities below one can "
            "reproduce the cohort count"
        )
    target = Xc.sum(axis=0)

    def evaluate(gamma):
        pi = expit(Xp @ gamma)
        return target - (d * pi) @ Xp, pi

    def jacobian(pi):
        return Xp.T @ ((d * pi * (1.0 - pi))[:, None] * Xp)

    n_rows = Xc.shape[0] + Xp.shape[0]
    try:
        gamma, pi_survey, path = _damped_newton(
            evaluate, jacobian, Xc.shape[1], n_rows, "participation"
        )
    except NonConvergenceError as exc:
        if float(np.abs(exc.coefficients).max()) > _DIVERGENCE_BOUND:
            raise InfeasibleTotalsError(
                "coefficients diverged while the score stayed at "
                f"{exc.score_norm:.3e}; the cohort covariate totals are "
                "infeasible for the weighted survey"
            ) from exc
        raise

    pi_cohort = expit(Xc @ gamma)
    _check_probabilities(pi_cohort, "cohort participation")
    _check_probabilities(pi_survey, "survey participation")
    return PropensityFit(
        beta=gamma,
        p_hat_cohort=pi_cohort,
        p_hat_survey=pi_survey,
        lam=1.0,
        score_norm_path=tuple(path),
    )
