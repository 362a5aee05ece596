"""Reference computations the tests check the package against."""

import numpy as np
from scipy.special import expit

from pseudoweight import FitFlavor


def score_at(flavor, coefficients, cohort, survey, lam=1.0):
    """Evaluate the (scale-free) estimating equation at given coefficients.

    Returns the raw score divided by the pooled row count, matching the
    solvers' convergence convention, so a converged solution satisfies
    ``abs(score_at(...)).max() <= solvers.TOL``.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    n_rows = cohort.n_c + survey.n_p
    if flavor is FitFlavor.POOLED_MEMBERSHIP:
        p_c = expit(cohort.X @ coefficients)
        p_s = expit(survey.X @ coefficients)
        raw = (1.0 - p_c) @ cohort.X - (lam * survey.d * p_s) @ survey.X
    elif flavor is FitFlavor.CLW_SCORE:
        pi_s = expit(survey.X @ coefficients)
        raw = cohort.X.sum(axis=0) - (survey.d * pi_s) @ survey.X
    else:
        raise ValueError(f"unknown fit flavor {flavor!r}")
    return raw / n_rows
