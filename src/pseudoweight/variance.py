"""Linearized variance estimation for pseudo-weighted means.

The variance of a pseudo-weighted mean splits into a cohort-side component
(randomness of who volunteers) and a design-side component ``b' D b``
(randomness of the reference survey), where ``b`` is the linearization
coefficient transferring propensity-coefficient noise into the mean and
``D`` estimates the design variance of the survey total of ``d * p * x``.

One linearization form serves both estimating-equation systems.  ``b``
solves ``(sum a x x') b = sum u (y - mu) x`` over cohort rows, and the
cohort component sums ``factor * ((y - mu)/p - b.x)^2``; the two systems
differ only in these per-unit arrays:

* membership fits (pooled membership model): ``a = w p``, ``u = w``,
  ``factor = (1 - p)(1 - 2p)``, with ``w`` the pseudo-weights;
* participation-score fits: ``a = 1 - pi``, ``u = (1 - pi)/pi``,
  ``factor = 1 - pi``.

Sample sums that stand in for population totals are inverse-participation
weighted: the membership arrays carry the pseudo-weights, which is what
keeps the variance ratio near one in simulation (unit weights, ``a = p``
and ``u = 1``, give unweighted cohort sums instead).

The stratified and iid designs share one with-replacement PSU formula over
integer PSU codes: the stratified design reads them from the survey's
``DesignInfo.psu_codes`` (labels grouped once, on first use), and the iid
design numbers each unit as its own PSU in a single stratum.  All design
matrices are normalized by the squared total of the (effective) survey
weights.  When a fit scaled the survey weights by a constant, that
constant stays attached: the scaled weights enter the PSU totals and the
normalizing total alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError
from .samples import CohortSample, DesignKind, PropensityFit, FitFlavor, SurveySample
from .solvers import _guarded_solve


@dataclass(frozen=True)
class VarianceBreakdown:
    """Total variance and its cohort/design split.

    ``v_cohort`` can be negative when many fitted probabilities exceed one
    half; the total is still reported, with a warning, rather than failing.
    """

    v_cohort: float
    v_design: float
    v_total: float
    warnings: tuple = ()


def compute_b_hat(
    cohort: CohortSample, a: np.ndarray, u: np.ndarray, mu_hat: float
) -> np.ndarray:
    """Linearization coefficient ``b`` for either fit flavor.

    Solves ``(sum a x x') b = sum u (y - mu) x`` over cohort rows without
    forming an explicit inverse; the per-unit arrays ``a`` and ``u`` are
    listed per flavor in the module docstring.
    """
    X = cohort.X
    A = X.T @ (a[:, None] * X)
    rhs = (u * (cohort.y - mu_hat)) @ X
    return _guarded_solve(A, rhs, "linearization system")


def variance_cohort_component(
    cohort: CohortSample,
    p_hat_cohort: np.ndarray,
    factor: np.ndarray,
    weights: np.ndarray,
    mu_hat: float,
    b_hat: np.ndarray,
) -> float:
    """Cohort-side variance plug-in ``sum factor * resid^2 / (sum weights)^2``.

    With the membership factor ``(1 - p)(1 - 2p)``, terms with fitted
    probability above one half contribute negatively; the sum is returned
    as-is.
    """
    n_hat_c = float(np.sum(weights))
    resid = (cohort.y - mu_hat) / p_hat_cohort - cohort.X @ b_hat
    total = float(np.sum(factor * resid**2))
    return total / n_hat_c**2


def _psu_design_matrix(
    X: np.ndarray,
    w: np.ndarray,
    p_hat: np.ndarray,
    psu_of_unit: np.ndarray,
    stratum_of_psu: np.ndarray,
) -> np.ndarray:
    """With-replacement PSU variance of the weighted total of ``w p x``,
    for PSUs numbered as in :class:`~pseudoweight.samples.PsuCodes`."""
    p_cols, n_psu = X.shape[1], len(stratum_of_psu)
    # np.bincount sums each PSU's units in unit order.
    z_psu = np.column_stack(
        [
            np.bincount(psu_of_unit, weights=column, minlength=n_psu)
            for column in ((w * p_hat)[:, None] * X).T
        ]
    )
    D = np.zeros((p_cols, p_cols))
    for z in np.split(z_psu, np.flatnonzero(np.diff(stratum_of_psu)) + 1):
        a_h = len(z)
        dev = z - z.mean(axis=0)
        D += (a_h / (a_h - 1.0)) * dev.T @ dev
    return D / float(np.sum(w)) ** 2


def design_variance_stratified(
    survey: SurveySample,
    p_hat_survey: np.ndarray,
    weight_multiplier: float = 1.0,
) -> np.ndarray:
    """Design variance matrix under stratified multistage cluster sampling
    with PSUs treated as sampled with replacement within strata.

    ``weight_multiplier`` scales the survey weights everywhere they appear
    (inside the PSU totals and in the normalizing total), matching how
    scaled-weight fits substitute their weights into the formula.
    """
    codes = survey.design.psu_codes
    if codes is None:
        raise DesignError("stratified variance requires stratum and psu labels")
    single = codes.single_psu_strata()
    if single:
        raise DesignError(
            f"stratum {single[0]} has a single PSU; collapse it with a "
            "neighbouring stratum before variance estimation"
        )
    return _psu_design_matrix(
        survey.X,
        weight_multiplier * survey.d,
        np.asarray(p_hat_survey, dtype=float),
        codes.psu_of_unit,
        codes.stratum_of_psu,
    )


def design_variance_poisson(
    survey: SurveySample,
    p_hat_survey: np.ndarray,
    weight_multiplier: float = 1.0,
) -> np.ndarray:
    """Design variance matrix under Poisson sampling of the survey.

    Plug-in of the population form ``sum (d - 1) p^2 x x'``: each population
    term is estimated by ``d`` times its sample value, normalized by the
    squared weight total.  Requires design weights of at least one (an
    inclusion probability cannot exceed one).
    """
    if np.any(survey.d < 1.0):
        raise DesignError(
            "Poisson design variance requires design weights >= 1 "
            "(inclusion probabilities cannot exceed one)"
        )
    w = weight_multiplier * survey.d
    p_hat = np.asarray(p_hat_survey, dtype=float)
    n_hat_p = float(np.sum(w))
    scaled = (w * (w - 1.0) * p_hat**2)[:, None] * survey.X
    return (scaled.T @ survey.X) / n_hat_p**2


def design_variance_iid(
    survey: SurveySample,
    p_hat_survey: np.ndarray,
    weight_multiplier: float = 1.0,
) -> np.ndarray:
    """Fallback design variance treating each unit as its own PSU in a
    single with-replacement stratum; a defensible default when no design
    labels are available."""
    if survey.n_p < 2:
        raise DesignError("iid design variance needs at least two survey units")
    return _psu_design_matrix(
        survey.X,
        weight_multiplier * survey.d,
        np.asarray(p_hat_survey, dtype=float),
        np.arange(survey.n_p),
        np.zeros(survey.n_p, dtype=int),
    )


def _design_matrix(
    survey: SurveySample, p_hat_survey: np.ndarray, weight_multiplier: float
) -> np.ndarray:
    kind = survey.design.kind
    if kind is DesignKind.POISSON:
        return design_variance_poisson(survey, p_hat_survey, weight_multiplier)
    if kind is DesignKind.STRATIFIED_WR:
        return design_variance_stratified(survey, p_hat_survey, weight_multiplier)
    if kind is DesignKind.IID:
        return design_variance_iid(survey, p_hat_survey, weight_multiplier)
    raise DesignError(f"unknown design kind {kind!r}")  # pragma: no cover


def tl_variance(
    cohort: CohortSample,
    survey: SurveySample,
    fit: PropensityFit,
    weights: np.ndarray,
    mu_hat: float,
    p_cohort: np.ndarray | None = None,
    p_survey: np.ndarray | None = None,
    design_matrix=None,
) -> VarianceBreakdown:
    """Assemble the linearized variance for a pseudo-weighted mean.

    ``weights`` are the method's pseudo-weights for the cohort units.  The
    probabilities default to the fit's own; scaled-weight estimation passes
    substitutes (its probability scale differs from the fitted membership
    probabilities).  The design matrix is chosen by the survey's design
    metadata and uses the fit's survey-weight multiplier throughout.
    ``design_matrix``, a function that returns that matrix, lets methods
    sharing a fit build it once.

    A negative cohort component is reported with a warning rather than
    raised: it is a known small-sample behaviour of the membership-form
    plug-in when many fitted probabilities exceed one half.
    """
    weights = np.asarray(weights, dtype=float)
    p_c = fit.p_hat_cohort if p_cohort is None else np.asarray(p_cohort, dtype=float)
    p_s = fit.p_hat_survey if p_survey is None else np.asarray(p_survey, dtype=float)

    if fit.flavor is FitFlavor.POOLED_MEMBERSHIP:
        a, u, factor = weights * p_c, weights, (1.0 - p_c) * (1.0 - 2.0 * p_c)
    else:
        a, u, factor = 1.0 - p_c, (1.0 - p_c) / p_c, 1.0 - p_c
    b_hat = compute_b_hat(cohort, a, u, mu_hat)
    v_cohort = variance_cohort_component(cohort, p_c, factor, weights, mu_hat, b_hat)

    D = design_matrix() if design_matrix else _design_matrix(survey, p_s, fit.lam)
    v_design = float(b_hat @ D @ b_hat)

    return VarianceBreakdown(
        v_cohort=v_cohort,
        v_design=v_design,
        v_total=v_cohort + v_design,
        warnings=("negative-cohort-component",) if v_cohort < 0 else (),
    )


def fixed_weight_variance(
    cohort: CohortSample, participation: np.ndarray, mu_hat: float
) -> float:
    """Variance treating the participation probabilities as known constants.

    No coefficient-uncertainty term and no design component: this is the
    independent-inclusion variance of the weighted mean with fixed weights
    ``1/participation``, used for the true-weight oracle estimator.
    """
    pi = np.asarray(participation, dtype=float)
    b0 = np.zeros(cohort.n_covariates)
    return variance_cohort_component(cohort, pi, 1.0 - pi, 1.0 / pi, mu_hat, b0)
