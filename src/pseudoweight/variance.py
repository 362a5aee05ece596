"""Linearized variance estimation for pseudo-weighted means.

The variance of a pseudo-weighted mean splits into a cohort-side component
(randomness of who volunteers) and a design-side component ``b' D b``
(randomness of the reference survey), where ``b`` is the linearization
coefficient transferring propensity-coefficient noise into the mean and
``D`` estimates the design variance of the survey total of ``d * p * x``.

One kernel, :func:`tl_variance`, serves every method, and it reads data,
not a fit.  ``b`` solves ``(sum a x x') b = sum u (y - mu) x`` over cohort
rows (``b = 0`` when the weights are treated as fixed), the cohort
component sums ``factor * ((y - mu)/q - b.x)^2`` over the squared weight
total, and the design component is ``b' D b``.  It returns the two
components as the pair ``(v_cohort, v_design)``, whose sum is the
variance.  Methods differ only in the per-unit arrays ``(a, u, q, factor)``
and the matrix ``D``; the table of each method's lives in
:func:`pseudoweight.estimators.estimate_from_fit`.

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

import numpy as np

from .errors import DesignError
from .samples import CohortSample, DesignKind, SurveySample
from .solvers import _guarded_solve


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
    weights: np.ndarray,
    mu_hat: float,
    a: np.ndarray | None,
    u: np.ndarray | None,
    q: np.ndarray,
    factor: np.ndarray,
    design_matrix=None,
) -> tuple[float, float]:
    """The linearized variance of a pseudo-weighted mean, as its cohort and
    design components ``(v_cohort, v_design)``; the variance is their sum.

    ``weights`` are the method's pseudo-weights for the cohort units and
    ``a``, ``u``, ``q`` and ``factor`` its per-unit arrays (see the module
    docstring).  ``a=None`` treats the weights as fixed: ``b = 0``, so
    neither ``u`` nor a design term enters.  ``design_matrix`` is a function
    returning the survey's design matrix ``D``, which lets methods sharing a
    fit build it once; None means no design term.  ``v_cohort`` is negative
    when units whose membership factor ``(1 - p)(1 - 2p)`` is below zero
    (``p`` above one half) outweigh the rest; it is returned as-is.
    """
    X = cohort.X
    if a is None:
        b_hat = np.zeros(cohort.n_covariates)
    else:  # solved without forming an explicit inverse
        A = X.T @ (a[:, None] * X)
        rhs = (u * (cohort.y - mu_hat)) @ X
        b_hat = _guarded_solve(A, rhs, "linearization system")
    n_hat_c = float(np.sum(weights))
    resid = (cohort.y - mu_hat) / q - X @ b_hat
    v_cohort = float(np.sum(factor * resid**2)) / n_hat_c**2
    v_design = float(b_hat @ design_matrix() @ b_hat) if design_matrix else 0.0
    return v_cohort, v_design
