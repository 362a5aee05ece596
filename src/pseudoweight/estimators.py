"""Pseudo-weight construction and mean estimation for every method.

The catalogue:

``naive``
    Unweighted cohort mean; no variance (baseline, known to be biased).
``tw``
    True-weight oracle: inverse of the *known* participation probabilities,
    available only in simulation.  Variance treats the weights as fixed.
``alp``
    Pooled membership fit with unscaled survey weights; weight
    ``(1 - p)/p``, the inverse of the implied participation rate.  Units
    with ``p`` above one half (an implied rate above one) are counted in a
    warning.
``fdw``
    Same fit as ``alp`` but weight ``1/p`` (no odds transform); nearly
    unbiased only when participation rates are all close to zero.
``rdw``
    Pooled fit with survey weights rescaled so they total the estimated
    out-of-cohort population; weight ``1/p``.  The rescale makes the fitted
    membership probability estimate the participation rate directly, so no
    odds transform is applied.
``clw``
    Participation-score fit on its own system; weight
    ``1/pi = 1 + exp(-gamma . x)``.
``alps``
    Pooled fit with survey weights scaled by the constant ``n_c / sum(d)``
    (cohort size over survey weight total); the weight drops the intercept,
    which the scaling biases, and keeps the slope part: ``exp(-b1 . x1)``.

All weighted means are ratio (Hajek) estimators, invariant to rescaling the
weight vector.

Each method's weights, variance arrays and design matrix are defined once,
in :func:`estimate_from_fit`.  For ``alp``, ``fdw`` and ``rdw`` a fitted
probability outside the open interval (0, 1) raises :class:`DomainError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DomainError, EmptyInputError, PseudoweightError, RescaleError
from .samples import (
    CohortSample,
    PropensityFit,
    SurveySample,
    WeightedEstimate,
    build_pooled_matrix,
    pooled_rows,
    validate_paired_samples,
)
from .solvers import _inside_unit_interval, fit_clw_score, fit_pooled_logistic
from .variance import _design_matrix, tl_variance

Z_95 = 1.96


class Method(str, enum.Enum):
    NAIVE = "naive"
    TW = "tw"
    RDW = "rdw"
    FDW = "fdw"
    ALP = "alp"
    CLW = "clw"
    ALPS = "alps"


@dataclass(frozen=True)
class MethodSpec:
    """A :class:`Method` in a record, which only :func:`estimate` accepts."""

    method: Method


def _distinct_methods(names) -> tuple:
    """``names`` as Methods; a repeated one raises :class:`PseudoweightError`."""
    methods = tuple(map(Method, names))
    repeated = [m.value for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise PseudoweightError(f"method {repeated[0]!r} is requested more than once")
    return methods


def _check_probs(p: np.ndarray) -> None:
    p = np.asarray(p)
    if p.size == 0 or not _inside_unit_interval(p):
        raise DomainError("fitted probabilities must lie strictly inside (0, 1)")


def hajek_mean(y: np.ndarray, weights: np.ndarray) -> float:
    """Ratio-form weighted mean, invariant to rescaling the weights."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.size == 0 or w.size == 0:
        raise EmptyInputError("hajek_mean needs at least one observation")
    if y.shape != w.shape:
        raise ValueError("y and weights must have the same length")
    total = float(w.sum())
    if not total > 0:
        raise EmptyInputError("weight total must be positive")
    return float((w * y).sum() / total)


def fit_key(method: Method | str, cohort: CohortSample, survey: SurveySample):
    """The fit a :class:`Method`, or method name, needs: None for naive and
    tw, ``Method.CLW`` for the participation-score fit, or the pooled fit's
    survey-weight multiplier: 1.0, ``n_c / sum(d)`` for ``alps`` and
    ``(sum(d) - n_c) / sum(d)`` for ``rdw``.  Methods with equal keys share
    one fit; ``rdw``'s key raises :class:`RescaleError` when nonpositive."""
    method = Method(method)
    if method in (Method.NAIVE, Method.TW):
        return None
    if method is Method.CLW:
        return Method.CLW
    if method not in (Method.RDW, Method.ALPS):
        return 1.0  # alp and fdw
    n_c, n_hat_p = cohort.n_c, float(np.sum(survey.d))
    if method is Method.ALPS:
        return n_c / n_hat_p
    if n_c >= n_hat_p:
        raise RescaleError(
            f"cohort size {n_c} is not smaller than the survey-estimated "
            f"population size {n_hat_p:.1f}; rescale factor would be nonpositive"
        )
    return (n_hat_p - n_c) / n_hat_p


def fit_for_method(
    method: Method, cohort: CohortSample, survey: SurveySample, rows=None
) -> PropensityFit | None:
    """Run the propensity fit a method needs (None for naive/tw); methods
    with the same :func:`fit_key` (``alp`` and ``fdw``) get the same fit.
    ``rows`` is passed on to :func:`build_pooled_matrix`."""
    key = fit_key(method, cohort, survey)
    if key is None:
        return None
    if key is Method.CLW:
        return fit_clw_score(cohort, survey)
    return fit_pooled_logistic(build_pooled_matrix(cohort, survey, key, rows))


def estimate_from_fit(
    method: Method,
    fit: PropensityFit | None,
    cohort: CohortSample,
    survey: SurveySample,
    true_participation: np.ndarray | None = None,
    design_matrix=None,
) -> WeightedEstimate:
    """Turn a propensity fit into a weighted estimate with variance (none
    for naive).  This is the table of methods: a method's weights, the
    per-unit arrays ``(a, u, q, factor)`` its :func:`tl_variance` reads, the
    function building its design matrix (none for tw, whose weights are
    fixed) and its warnings.  ``design_matrix`` builds the fit's own, on its
    survey probabilities; a new one is made by default.  The membership
    arrays carry the pseudo-weights, so cohort sums that stand in for
    population totals are inverse-participation weighted.
    """
    method = Method(method)
    arrays = design = None
    warnings = ()
    if method is Method.NAIVE:
        w = np.ones(cohort.n_c)
    elif method is Method.TW:
        if true_participation is None:
            raise ValueError("the true-weight method needs the participation probabilities")
        pi = np.asarray(true_participation, dtype=float)
        if not np.all((pi > 0) & (pi <= 1)):
            raise DomainError("true participation probabilities must lie in (0, 1]")
        w, arrays = 1.0 / pi, (None, None, pi, 1.0 - pi)
    else:
        design = design_matrix
        if design is None:
            design = partial(_design_matrix, survey, fit.p_hat_survey, fit.lam)
        p = fit.p_hat_cohort
        if method is Method.CLW:
            w = 1.0 + np.exp(-(cohort.X @ fit.beta))
            arrays = 1.0 - p, (1.0 - p) / p, p, 1.0 - p
        else:
            if method is Method.ALPS:
                # the slopes only: the scaled fit biases the intercept, and a
                # constant factor cancels in the ratio estimator anyway
                w = np.exp(-(cohort.X[:, 1:] @ fit.beta[1:]))
                # the substitution rule evaluates the variance formulas on the
                # participation scale of the scaled fit, intercept included
                p = np.exp(cohort.X @ fit.beta)
                design = partial(_design_matrix, survey, np.exp(survey.X @ fit.beta), fit.lam)
            else:
                _check_probs(p)
                if method is Method.ALP:
                    n_above = int(np.sum(p > 0.5))
                    if n_above:
                        warnings = (f"pi-hat-above-one: {n_above}",)
                    w = (1.0 - p) / p
                else:  # fdw and rdw
                    w = 1.0 / p
                    warnings = ("variance-approximation: membership-form plug-in reused",)
            arrays = w * p, w, p, (1.0 - p) * (1.0 - 2.0 * p)
    mu = hajek_mean(cohort.y, w)
    var = lo = hi = None
    if arrays is not None:
        v_cohort, v_design = tl_variance(cohort, w, mu, *arrays, design)
        if v_cohort < 0:  # reported, not raised (see tl_variance)
            warnings += ("negative-cohort-component",)
        var = v_cohort + v_design
        lo = hi = math.nan  # a negative or non-finite variance has no interval
        if var >= 0 and math.isfinite(var):
            half = Z_95 * math.sqrt(var)
            lo, hi = mu - half, mu + half
    return WeightedEstimate(
        method=method.value,
        mu_hat=mu,
        weights=w,
        var_hat=var,
        ci_low=lo,
        ci_high=hi,
        warnings=warnings,
    )


def estimate_each(methods, cohort, survey, true_participation=None) -> list:
    """Run every :class:`Method`, or method name, on already-validated
    samples, in order; an unknown name raises ``ValueError`` before any fit.

    Each entry of the result is the method's :class:`WeightedEstimate` or
    the :class:`PseudoweightError` that stopped it.  Methods with equal
    :func:`fit_key` share one fit, or that fit's error, and its design
    matrix, built when first needed; pooled fits share one :func:`pooled_rows`.
    """
    fits, results, rows = {}, [], None
    for method in list(map(Method, methods)):
        try:
            key = fit_key(method, cohort, survey)
            if key not in fits:
                if isinstance(key, float):
                    rows = rows or pooled_rows(cohort, survey)
                try:
                    fit = fit_for_method(method, cohort, survey, rows)
                except PseudoweightError as exc:
                    fit = exc
                design = cache(lambda f=fit: _design_matrix(survey, f.p_hat_survey, f.lam))
                fits[key] = fit, design
            result, design = fits[key]
            if not isinstance(result, PseudoweightError):
                result = estimate_from_fit(
                    method, result, cohort, survey, true_participation, design
                )
        except PseudoweightError as exc:
            result = exc
        results.append(result)
    return results


def estimate(
    method: Method | str | MethodSpec,
    cohort: CohortSample,
    survey: SurveySample,
    true_participation: np.ndarray | None = None,
) -> WeightedEstimate:
    """Validate, fit, weight, and estimate in one call.

    ``method`` is a :class:`Method`, its name or a :class:`MethodSpec`.
    Raises :class:`ValidationError` when the paired samples fail validation;
    solver and weight-domain errors propagate.
    """
    method = Method(method.method if isinstance(method, MethodSpec) else method)
    validate_paired_samples(cohort, survey)
    (result,) = estimate_each([method], cohort, survey, true_participation)
    if isinstance(result, PseudoweightError):
        raise result
    return result
