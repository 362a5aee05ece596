"""Pseudo-weight construction and mean estimation for every method.

The catalogue:

``naive``
    Unweighted cohort mean; no variance (baseline, known to be biased).
``tw``
    True-weight oracle: inverse of the *known* participation probabilities,
    available only in simulation.  Variance treats the weights as fixed.
``alp``
    Pooled membership fit with unscaled survey weights; weight
    ``(1 - p)/p``, the inverse of the implied participation rate.
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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, EmptyInputError, PseudoweightError
from .samples import (
    CohortSample,
    FitFlavor,
    PropensityFit,
    SurveySample,
    WeightedEstimate,
    build_pooled_matrix,
    default_lambda,
    rdw_rescale_factor,
    validate_paired_samples,
)
from .solvers import fit_clw_score, fit_pooled_logistic
from .variance import _design_matrix, fixed_weight_variance, tl_variance

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
    """A method plus its knobs.

    ``truncate_pi_at_one`` clamps implied participation rates above one back
    to one (weight one) for the odds-transform weights; off by default, the
    affected count is reported either way.
    """

    method: Method
    truncate_pi_at_one: bool = False


def _check_probs(p: np.ndarray) -> None:
    p = np.asarray(p)
    if p.size == 0 or np.any(p <= 0.0) or np.any(p >= 1.0) or not np.all(np.isfinite(p)):
        raise DomainError("fitted probabilities must lie strictly inside (0, 1)")


def alp_weights(p_hat_cohort: np.ndarray, truncate_pi_at_one: bool = False) -> np.ndarray:
    """Inverse implied participation rate ``(1 - p)/p``.

    A fitted probability above one half implies a participation rate above
    one (weight below one); with ``truncate_pi_at_one`` those rates are
    clamped to one, i.e. the weight is floored at one.
    """
    _check_probs(p_hat_cohort)
    w = (1.0 - p_hat_cohort) / p_hat_cohort
    if truncate_pi_at_one:
        w = np.maximum(w, 1.0)
    return w


def fdw_weights(p_hat_cohort: np.ndarray) -> np.ndarray:
    """Reciprocal fitted probability ``1/p`` (odds transform skipped)."""
    _check_probs(p_hat_cohort)
    return 1.0 / p_hat_cohort


def clw_weights(gamma_hat: np.ndarray, cohort_X: np.ndarray) -> np.ndarray:
    """Inverse modelled participation rate ``1 + exp(-gamma . x)``."""
    eta = np.asarray(cohort_X) @ np.asarray(gamma_hat, dtype=float)
    return 1.0 + np.exp(-eta)


def alps_weights(beta_lambda_hat: np.ndarray, cohort_X: np.ndarray) -> np.ndarray:
    """Scaled-fit weight ``exp(-b1 . x1)``, intercept excluded.

    Only the slope coefficients enter: the scaled fit biases the intercept,
    and a constant factor cancels in the ratio estimator anyway, so the
    weight never reads coefficient zero.
    """
    beta = np.asarray(beta_lambda_hat, dtype=float)
    X1 = np.asarray(cohort_X)[:, 1:]
    return np.exp(-(X1 @ beta[1:]))


def hajek_mean(y: np.ndarray, weights: np.ndarray) -> float:
    """Ratio-form weighted mean, invariant to rescaling the weights."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.size == 0 or w.size == 0:
        raise EmptyInputError("hajek_mean needs at least one observation")
    if y.shape != w.shape:
        raise ValueError("y and weights must have the same length")
    total = float(np.sum(w))
    if not total > 0:
        raise EmptyInputError("weight total must be positive")
    return float(np.sum(w * y) / total)


def fit_key(method: Method, cohort: CohortSample, survey: SurveySample):
    """The fit a method needs as ``(flavor, survey-weight multiplier)``, or
    None for naive and tw.  Methods with equal keys share one fit; ``rdw``'s
    key raises :class:`RescaleError` when its factor would be nonpositive."""
    if method in (Method.NAIVE, Method.TW):
        return None
    if method in (Method.ALP, Method.FDW):
        return FitFlavor.POOLED_MEMBERSHIP, 1.0
    if method is Method.RDW:
        return FitFlavor.POOLED_MEMBERSHIP, rdw_rescale_factor(cohort.n_c, survey.d)
    if method is Method.ALPS:
        return FitFlavor.POOLED_MEMBERSHIP, default_lambda(cohort.n_c, survey.d)
    if method is Method.CLW:
        return FitFlavor.CLW_SCORE, 1.0
    raise ValueError(f"unknown method {method!r}")  # pragma: no cover


def fit_for_method(
    method: Method, cohort: CohortSample, survey: SurveySample
) -> PropensityFit | None:
    """Run the propensity fit a method needs (None for naive/tw); methods
    with the same :func:`fit_key` (``alp`` and ``fdw``) get the same fit."""
    key = fit_key(method, cohort, survey)
    if key is None:
        return None
    flavor, multiplier = key
    if flavor is FitFlavor.CLW_SCORE:
        return fit_clw_score(cohort, survey)
    return fit_pooled_logistic(build_pooled_matrix(cohort, survey, multiplier))


def _interval(mu: float, var: float | None):
    if var is None:
        return None, None
    if var < 0 or not math.isfinite(var):
        return math.nan, math.nan
    half = Z_95 * math.sqrt(var)
    return mu - half, mu + half


def estimate_from_fit(
    spec: MethodSpec,
    fit: PropensityFit | None,
    cohort: CohortSample,
    survey: SurveySample,
    true_participation: np.ndarray | None = None,
    design_matrix=None,
) -> WeightedEstimate:
    """Turn a propensity fit into a weighted estimate with variance (none
    for naive); ``true_participation`` is read only by tw, and
    ``design_matrix`` is passed on to :func:`tl_variance`."""
    method = spec.method
    warnings: list[str] = []
    p_override_c = p_override_s = None
    if method is Method.NAIVE:
        w = np.ones(cohort.n_c)
    elif method is Method.TW:
        if true_participation is None:
            raise ValueError("the true-weight method needs the participation probabilities")
        pi = np.asarray(true_participation, dtype=float)
        if not np.all((pi > 0) & (pi <= 1)):
            raise DomainError("true participation probabilities must lie in (0, 1]")
        w = 1.0 / pi
    elif method is Method.ALP:
        n_above = int(np.sum(fit.p_hat_cohort > 0.5))
        if n_above:
            warnings.append(f"pi-hat-above-one: {n_above}")
        w = alp_weights(fit.p_hat_cohort, spec.truncate_pi_at_one)
    elif method in (Method.FDW, Method.RDW):
        w = fdw_weights(fit.p_hat_cohort)
        warnings.append("variance-approximation: membership-form plug-in reused")
    elif method is Method.ALPS:
        w = alps_weights(fit.beta, cohort.X)
        # the substitution rule evaluates the variance formulas on the
        # participation scale of the scaled fit, intercept included
        p_override_c = np.exp(cohort.X @ fit.beta)
        p_override_s = np.exp(survey.X @ fit.beta)
        design_matrix = None  # the fit's is for its own survey probabilities
    elif method is Method.CLW:
        w = clw_weights(fit.beta, cohort.X)
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown method {method!r}")

    mu = hajek_mean(cohort.y, w)
    var = None
    if method is Method.TW:
        var = fixed_weight_variance(cohort, pi, mu)
    elif method is not Method.NAIVE:
        vb = tl_variance(cohort, survey, fit, w, mu, p_override_c, p_override_s, design_matrix)
        warnings.extend(vb.warnings)
        var = vb.v_total
    lo, hi = _interval(mu, var)
    return WeightedEstimate(
        method=method.value,
        mu_hat=mu,
        weights=w,
        var_hat=var,
        ci_low=lo,
        ci_high=hi,
        warnings=tuple(warnings),
    )


def estimate_each(specs, cohort, survey, true_participation=None) -> list:
    """Run every spec on already-validated samples, in order.

    Each entry of the result is the spec's :class:`WeightedEstimate` or the
    :class:`PseudoweightError` that stopped it.  Specs whose methods have
    equal :func:`fit_key` share one fit, or that fit's error, and the
    fit's design matrix, built when a method first needs it.
    """
    fits, results = {}, []
    for spec in specs:
        try:
            key = fit_key(spec.method, cohort, survey)
            if key not in fits:
                try:
                    fit = fit_for_method(spec.method, cohort, survey)
                except PseudoweightError as exc:
                    fit = exc
                design = cache(lambda f=fit: _design_matrix(survey, f.p_hat_survey, f.lam))
                fits[key] = fit, design
            result, design = fits[key]
            if not isinstance(result, PseudoweightError):
                result = estimate_from_fit(
                    spec, result, cohort, survey, true_participation, design
                )
        except PseudoweightError as exc:
            result = exc
        results.append(result)
    return results


def estimate(
    spec: Method | MethodSpec,
    cohort: CohortSample,
    survey: SurveySample,
    true_participation: np.ndarray | None = None,
) -> WeightedEstimate:
    """Validate, fit, weight, and estimate in one call.

    Raises :class:`ValidationError` when the paired samples fail validation;
    solver and weight-domain errors propagate.
    """
    if isinstance(spec, Method):
        spec = MethodSpec(method=spec)
    validate_paired_samples(cohort, survey)
    (result,) = estimate_each([spec], cohort, survey, true_participation)
    if isinstance(result, PseudoweightError):
        raise result
    return result
