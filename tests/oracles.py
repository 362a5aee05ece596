"""Reference computations the tests check the package against, and the
hand-made fits they feed it."""

import csv
import io
import math

import numpy as np
from scipy.special import expit

from pseudoweight import CohortSample, DesignKind, Method, PropensityFit, SurveySample


def score_at(method, coefficients, cohort, survey, lam=1.0):
    """Evaluate the (scale-free) estimating equation at given coefficients:
    the participation-score system for ``Method.CLW``, else the pooled
    membership system.

    Returns the raw score divided by the pooled row count, matching the
    solvers' convergence convention, so a converged solution satisfies
    ``abs(score_at(...)).max() <= solvers.TOL``.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    n_rows = cohort.n_c + survey.n_p
    if method is Method.CLW:
        pi_s = expit(survey.X @ coefficients)
        raw = cohort.X.sum(axis=0) - (survey.d * pi_s) @ survey.X
    else:
        p_c = expit(cohort.X @ coefficients)
        p_s = expit(survey.X @ coefficients)
        raw = (1.0 - p_c) @ cohort.X - (lam * survey.d * p_s) @ survey.X
    return raw / n_rows


def pseudo_weights(method, fit, X, true_participation=None):
    """A method's pseudo-weights for cohort covariate rows ``X``, by the
    paper's expressions: ``tw`` ``1/pi``; ``alp`` ``(1 - p)/p`` and ``fdw``
    and ``rdw`` ``1/p`` on the fit's membership probability ``p``; ``clw``
    ``1 + exp(-gamma . x)``; ``alps`` ``exp(-b1 . x1)``, the intercept left
    out; ``naive`` ones."""
    X = np.asarray(X, dtype=float)
    if method is Method.NAIVE:
        return np.ones(X.shape[0])
    if method is Method.TW:
        return 1.0 / np.asarray(true_participation, dtype=float)
    if method is Method.CLW:
        return 1.0 + np.exp(-(X @ fit.beta))
    if method is Method.ALPS:
        return np.exp(-(X[:, 1:] @ fit.beta[1:]))
    p = fit.p_hat_cohort
    return (1.0 - p) / p if method is Method.ALP else 1.0 / p


def hand_fit(X, p=None, beta=None):
    """``(fit, cohort, survey)`` for ``estimate_from_fit`` around covariate
    rows ``X``: a fit with coefficients ``beta`` (zeros by default) and
    cohort probabilities ``p`` (``expit(X @ beta)`` by default), a cohort
    of those rows with outcomes ``0, 1, ...``, and a survey of the same rows
    at weight 2 whose fitted probabilities are all one half."""
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    beta = np.zeros(k) if beta is None else np.asarray(beta, dtype=float)
    p = expit(X @ beta) if p is None else np.asarray(p, dtype=float)
    fit = PropensityFit(beta, p, np.full(n, 0.5), 1.0, (0.0,))
    cohort = CohortSample(y=np.arange(n, dtype=float), X=X)
    return fit, cohort, SurveySample(X=X, d=np.full(n, 2.0))


def cell_metrics(estimates, variances, hits, mu_true):
    """A cell's study metrics from its kept replicates, as a dict of the
    :class:`CellResult` fields they fill: ``pct_rb`` the mean of
    ``100 (est - mu)/mu``, ``v_emp`` the variance with ``B - 1``
    denominator, ``mse`` the mean of ``(est - mu)^2``, ``vr`` the mean of
    ``variances`` over ``v_emp`` (nan when that is zero) and ``cp`` the
    share of ``hits``; ``vr`` and ``cp`` are None without variances."""
    B = len(estimates)
    mean = sum(estimates) / B
    v_emp = sum((e - mean) ** 2 for e in estimates) / (B - 1)
    vr = cp = None
    if variances:
        vr = (sum(variances) / len(variances)) / v_emp if v_emp > 0 else float("nan")
        cp = sum(map(bool, hits)) / len(hits)
    return {
        "pct_rb": sum(100.0 * (e - mu_true) / mu_true for e in estimates) / B,
        "v_emp": v_emp,
        "mse": sum((e - mu_true) ** 2 for e in estimates) / B,
        "vr": vr,
        "cp": cp,
    }


def coverage_se(cp, B):
    """The Monte Carlo standard error of a coverage ``cp`` estimated from
    ``B`` replicates: ``sqrt(cp (1 - cp) / B)`` (Morris, White and Crowther
    2019, Stat. Med. 38:2074, table 6)."""
    return math.sqrt(cp * (1.0 - cp) / B)


def bias_se(v_emp, B):
    """The Monte Carlo standard error of a bias estimated from ``B``
    replicates of empirical variance ``v_emp``: ``sqrt(v_emp / B)`` (Morris,
    White and Crowther 2019, table 6); ``100 bias_se / |mu|`` puts it in
    %RB units."""
    return math.sqrt(v_emp / B)


def paired_variance_ratio(a, b):
    """The ratio ``v(a)/v(b)`` of two estimators' empirical variances over
    the same replicates, and its Monte Carlo standard error by the delta
    method on each replicate's squared deviations ``u = (a - mean a)^2`` and
    ``w = (b - mean b)^2``: with ``R`` the ratio, ``sd(u - R w) / sqrt(B) /
    mean w`` (Morris, White and Crowther 2019)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    u, w = (a - a.mean()) ** 2, (b - b.mean()) ** 2
    ratio = u.sum() / w.sum()
    return float(ratio), float(np.std(u - ratio * w, ddof=1) / math.sqrt(len(a)) / w.mean())


def linearized_variance(method, fit, cohort, survey, true_participation=None):
    """A method's linearized variance, unit by unit.

    ``tw`` treats its weights ``1/pi`` as fixed: the cohort term alone,
    ``sum (1 - pi)((y - mu)/pi)^2 / (sum w)^2``.  Every other method adds
    the coefficient and design terms: ``b`` solves
    ``(sum a x x') b = sum u (y - mu) x`` over cohort units, the cohort
    term is ``sum factor ((y - mu)/q - b.x)^2 / (sum w)^2`` and the design
    term is ``b' D b``.  ``clw`` takes the participation form on its fitted
    ``pi``: ``a = 1 - pi``, ``u = (1 - pi)/pi``, ``q = pi``,
    ``factor = 1 - pi``.  The rest take the membership form on ``q``:
    ``a = w q``, ``u = w``, ``factor = (1 - q)(1 - 2q)``, where ``q`` is the
    fit's membership probability, or ``exp(x.beta)`` for ``alps``, whose
    design matrix is built on ``exp(x.beta)`` of the survey units too.
    ``D`` is the survey's design variance of the total of ``lam d q x``
    (``lam`` the fit's survey-weight multiplier) over ``(sum lam d)^2``:
    Poisson ``sum lam d (lam d - 1) q^2 x x'``, or with-replacement PSU
    totals within strata (each unit its own PSU in one stratum for iid).
    """
    X, y = cohort.X, cohort.y
    n, k = X.shape
    w = pseudo_weights(method, fit, X, true_participation)
    if method is Method.TW:
        q = np.asarray(true_participation, dtype=float)
    elif method is Method.ALPS:
        q = np.exp(X @ fit.beta)
    else:
        q = fit.p_hat_cohort
    mu = float(np.sum(w * y) / np.sum(w))

    A, rhs, factor = np.zeros((k, k)), np.zeros(k), np.zeros(n)
    for i in range(n):
        if method is Method.TW:
            factor[i] = 1.0 - q[i]
            continue
        if method is Method.CLW:
            a, u, factor[i] = 1.0 - q[i], (1.0 - q[i]) / q[i], 1.0 - q[i]
        else:
            a, u, factor[i] = w[i] * q[i], w[i], (1.0 - q[i]) * (1.0 - 2.0 * q[i])
        A += a * np.outer(X[i], X[i])
        rhs += u * (y[i] - mu) * X[i]
    b = np.zeros(k) if method is Method.TW else np.linalg.inv(A) @ rhs
    v_cohort = sum(
        factor[i] * ((y[i] - mu) / q[i] - float(np.dot(b, X[i]))) ** 2 for i in range(n)
    ) / float(np.sum(w)) ** 2
    if method is Method.TW:
        return v_cohort

    q_s = np.exp(survey.X @ fit.beta) if method is Method.ALPS else fit.p_hat_survey
    w_s = fit.lam * survey.d
    D = np.zeros((k, k))
    if survey.design.kind is DesignKind.POISSON:
        for j in range(survey.n_p):
            D += w_s[j] * (w_s[j] - 1.0) * q_s[j] ** 2 * np.outer(survey.X[j], survey.X[j])
    else:
        totals = {}
        for j in range(survey.n_p):
            if survey.design.kind is DesignKind.IID:
                key = (0, j)
            else:
                key = (survey.design.stratum[j], survey.design.psu[j])
            totals[key] = totals.get(key, 0.0) + w_s[j] * q_s[j] * survey.X[j]
        for h in {key[0] for key in totals}:
            z = np.array([t for key, t in totals.items() if key[0] == h])
            a_h = len(z)
            for z_l in z:
                D += a_h / (a_h - 1.0) * np.outer(z_l - z.mean(axis=0), z_l - z.mean(axis=0))
    D /= float(np.sum(w_s)) ** 2
    return v_cohort + float(b @ D @ b)


def report_cell(value):
    """One cell of a report or weight dump by the written rule: the
    shortest round-trip decimal for a float, ``nan`` for NaN, an empty
    string for None and ``str`` of anything else."""
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return repr(value)
    return str(value)


def table_bytes(header, rows):
    """The bytes of a comma-separated table of ``header`` and ``rows``,
    every cell formatted by :func:`report_cell`, quoted where ``csv`` quotes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([report_cell(v) for v in row] for row in rows)
    return out.getvalue().encode()
