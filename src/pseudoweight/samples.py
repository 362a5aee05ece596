"""Sample containers, design metadata, and pooled-matrix construction.

The two sample types share a covariate layout: a numeric matrix whose first
column is identically one (the intercept).  The intercept is never added
implicitly; scaled-weight estimation must know exactly which column to drop,
so its position is part of the contract.  Categorical covariates are the
caller's responsibility to encode as indicator columns.

All containers are frozen dataclasses holding read-only arrays, so they can
be shared freely across threads and concurrent Monte Carlo replicates.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError, RescaleError, ValidationError


class DesignKind(str, enum.Enum):
    """Sampling design of the reference survey, as used by variance
    estimation."""

    POISSON = "poisson"
    STRATIFIED_WR = "stratified"
    IID = "iid"


class FitFlavor(str, enum.Enum):
    """Which estimating-equation system produced a propensity fit."""

    POOLED_MEMBERSHIP = "pooled-membership"
    CLW_SCORE = "clw-score"


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _sorted_codes(labels: np.ndarray):
    """``np.unique(labels, return_inverse=True)``, sorting only the
    distinct labels.

    A dict numbers the labels in first-seen order in one pass, so the
    Python-level comparisons of an object array's sort run over the
    distinct labels instead of every unit.  The sort is ``np.unique``'s,
    so the order, the grouping of NaNs and the ``TypeError`` on labels
    that cannot be compared are those of ``np.unique`` on every unit.
    """
    first_seen = {}
    codes = [first_seen.setdefault(label, len(first_seen)) for label in labels.tolist()]
    distinct = np.array(list(first_seen), dtype=labels.dtype)
    sorted_labels, rank = np.unique(distinct, return_inverse=True)
    return sorted_labels, rank[np.array(codes, dtype=np.intp)]


@dataclass(frozen=True)
class PsuCodes:
    """Integer encoding of a survey's stratum and PSU labels.

    A PSU is a (stratum, psu) label pair, so equal PSU labels in different
    strata are different PSUs.  ``strata`` holds the distinct stratum labels
    in sorted order; PSUs are numbered by stratum, then by PSU label, so
    ``stratum_of_psu`` (each PSU's index into ``strata``) is non-decreasing
    and ``psu_of_unit`` gives each unit's PSU number.
    """

    strata: np.ndarray
    psu_of_unit: np.ndarray
    stratum_of_psu: np.ndarray

    def single_psu_strata(self) -> list:
        """Printed labels (``'b'``, ``1``) of the strata with one PSU."""
        labels = self.strata.tolist()
        counts = np.bincount(self.stratum_of_psu, minlength=len(labels))
        return [repr(labels[h]) for h in np.flatnonzero(counts < 2)]


@dataclass(frozen=True)
class DesignInfo:
    """Survey design metadata.

    ``stratum`` and ``psu`` are per-unit labels, required only for the
    stratified with-replacement design.  Labels are sorted to number the
    strata and PSUs, so the labels of each column must be mutually sortable
    (all strings or all numbers, say); a PSU is identified within its
    stratum.  The labels are stored as read-only copies, which keeps
    :attr:`psu_codes` valid once computed.
    """

    kind: DesignKind = DesignKind.POISSON
    stratum: np.ndarray | None = None
    psu: np.ndarray | None = None

    def __post_init__(self):
        for name in ("stratum", "psu"):
            labels = getattr(self, name)
            if labels is not None:
                object.__setattr__(self, name, _readonly(labels, dtype=None))

    @functools.cached_property
    def psu_codes(self) -> PsuCodes | None:
        """The labels' :class:`PsuCodes`, computed on first use; None when
        either label array is missing.  Raises :class:`DesignError` when
        the labels of a column cannot be sorted against each other."""
        if self.stratum is None or self.psu is None:
            return None
        try:
            strata, stratum_index = _sorted_codes(self.stratum)
            psu_labels, psu_index = _sorted_codes(self.psu)
        except TypeError as exc:
            raise DesignError(
                f"stratum and psu labels must be mutually sortable ({exc})"
            ) from None
        pairs, psu_of_unit = np.unique(
            stratum_index * len(psu_labels) + psu_index, return_inverse=True
        )
        return PsuCodes(strata, psu_of_unit, pairs // len(psu_labels))


@dataclass(frozen=True)
class CohortSample:
    """Nonprobability (volunteer) sample: outcomes plus covariates.

    Every unit carries an implicit weight of one.  ``X`` must contain the
    intercept column of ones in position zero.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "X", _readonly(np.atleast_2d(self.X)))
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"cohort X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.n_c < 1:
            raise ValueError("cohort must contain at least one unit")

    @property
    def n_c(self) -> int:
        return self.X.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SurveySample:
    """Probability reference sample: covariates plus design weights.

    ``d`` holds the design weights (reciprocal inclusion probabilities).
    ``y`` is optional and only used for gold-standard comparisons in
    reporting.
    """

    X: np.ndarray
    d: np.ndarray
    design: DesignInfo = field(default_factory=DesignInfo)
    y: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(np.atleast_2d(self.X)))
        object.__setattr__(self, "d", _readonly(self.d))
        if self.y is not None:
            object.__setattr__(self, "y", _readonly(self.y))
            if self.y.shape[0] != self.X.shape[0]:
                raise ValueError("survey y length does not match X rows")
        if self.d.shape[0] != self.X.shape[0]:
            raise ValueError(
                f"survey X has {self.X.shape[0]} rows but d has {self.d.shape[0]}"
            )

    @property
    def n_p(self) -> int:
        return self.X.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PropensityFit:
    """Solved propensity model.

    ``lam`` is the constant multiplier that was applied to the survey design
    weights while fitting (1 for an unscaled fit).  ``score_norm_path``
    records the scale-free score max-norm at each accepted iterate, starting
    from the initial point; it is non-increasing by construction, and
    :attr:`iterations` and :attr:`final_score_norm` read its length and end.
    """

    beta: np.ndarray
    p_hat_cohort: np.ndarray
    p_hat_survey: np.ndarray
    flavor: FitFlavor
    lam: float
    score_norm_path: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", _readonly(self.beta))
        object.__setattr__(self, "p_hat_cohort", _readonly(self.p_hat_cohort))
        object.__setattr__(self, "p_hat_survey", _readonly(self.p_hat_survey))

    @property
    def iterations(self) -> int:
        return len(self.score_norm_path) - 1

    @property
    def final_score_norm(self) -> float:
        return self.score_norm_path[-1]


@dataclass(frozen=True)
class WeightedEstimate:
    """A pseudo-weighted mean with its linearized variance and 95% interval.

    ``var_hat`` and the interval bounds are ``None`` for the unweighted
    estimator, and the interval is NaN when the variance estimate came out
    negative (possible when many fitted probabilities exceed one half).
    ``warnings`` collects counter-style diagnostics such as
    ``"pi-hat-above-one: 3"``.
    """

    method: str
    mu_hat: float
    weights: np.ndarray
    var_hat: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))


def validate_paired_samples(cohort: CohortSample, survey: SurveySample) -> None:
    """Check that a cohort/survey pair can be analysed together.

    Raises one :class:`ValidationError` listing every violation found in
    its ``violations``.  Checks cover column compatibility, finiteness,
    weight positivity, the intercept contract, and design-label consistency
    for stratified surveys.
    """
    v = []
    if cohort.n_covariates != survey.n_covariates:
        v.append(
            f"covariate column mismatch: cohort has {cohort.n_covariates}, "
            f"survey has {survey.n_covariates}"
        )
    if not np.all(np.isfinite(cohort.y)):
        v.append("non-finite entries in cohort outcome")
    if not np.all(np.isfinite(cohort.X)):
        v.append("non-finite entries in cohort covariates")
    if not np.all(np.isfinite(survey.X)):
        v.append("non-finite entries in survey covariates")
    if not np.all(np.isfinite(survey.d)):
        v.append("non-finite survey design weights")
    else:
        bad = np.flatnonzero(survey.d <= 0)
        for i in bad[:20]:
            v.append(f"nonpositive design weight at row {int(i)}")
        if bad.size > 20:
            v.append(f"... and {bad.size - 20} more nonpositive design weights")
    if not np.all(cohort.X[:, 0] == 1.0):
        v.append("cohort covariate matrix lacks an all-ones intercept in column 0")
    if not np.all(survey.X[:, 0] == 1.0):
        v.append("survey covariate matrix lacks an all-ones intercept in column 0")

    design = survey.design
    if design.kind is DesignKind.STRATIFIED_WR:
        if design.stratum is None or design.psu is None:
            v.append("stratified design requires stratum and psu labels for every unit")
        elif len(design.stratum) != survey.n_p or len(design.psu) != survey.n_p:
            v.append("stratum/psu label length does not match survey rows")
        else:
            try:
                v.extend(
                    f"stratum {label} has < 2 PSUs; collapse it with a neighbouring "
                    "stratum before analysis"
                    for label in design.psu_codes.single_psu_strata()
                )
            except DesignError as exc:
                v.append(str(exc))
    if v:
        raise ValidationError(v)


@dataclass(frozen=True)
class PooledMatrix:
    """Stacked cohort + survey rows for the membership logistic fit.

    Cohort rows come first with membership ``R = 1`` and fit weight one;
    survey rows follow with ``R = 0`` and their (possibly transformed)
    design weights.  ``lam`` records the constant multiplier applied to the
    survey weights (1 under the identity rule).
    """

    X: np.ndarray
    R: np.ndarray
    w: np.ndarray
    n_c: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(self.X))
        object.__setattr__(self, "R", _readonly(self.R))
        object.__setattr__(self, "w", _readonly(self.w))


def rdw_rescale_factor(n_c: int, d: np.ndarray) -> float:
    """Multiplier that makes the survey fit weights total ``sum(d) - n_c``.

    Raises :class:`RescaleError` when the cohort is at least as large as the
    estimated population, which would make the factor nonpositive.
    """
    n_hat_p = float(np.sum(d))
    if n_c >= n_hat_p:
        raise RescaleError(
            f"cohort size {n_c} is not smaller than the survey-estimated "
            f"population size {n_hat_p:.1f}; rescale factor would be nonpositive"
        )
    return (n_hat_p - n_c) / n_hat_p


def default_lambda(n_c: int, d: np.ndarray) -> float:
    """Scale constant that makes the survey fit weights total ``n_c``."""
    return n_c / float(np.sum(d))


def build_pooled_matrix(
    cohort: CohortSample,
    survey: SurveySample,
    survey_weight_multiplier: float = 1.0,
) -> PooledMatrix:
    """Stack the two samples for a membership logistic fit.

    ``survey_weight_multiplier`` implements the per-unit multiplier rule:
    1 for the plain pooled fit, :func:`rdw_rescale_factor` for the rescaled
    fit, or a scale constant such as :func:`default_lambda` for scaled-weight
    fitting.
    """
    if survey_weight_multiplier <= 0:
        raise ValueError("survey weight multiplier must be positive")
    X = np.vstack([cohort.X, survey.X])
    R = np.concatenate([np.ones(cohort.n_c), np.zeros(survey.n_p)])
    w = np.concatenate([np.ones(cohort.n_c), survey_weight_multiplier * survey.d])
    return PooledMatrix(X=X, R=R, w=w, n_c=cohort.n_c, lam=float(survey_weight_multiplier))
