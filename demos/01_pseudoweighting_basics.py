"""Walk-through: correcting a volunteer sample's selection bias.

We build a small synthetic population in which the probability of
volunteering depends on two covariates that also drive the outcome, draw a
volunteer cohort and an independent probability survey, and compare every
estimator against the known population mean.
"""

import numpy as np
from scipy.special import expit

from pseudoweight import (
    CohortSample,
    DesignInfo,
    DesignKind,
    Method,
    SurveySample,
    estimate,
    validate_paired_samples,
)

rng = np.random.default_rng(42)

# --- a population whose volunteers over-represent low-outcome units
N = 30_000
x1 = rng.normal(size=N)
x2 = rng.exponential(1.0, N)
y = 1.0 + 0.8 * x1 + 1.2 * x2 + rng.normal(size=N)
mu_true = y.mean()

# log participation rate linear in the covariates; both slopes point away
# from high outcomes, so volunteers systematically under-represent them
pi_volunteer = np.exp(-2.2 - 0.45 * x1 - 0.35 * x2)
pi_volunteer = np.clip(pi_volunteer, None, 0.95)

# a modest probability survey with known inclusion probabilities
pi_survey = np.full(N, 0.04)

in_cohort = rng.random(N) < pi_volunteer
in_survey = rng.random(N) < pi_survey

X_all = np.column_stack([np.ones(N), x1, x2])
cohort = CohortSample(y=y[in_cohort], X=X_all[in_cohort])
survey = SurveySample(
    X=X_all[in_survey],
    d=1.0 / pi_survey[in_survey],
    design=DesignInfo(kind=DesignKind.POISSON),
)

print(f"population mean      : {mu_true:.4f}")
print(f"cohort size          : {cohort.n_c}  (naive mean {cohort.y.mean():.4f})")
print(f"survey size          : {survey.n_p}  (weight total {survey.d.sum():.0f})")
print()

# raises a ValidationError listing every violation if the pair is unusable
validate_paired_samples(cohort, survey)

# --- run every method; the true-weight oracle gets the real probabilities
header = f"{'method':6s} {'estimate':>9s} {'std.err':>8s} {'95% interval':>20s} {'bias':>8s}"
print(header)
print("-" * len(header))
for method in Method:
    result = estimate(
        method,
        cohort,
        survey,
        true_participation=pi_volunteer[in_cohort] if method is Method.TW else None,
    )
    se = np.sqrt(result.var_hat) if result.var_hat is not None else float("nan")
    interval = (
        f"[{result.ci_low:8.4f}, {result.ci_high:8.4f}]"
        if result.ci_low is not None
        else " " * 20
    )
    print(
        f"{result.method:6s} {result.mu_hat:9.4f} {se:8.4f} {interval:>20s} "
        f"{result.mu_hat - mu_true:+8.4f}"
    )

print()
print("The unweighted cohort mean misses the population mean by several of its")
print("own standard errors; every propensity-weighted estimator pulls the")
print("estimate back onto the truth, at the price of a wider interval.")
