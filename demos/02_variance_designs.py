"""How the reference survey's design enters the variance.

The linearized variance of a pseudo-weighted mean has two parts: a
cohort-side component (who happened to volunteer) and a design-side
component b' D b (which survey units were drawn).  D depends on the survey's
sampling design.  Here the same survey data is declared under three designs
to show the effect on the variance split.
"""

import numpy as np

from pseudoweight import (
    CohortSample,
    DesignInfo,
    DesignKind,
    Method,
    SurveySample,
    design_variance_iid,
    design_variance_poisson,
    design_variance_stratified,
    fit_for_method,
    hajek_mean,
    tl_variance,
)

rng = np.random.default_rng(7)

# cohort of volunteers and a survey with 6 strata x 4 PSUs x 5 units
n_c = 800
Xc = np.column_stack([np.ones(n_c), rng.normal(0.4, 1.0, n_c), rng.normal(size=n_c)])
yc = 2.0 + Xc[:, 1] - 0.5 * Xc[:, 2] + rng.normal(size=n_c)
cohort = CohortSample(y=yc, X=Xc)

strata, psus, rows_X, rows_d = [], [], [], []
for h in range(6):
    shift = rng.normal(0, 0.3)
    for l in range(4):
        bump = rng.normal(0, 0.2)
        for _ in range(5):
            rows_X.append([1.0, rng.normal(shift + bump, 1.0), rng.normal()])
            rows_d.append(rng.uniform(20.0, 45.0))
            strata.append(h)
            psus.append(f"{h}-{l}")
Xp = np.array(rows_X)
d = np.array(rows_d)

# each declaration with the function that builds its design matrix D
designs = {
    "poisson": (DesignInfo(kind=DesignKind.POISSON), design_variance_poisson),
    "stratified": (
        DesignInfo(
            kind=DesignKind.STRATIFIED_WR, stratum=np.array(strata), psu=np.array(psus)
        ),
        design_variance_stratified,
    ),
    "iid": (DesignInfo(kind=DesignKind.IID), design_variance_iid),
}

print(f"{'design':12s} {'estimate':>9s} {'v_cohort':>10s} {'v_design':>10s} {'v_total':>10s}")
print("-" * 55)
for name, (design, design_variance) in designs.items():
    survey = SurveySample(X=Xp, d=d, design=design)
    fit = fit_for_method(Method.ALP, cohort, survey)
    p = fit.p_hat_cohort
    w = (1 - p) / p
    mu = hajek_mean(cohort.y, w)
    # alp's membership-form arrays (a, u, q, factor) do not depend on the
    # design; only D, built on the fitted survey probabilities, does
    v_cohort, v_design = tl_variance(
        cohort, w, mu, w * p, w, p, (1 - p) * (1 - 2 * p),
        lambda: design_variance(survey, fit.p_hat_survey),
    )
    print(
        f"{name:12s} {mu:9.4f} {v_cohort:10.6f} {v_design:10.6f} {v_cohort + v_design:10.6f}"
    )

print()
print("The point estimate never changes (the fit sees only weights), but the")
print("design component moves with the declared structure: stratification")
print("absorbs between-stratum variation while clustering adds within-PSU")
print("correlation, so the three declarations price the survey differently.")
