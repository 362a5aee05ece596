"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-5 share a single desk-scale Monte Carlo study (population of
50,000, survey fraction 2.5 percent, 1,000 replicates per cell) run once per
session.  Criteria 6-10 are self-contained oracle and determinism checks.

The small-sample coverage floor (04b) reads the two 0.5 percent
participation cells at the paper's population of 500,000 (about 2,500
cohort units), the cell size the paper states the floor for.  At desk scale
the cell has about 250 cohort units and every linearized variance there
underestimates the empirical variance, the known-truth ``tw`` weights
included (VR 0.79 log, 0.85 logit): ``tw`` misses the floor under the log
link (0.847) and holds it by a hair under the logit link (0.857), while the
fitted ``alp``/``clw`` weights cover 0.818/0.829 (VR 0.71/0.78).  At the
paper's scale they cover 0.891/0.902.

One check is known to fail and is kept failing rather than loosened: the
scaled-weight estimator having the smallest empirical variance in at least
7 of 8 cells (05b).  ``alps`` is smallest in 6; in both 20 percent cells
``rdw`` and ``fdw`` vary less (v(rdw)/v(alps) 0.82 log, 0.77 logit).  This
is not a desk-scale artifact: at the paper's population the ratios are 0.78
and 0.76, and 0.99 in the log 10 percent cell.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.special import expit

from pseudoweight import (
    CohortSample,
    DesignInfo,
    DesignKind,
    Method,
    PopulationConfig,
    Scenario,
    SurveySample,
    build_pooled_matrix,
    design_variance_poisson,
    design_variance_stratified,
    estimate_from_fit,
    fit_clw_score,
    fit_pooled_logistic,
    generate_population,
    hajek_mean,
    run_monte_carlo,
    tl_variance,
)
from pseudoweight import simulation
from pseudoweight.cli import main
from pseudoweight.estimators import fit_key

from oracles import bias_se, coverage_se, hand_fit, paired_variance_ratio, score_at

DESK_POPULATION = PopulationConfig(N=50_000, seed=2468)
DESK_REPLICATES = 1000
DESK_BASE_SEED = 99
PAPER_POPULATION = PopulationConfig(N=500_000, seed=2468)
F_C_GRID = (0.005, 0.05, 0.10, 0.20)
MAIN_CELLS = (0.05, 0.10, 0.20)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def desk_study():
    """The desk study, run once: its cells by ``(scenario, f_c, method)``,
    and each cell's estimates in replicate order, nan where the method
    excluded the replicate.  The estimates are read by wrapping
    ``simulation._run_replicates``, which leaves the report as it is."""
    runs, real = [], simulation._run_replicates

    def recording(study, cells, replicates):
        runs.append((cells, study.methods, real(study, cells, replicates)))
        return runs[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_run_replicates", recording)
        rep = run_monte_carlo(
            DESK_POPULATION,
            scenarios=(Scenario.LOG_LINK, Scenario.LOGIT_LINK),
            f_c_grid=F_C_GRID,
            replicates=DESK_REPLICATES,
            base_seed=DESK_BASE_SEED,
        )
    ((cells, methods, outcomes),) = runs
    estimates = {
        (cell.scenario.value, cell.f_c_target, m.value): np.array(
            [np.nan if isinstance(r[i], str) else r[i][0] for _, r in cell_outcomes]
        )
        for cell, cell_outcomes in zip(cells, outcomes)
        for i, m in enumerate(methods)
    }
    return {(c.scenario, c.f_c, c.method): c for c in rep.cells}, estimates


@pytest.fixture(scope="module")
def study(desk_study):
    return desk_study[0]


@pytest.fixture(scope="module")
def desk_mu():
    """The desk population's mean, which every %RB is relative to."""
    return generate_population(DESK_POPULATION).mu


def pct_rb(cell, mu):
    """A cell's %RB with its Monte Carlo standard error (:func:`bias_se`)."""
    return f"{cell.pct_rb:.2f}±{100 * bias_se(cell.v_emp, cell.n_replicates) / abs(mu):.2f}"


@pytest.fixture(scope="module")
def paper_scale_small_cells():
    """The two 0.5 percent cells criterion 04b reads, at the paper's scale.

    Replicate seeds depend only on the base seed, scenario, f_c and replicate
    index, so running one method per scenario gives the same numbers as an
    all-methods study of the same population.
    """
    return {
        (s, m): run_monte_carlo(
            PAPER_POPULATION,
            scenarios=(s,),
            f_c_grid=(0.005,),
            methods=(m,),
            replicates=DESK_REPLICATES,
            base_seed=DESK_BASE_SEED,
        ).cells[0]
        for s, m in (("log", "alp"), ("logit", "clw"))
    }


def test_criterion_01_unbiasedness_of_correctly_specified_methods(study, desk_mu):
    checks = []
    for f_c in MAIN_CELLS:
        for m in ("tw", "alp", "alps"):
            checks.append((f"log/{m}@{f_c}", study[("log", f_c, m)]))
        for m in ("tw", "clw"):
            checks.append((f"logit/{m}@{f_c}", study[("logit", f_c, m)]))
    worst = max(checks, key=lambda kv: abs(kv[1].pct_rb))
    ok = all(abs(cell.pct_rb) <= 0.7 for _, cell in checks)
    assert report(
        "01",
        ok,
        f"max |%RB| {abs(worst[1].pct_rb):.2f} at {worst[0]} (bound 0.7); %RB "
        + ", ".join(f"{tag} {pct_rb(cell, desk_mu)}" for tag, cell in checks),
    ), [(tag, cell.pct_rb) for tag, cell in checks]


def test_criterion_02_misspecification_bias_signatures(study, desk_mu):
    clw1 = study[("log", 0.20, "clw")].pct_rb
    rdw1 = study[("log", 0.20, "rdw")].pct_rb
    fdw1 = study[("log", 0.20, "fdw")].pct_rb
    alp2 = study[("logit", 0.20, "alp")].pct_rb
    rdw2 = study[("logit", 0.20, "rdw")].pct_rb
    conditions = {
        "clw log-link positive": 4.0 <= clw1 <= 12.0,
        "rdw log-link": -12.0 <= rdw1 <= -5.0,
        "fdw log-link": -11.0 <= fdw1 <= -4.0,
        "rdw below fdw": abs(rdw1) > abs(fdw1),
        "alp logit-link": -5.0 <= alp2 <= -1.0,
        "rdw logit-link": -13.0 <= rdw2 <= -6.0,
    }
    ok = all(conditions.values())

    def rb(s, m):
        return pct_rb(study[(s, 0.20, m)], desk_mu)

    detail = (
        f"%RB at 20%: log clw {rb('log', 'clw')}, rdw {rb('log', 'rdw')}, "
        f"fdw {rb('log', 'fdw')}; logit alp {rb('logit', 'alp')}, rdw {rb('logit', 'rdw')}"
    )
    assert report("02", ok, detail), conditions


def test_criterion_03_naive_bias(study, desk_mu):
    cells = [study[("log", f_c, "naive")] for f_c in F_C_GRID]
    values = [cell.pct_rb for cell in cells]
    ok = all(-46.0 <= v <= -39.0 for v in values)
    assert report(
        "03", ok, "naive %RB " + ", ".join(pct_rb(cell, desk_mu) for cell in cells)
    ), values


def test_criterion_04a_variance_calibration_main_cells(study):
    rows = []
    for f_c in MAIN_CELLS:
        rows.append(("log/alp", f_c, study[("log", f_c, "alp")]))
        rows.append(("logit/clw", f_c, study[("logit", f_c, "clw")]))
    ok = True
    parts = []
    for tag, f_c, cell in rows:
        good = 0.90 <= cell.vr <= 1.10 and 0.92 <= cell.cp <= 0.97
        ok &= good
        se = coverage_se(cell.cp, cell.n_replicates)
        parts.append(f"{tag}@{f_c}: VR={cell.vr:.2f} CP={cell.cp:.3f}±{se:.3f}")
    assert report("04a", ok, "; ".join(parts)), parts


def test_criterion_04b_small_sample_coverage_floor(paper_scale_small_cells):
    """Coverage floor at 0.5 percent participation, at population 500,000.

    The paper states the floor for a cell of about 2,500 cohort units.  The
    desk study's cell has about 250, where the linearized variance of every
    estimator underestimates: even the known-truth ``tw`` weights have VR
    0.79 and miss the floor under the log link (0.847), and ``clw`` under
    the logit link has VR 0.78 and covers 0.829.  The criterion therefore
    reads its own cells at the paper's scale.
    """
    alp_cell = paper_scale_small_cells[("log", "alp")]
    clw_cell = paper_scale_small_cells[("logit", "clw")]
    alp, clw = alp_cell.cp, clw_cell.cp
    ok = 0.85 <= alp <= 0.97 and 0.85 <= clw <= 0.97
    alp_se, clw_se = (coverage_se(c.cp, c.n_replicates) for c in (alp_cell, clw_cell))
    assert report(
        "04b",
        ok,
        f"0.5% cell coverage at N=500,000: alp {alp:.3f}±{alp_se:.3f}, "
        f"clw {clw:.3f}±{clw_se:.3f} (floor 0.85)",
    ), (alp, clw)


def test_criterion_05a_alp_never_less_efficient_than_clw(desk_study):
    study, estimates = desk_study
    violations = [
        (s, f_c)
        for s in ("log", "logit")
        for f_c in F_C_GRID
        if study[(s, f_c, "alp")].v_emp > 1.05 * study[(s, f_c, "clw")].v_emp
    ]
    ratio = study[("log", 0.20, "clw")].v_emp / study[("log", 0.20, "alp")].v_emp
    ok = not violations and ratio >= 3.0
    # the same ratio over the replicates both kept, with its Monte Carlo error
    a, b = estimates[("log", 0.20, "clw")], estimates[("log", 0.20, "alp")]
    kept = ~(np.isnan(a) | np.isnan(b))
    paired, se = paired_variance_ratio(a[kept], b[kept])
    assert report(
        "05a",
        ok,
        f"violations {violations}, V(clw)/V(alp) at log/20% = {ratio:.2f} "
        f"(paired {paired:.2f}±{se:.2f})",
    ), (violations, ratio)


def test_criterion_05b_scaled_alp_smallest_variance(desk_study):
    study, estimates = desk_study
    wins, ratios = [], []
    for s in ("log", "logit"):
        for f_c in F_C_GRID:
            alps_v = study[(s, f_c, "alps")].v_emp
            rival = min(("alp", "clw", "rdw", "fdw"), key=lambda m: study[(s, f_c, m)].v_emp)
            wins.append(alps_v <= study[(s, f_c, rival)].v_emp)
            # v(best rival)/v(alps) over the replicates both kept
            a, b = estimates[(s, f_c, rival)], estimates[(s, f_c, "alps")]
            kept = ~(np.isnan(a) | np.isnan(b))
            ratio, se = paired_variance_ratio(a[kept], b[kept])
            ratios.append(f"{s}@{f_c} {rival} {ratio:.3f}±{se:.3f}")
    ok = sum(wins) >= 7
    assert report(
        "05b",
        ok,
        f"scaled-weight estimator smallest in {sum(wins)} of 8 cells (need 7); "
        "v(best rival)/v(alps): " + ", ".join(ratios),
    ), wins


def test_property_bias_grows_with_participation(study):
    # reciprocal-probability estimators get more biased as the volunteering
    # rate rises, in both mechanisms (allow a little Monte Carlo slack)
    for s in ("log", "logit"):
        for m in ("rdw", "fdw"):
            rbs = [abs(study[(s, f_c, m)].pct_rb) for f_c in F_C_GRID]
            assert all(b - a >= -0.5 for a, b in zip(rbs, rbs[1:])), (s, m, rbs)


# ---------------------------------------------------------------------------
# criterion 6: solvers vs a staged grid-search oracle


def _staged_grid_argmin(score_batch, p, lo=-5.0, hi=5.0):
    """Coarse-to-fine minimizer of the score norm over a box.

    ``score_batch`` maps a (p, K) matrix of candidate coefficient columns to
    a (p, K) matrix of normalized scores.  Each refinement window spans three
    cells of the previous stage on either side, so an argmin that landed a
    couple of cells off along a flat valley is still recovered.
    """
    center = np.full(p, 0.5 * (lo + hi))
    half = 0.5 * (hi - lo)
    npts = 41
    for _ in range(4):
        axes = [np.linspace(c - half, c + half, npts) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        B = np.stack([g.ravel() for g in grids], axis=0)
        norms = np.linalg.norm(score_batch(B), axis=0)
        center = B[:, int(np.argmin(norms))]
        step = 2 * half / (npts - 1)
        half = 3.0 * step
        npts = 61
    return center


def _pooled_instance(rng):
    p_extra = int(rng.integers(0, 3))
    n_c = int(rng.integers(4, 7))
    n_p = int(rng.integers(5, 8))
    Xc = np.column_stack([np.ones(n_c)] + [rng.normal(0, 0.8, n_c) for _ in range(p_extra)])
    Xp = np.column_stack([np.ones(n_p)] + [rng.normal(0, 0.8, n_p) for _ in range(p_extra)])
    d = rng.uniform(1.5, 3.5, n_p)
    cohort = CohortSample(y=np.zeros(n_c), X=Xc)
    survey = SurveySample(X=Xp, d=d)
    return cohort, survey


def _clw_instance(rng):
    p_extra = int(rng.integers(0, 3))
    n_c = int(rng.integers(3, 6))
    n_p = int(rng.integers(6, 9))
    Xc = np.column_stack([np.ones(n_c)] + [rng.normal(0, 0.8, n_c) for _ in range(p_extra)])
    Xp = np.column_stack([np.ones(n_p)] + [rng.normal(0, 0.8, n_p) for _ in range(p_extra)])
    d = rng.uniform(2.0, 4.0, n_p)
    cohort = CohortSample(y=np.zeros(n_c), X=Xc)
    survey = SurveySample(X=Xp, d=d)
    return cohort, survey


def _solvable_instances(rng, make, solve, count):
    """Draw random instances until ``count`` have an in-box solution.

    Separated or infeasible draws (a real possibility at n <= 12) are
    skipped: the grid oracle can only certify solutions inside its box.
    """
    from pseudoweight import PseudoweightError

    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 40 * count, "instance generator rejects too often"
        cohort, survey = make(rng)
        try:
            fit = solve(cohort, survey)
        except PseudoweightError:
            continue
        if np.abs(fit.beta).max() > 4.5:
            continue
        out.append((cohort, survey, fit))
    return out


def test_criterion_06_solvers_match_grid_search_oracle():
    rng = np.random.default_rng(20260810)
    worst_gap = 0.0
    worst_score = 0.0

    pooled = _solvable_instances(
        rng,
        _pooled_instance,
        lambda c, s: fit_pooled_logistic(build_pooled_matrix(c, s)),
        25,
    )
    for cohort, survey, fit in pooled:
        n_rows = cohort.n_c + survey.n_p

        def batch(B, Xc=cohort.X, Xp=survey.X, d=survey.d, n=n_rows):
            Pc = expit(Xc @ B)
            Pp = expit(Xp @ B)
            return (Xc.T @ (1.0 - Pc) - Xp.T @ (d[:, None] * Pp)) / n

        grid = _staged_grid_argmin(batch, cohort.X.shape[1])
        worst_gap = max(worst_gap, float(np.abs(fit.beta - grid).max()))
        s = score_at(Method.ALP, fit.beta, cohort, survey)
        worst_score = max(worst_score, float(np.abs(s).max()))

    clw = _solvable_instances(rng, _clw_instance, fit_clw_score, 25)
    for cohort, survey, fit in clw:
        n_rows = cohort.n_c + survey.n_p
        target = cohort.X.sum(axis=0)

        def batch(B, Xp=survey.X, d=survey.d, t=target, n=n_rows):
            Pp = expit(Xp @ B)
            return (t[:, None] - Xp.T @ (d[:, None] * Pp)) / n

        grid = _staged_grid_argmin(batch, cohort.X.shape[1])
        worst_gap = max(worst_gap, float(np.abs(fit.beta - grid).max()))
        s = score_at(Method.CLW, fit.beta, cohort, survey)
        worst_score = max(worst_score, float(np.abs(s).max()))

    ok = worst_gap <= 1e-3 and worst_score <= 1e-10
    assert report(
        "06",
        ok,
        f"50 instances: max |solver - grid| {worst_gap:.2e} (tol 1e-3), "
        f"max score norm {worst_score:.2e} (tol 1e-10)",
    ), (worst_gap, worst_score)


def test_criterion_07_closed_form_weight_invariants():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 40))
        p = rng.uniform(0.01, 0.99, n)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        alp, fdw = (estimate_from_fit(m, *hand_fit(X, p)).weights for m in (Method.ALP, Method.FDW))
        ok &= bool(np.all(np.abs(alp - (1 - p) / p) <= 1e-12))
        ok &= bool(np.all(np.abs(fdw - 1.0 / p) <= 1e-12))
        ok &= bool(np.all(np.abs(fdw - alp - 1.0) <= 1e-12))
        ok &= bool(np.all(np.abs(alp * p / (1 - p) - 1.0) <= 1e-12))

        gamma = rng.normal(0, 1, 2)
        clw = estimate_from_fit(Method.CLW, *hand_fit(X, beta=gamma)).weights
        ok &= bool(np.all(np.abs(clw - 1.0 / expit(X @ gamma)) <= 1e-9))

        beta = rng.normal(0, 1, 2)
        shifted = beta + np.array([rng.normal(), 0.0])
        alps, alps_shifted = (
            estimate_from_fit(Method.ALPS, *hand_fit(X, beta=b)).weights for b in (beta, shifted)
        )
        ok &= bool(np.array_equal(alps, alps_shifted))

        y = rng.normal(size=n)
        w = rng.uniform(0.5, 4.0, n)
        c = float(rng.uniform(0.1, 10))
        ok &= abs(hajek_mean(y, w) - hajek_mean(y, c * w)) <= 1e-12

        n_c = int(rng.integers(2, 20))
        d = rng.uniform(1.0, 9.0, int(rng.integers(3, 25)))
        if n_c < d.sum():
            cohort = CohortSample(y=np.zeros(n_c), X=np.ones((n_c, 1)))
            survey = SurveySample(X=np.ones((d.size, 1)), d=d)
            factor = fit_key(Method.RDW, cohort, survey)
            ok &= factor == (d.sum() - n_c) / d.sum()
            ok &= abs((factor * d).sum() - (d.sum() - n_c)) <= 1e-12
            lam = fit_key(Method.ALPS, cohort, survey)
            ok &= lam == n_c / d.sum()
            ok &= abs((lam * d).sum() - n_c) <= 1e-12
    assert report("07", ok, "weight formulas, ratio invariance, rescale identities"), ok


def test_criterion_08_variance_formula_oracles():
    rng = np.random.default_rng(8)
    worst = 0.0

    # 20 randomized instances: cohort component + both design matrices
    for _ in range(20):
        n = int(rng.integers(4, 11))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(2.0, 1.0, n)
        p = rng.uniform(0.05, 0.7, n)
        w = (1 - p) / p
        mu = float(rng.normal(2.0, 0.2))
        cohort = CohortSample(y=y, X=X)
        arrays = w * p, w, p, (1 - p) * (1 - 2 * p)
        # b_j^2 read through the design component with D = e_j e_j'
        b_sq = np.array(
            [tl_variance(cohort, w, mu, *arrays, lambda e=e: np.outer(e, e))[1] for e in np.eye(2)]
        )

        A = np.zeros((2, 2))
        rhs = np.zeros(2)
        for i in range(n):
            A += w[i] * p[i] * np.outer(X[i], X[i])
            rhs += w[i] * (y[i] - mu) * X[i]
        b_ref = np.linalg.inv(A) @ rhs
        worst = max(worst, float(np.abs(b_sq - b_ref**2).max() / max((b_ref**2).max(), 1e-12)))

        v, _ = tl_variance(cohort, w, mu, *arrays)
        total = 0.0
        for i in range(n):
            resid = (y[i] - mu) / p[i] - float(np.dot(b_ref, X[i]))
            total += (1 - p[i]) * (1 - 2 * p[i]) * resid**2
        v_ref = total / float(w.sum()) ** 2
        worst = max(worst, abs(v - v_ref) / max(abs(v_ref), 1e-12))

        m = int(rng.integers(4, 9))
        Xs = np.column_stack([np.ones(m), rng.normal(size=m)])
        d = rng.uniform(1.5, 8.0, m)
        ph = rng.uniform(0.05, 0.5, m)
        D = design_variance_poisson(SurveySample(X=Xs, d=d), ph)
        D_ref = np.zeros((2, 2))
        for i in range(m):
            D_ref += d[i] * (d[i] - 1) * ph[i] ** 2 * np.outer(Xs[i], Xs[i])
        D_ref /= d.sum() ** 2
        worst = max(worst, float(np.abs(D - D_ref).max() / np.abs(D_ref).max()))

        m2 = 8
        Xs2 = np.column_stack([np.ones(m2), rng.normal(size=m2)])
        d2 = rng.uniform(2.0, 6.0, m2)
        ph2 = rng.uniform(0.1, 0.4, m2)
        stratum = np.repeat([0, 1], 4)
        psu = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        survey = SurveySample(
            X=Xs2,
            d=d2,
            design=DesignInfo(kind=DesignKind.STRATIFIED_WR, stratum=stratum, psu=psu),
        )
        D_strat = design_variance_stratified(survey, ph2)
        D_sref = np.zeros((2, 2))
        for h in (0, 1):
            zs = []
            for l in np.unique(psu[stratum == h]):
                rows = (stratum == h) & (psu == l)
                zs.append(((d2 * ph2)[rows, None] * Xs2[rows]).sum(axis=0))
            zs = np.array(zs)
            zbar = zs.mean(axis=0)
            for z in zs:
                D_sref += (len(zs) / (len(zs) - 1)) * np.outer(z - zbar, z - zbar)
        D_sref /= d2.sum() ** 2
        worst = max(worst, float(np.abs(D_strat - D_sref).max() / np.abs(D_sref).max()))

    # brute-force expectation over all Poisson inclusion patterns (<= 10 units)
    for _ in range(2):
        m = 8
        X = np.column_stack([np.ones(m), rng.normal(size=m)])
        pi = rng.uniform(0.25, 0.9, m)
        d = 1.0 / pi
        ph = rng.uniform(0.05, 0.4, m)
        v_unit = (d * ph)[:, None] * X
        ET = (pi[:, None] * v_unit).sum(axis=0)
        V_true = np.zeros((2, 2))
        E_plugin = np.zeros((2, 2))
        for pattern in itertools.product([0, 1], repeat=m):
            inc = np.array(pattern, dtype=bool)
            prob = float(np.prod(np.where(inc, pi, 1 - pi)))
            T = v_unit[inc].sum(axis=0)
            V_true += prob * np.outer(T - ET, T - ET)
            if inc.any():
                D = design_variance_poisson(SurveySample(X=X[inc], d=d[inc]), ph[inc])
                E_plugin += prob * D * float(d[inc].sum()) ** 2
        worst = max(worst, float(np.abs(E_plugin - V_true).max() / np.abs(V_true).max()))

    ok = worst <= 1e-10
    assert report("08", ok, f"max relative mismatch {worst:.2e} (tol 1e-10)"), worst


def test_criterion_09_population_moment_check():
    desk = generate_population(PopulationConfig(N=50_000, seed=2468))
    se = desk.y.std(ddof=1) / np.sqrt(desk.N)
    ok_desk = abs(desk.mu - 3.978) < 3 * se
    full = generate_population(PopulationConfig(N=500_000, seed=2468))
    ok_full = 3.95 <= full.mu <= 4.00
    ok = ok_desk and ok_full
    assert report(
        "09",
        ok,
        f"desk mu {desk.mu:.4f} (analytic 3.978 +- {3 * se:.4f}), full mu {full.mu:.4f}",
    ), (desk.mu, full.mu)


def test_criterion_10_end_to_end_determinism(tmp_path):
    # simulate twice with one config: byte-identical reports
    cfg = {
        "population_size": 4000,
        "population_seed": 11,
        "scenarios": ["log"],
        "f_c_grid": [0.05, 0.2],
        "replicates": 25,
        "base_seed": 13,
        "methods": ["naive", "tw", "alp", "clw"],
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    # self-paired estimate: pseudo-weights of one, mean recovered
    rng = np.random.default_rng(99)
    n = 80
    x1 = rng.normal(size=n).tolist()
    y = (2.0 + 0.5 * np.array(x1) + rng.normal(size=n)).tolist()
    cohort_csv = tmp_path / "cohort.csv"
    survey_csv = tmp_path / "survey.csv"
    cohort_csv.write_text("y,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(y, x1)))
    survey_csv.write_text("x1,w\n" + "".join(f"{b!r},1.0\n" for b in x1))
    out = tmp_path / "est.csv"
    dump = tmp_path / "w.csv"
    code = main(
        [
            "estimate",
            "--cohort", str(cohort_csv),
            "--survey", str(survey_csv),
            "--outcome", "y",
            "--covariates", "x1",
            "--weight", "w",
            "--design", "poisson",
            "--methods", "alp",
            "--out", str(out),
            "--dump-weights", str(dump),
        ]
    )
    weights = np.array(
        [float(line.split(",")[1]) for line in dump.read_text().splitlines()[1:]]
    )
    estimate_value = float(out.read_text().splitlines()[1].split(",")[1])
    weights_ok = bool(np.all(np.abs(weights - 1.0) < 1e-6))
    mean_ok = abs(estimate_value - float(np.mean(y))) < 1e-6

    ok = identical and code == 0 and weights_ok and mean_ok
    assert report(
        "10",
        ok,
        f"byte-identical={identical}, weights-of-one={weights_ok}, "
        f"mean-recovered={mean_ok}",
    ), (identical, weights_ok, mean_ok)
