import itertools
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoweight import (
    CohortSample,
    DesignError,
    DesignInfo,
    DesignKind,
    Method,
    SurveySample,
    design_variance_iid,
    design_variance_poisson,
    design_variance_stratified,
    estimate,
    estimate_each,
    estimate_from_fit,
    fit_for_method,
    tl_variance,
)

from oracles import linearized_variance

# frozen 5-unit instance solved by an explicit 2x2 inverse before the
# module existed
B_HAT_X = np.array(
    [
        [1.0, 0.03419277],
        [1.0, 1.35974754],
        [1.0, 1.22472108],
        [1.0, -0.51030708],
        [1.0, -0.29796951],
    ]
)
B_HAT_Y = np.array([1.47261581, 2.56972636, 1.94393556, 2.74688562, 0.1526752])
B_HAT_P = np.array([0.24759725, 0.30455601, 0.36513718, 0.21012353, 0.15518723])
B_HAT_EXPECTED = np.array([-1.00828791, 1.64603764])


def random_cohort(rng, n=10, p_extra=1):
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p_extra)])
    y = rng.normal(2.0, 1.0, n)
    return CohortSample(y=y, X=X)


def explicit_b(c, a, u, mu):
    """``b`` of ``(sum a x x') b = sum u (y - mu) x``, by a loop and an
    explicit inverse."""
    k = c.n_covariates
    A = np.zeros((k, k))
    rhs = np.zeros(k)
    for i in range(c.n_c):
        A += a[i] * np.outer(c.X[i], c.X[i])
        rhs += u[i] * (c.y[i] - mu) * c.X[i]
    return np.linalg.inv(A) @ rhs


def assert_b(c, a, u, mu, b_ref, rtol):
    """``tl_variance`` solves ``(a, u)`` for ``b_ref``.

    The design component ``b' D b`` with ``D = e_j e_j'`` reads ``b_j^2``.
    With ``q``, ``factor`` and the weights set to one, the cohort component
    is ``sum ((y - mu) - b.x)^2 / n^2``, which also carries ``b``'s sign.
    """
    ones = np.ones(c.n_c)
    parts = [
        tl_variance(c, ones, mu, a, u, ones, ones, lambda e=e: np.outer(e, e))
        for e in np.eye(c.n_covariates)
    ]
    np.testing.assert_allclose([v_design for _, v_design in parts], b_ref**2, rtol=rtol, atol=1e-24)
    resid = (c.y - mu) - c.X @ b_ref
    assert parts[0][0] == pytest.approx(float(resid @ resid) / c.n_c**2, rel=rtol, abs=1e-24)


class TestBHat:
    def test_zero_when_outcome_constant(self):
        c = CohortSample(y=np.full(4, 3.3), X=np.column_stack([np.ones(4), np.arange(4.0)]))
        assert_b(c, np.full(4, 0.3), np.ones(4), 3.3, np.zeros(2), rtol=1e-12)

    def test_intercept_only_scalar_reduction(self):
        y = np.array([1.0, 2.0, 4.0])
        p = np.array([0.2, 0.3, 0.4])
        c = CohortSample(y=y, X=np.ones((3, 1)))
        assert_b(c, p, np.ones(3), 2.0, np.array([(y - 2.0).sum() / p.sum()]), rtol=1e-12)

    def test_matches_frozen_dense_solve(self):
        c = CohortSample(y=B_HAT_Y, X=B_HAT_X)
        assert_b(c, B_HAT_P, np.ones(5), 1.8, B_HAT_EXPECTED, rtol=1e-7)

    def test_weighted_variant_scales_both_sums(self):
        rng = np.random.default_rng(21)
        c = random_cohort(rng)
        p = rng.uniform(0.1, 0.5, c.n_c)
        w = (1 - p) / p
        assert_b(c, w * p, w, 1.9, explicit_b(c, w * p, w, 1.9), rtol=1e-10)

    def test_residual_of_defining_system(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            c = random_cohort(rng, n=12, p_extra=2)
            p = rng.uniform(0.05, 0.6, c.n_c)
            w = (1 - p) / p
            A = c.X.T @ ((w * p)[:, None] * c.X)
            rhs = (w * (c.y - 2.1)) @ c.X
            assert_b(c, w * p, w, 2.1, np.linalg.inv(A) @ rhs, rtol=1e-8)


class TestCohortComponent:
    def test_zero_when_residuals_vanish(self):
        c = CohortSample(y=np.full(4, 1.1), X=np.ones((4, 1)))
        v = tl_variance(c, np.ones(4), 1.1, None, None, np.full(4, 0.3), np.full(4, 0.7 * 0.4))
        assert v == (0.0, 0.0)

    def test_single_unit_arithmetic(self):
        # p = 0.2, y - mu = 1, b = 0, weight total 4:
        # (1/16) * 0.8 * 0.6 * 25 = 0.75
        c = CohortSample(y=np.array([3.0]), X=np.ones((1, 1)))
        v_cohort, _ = tl_variance(
            c, np.array([4.0]), 2.0, None, None, np.array([0.2]), np.array([0.8 * 0.6])
        )
        assert v_cohort == pytest.approx(0.75, abs=1e-12)

    def test_matches_independent_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = random_cohort(rng, n=10, p_extra=1)
            p = rng.uniform(0.05, 0.7, c.n_c)
            w = (1 - p) / p
            mu = float(rng.normal(2.0, 0.3))
            v, _ = tl_variance(c, w, mu, *membership_arrays(w, p))
            b = explicit_b(c, w * p, w, mu)
            total = 0.0
            for i in range(c.n_c):
                resid = (c.y[i] - mu) / p[i] - float(np.dot(b, c.X[i]))
                total += (1 - p[i]) * (1 - 2 * p[i]) * resid**2
            expected = total / float(w.sum()) ** 2
            assert v == pytest.approx(expected, rel=1e-10)

    def test_participation_form_matches_loop(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            c = random_cohort(rng, n=9, p_extra=1)
            pi = rng.uniform(0.05, 0.6, c.n_c)
            w = 1.0 / pi
            mu = 2.0
            v, _ = tl_variance(c, w, mu, 1 - pi, (1 - pi) / pi, pi, 1 - pi)
            b = explicit_b(c, 1 - pi, (1 - pi) / pi, mu)
            total = 0.0
            for i in range(c.n_c):
                resid = (c.y[i] - mu) / pi[i] - float(np.dot(b, c.X[i]))
                total += (1 - pi[i]) * resid**2
            assert v == pytest.approx(total / float(w.sum()) ** 2, rel=1e-10)



class TestPoissonDesign:
    def test_census_weights_give_zero(self):
        survey = SurveySample(X=np.column_stack([np.ones(5), np.arange(5.0)]), d=np.ones(5))
        D = design_variance_poisson(survey, np.full(5, 0.3))
        np.testing.assert_array_equal(D, np.zeros((2, 2)))

    def test_single_unit_arithmetic(self):
        # d = 2, p = 0.5, x = (1): (1/4) * 2 * 1 * 0.25 = 0.125
        survey = SurveySample(X=np.ones((1, 1)), d=np.array([2.0]))
        D = design_variance_poisson(survey, np.array([0.5]))
        assert D[0, 0] == pytest.approx(0.125, abs=1e-14)

    def test_weight_below_one_rejected(self):
        survey = SurveySample(X=np.ones((2, 1)), d=np.array([0.5, 2.0]))
        with pytest.raises(DesignError):
            design_variance_poisson(survey, np.array([0.3, 0.3]))

    def test_matches_enumeration_oracle(self):
        # enumerate every inclusion pattern of 8 units and check that the
        # plug-in (rescaled by its own normalizer) is unbiased for the true
        # design variance of the weighted total
        rng = np.random.default_rng(25)
        for _ in range(3):
            m = 8
            X = np.column_stack([np.ones(m), rng.normal(size=m)])
            pi = rng.uniform(0.25, 0.9, m)
            d = 1.0 / pi
            p_hat = rng.uniform(0.05, 0.4, m)
            v_unit = (d * p_hat)[:, None] * X
            ET = (pi[:, None] * v_unit).sum(axis=0)
            V_true = np.zeros((2, 2))
            E_plugin = np.zeros((2, 2))
            for pattern in itertools.product([0, 1], repeat=m):
                inc = np.array(pattern, dtype=bool)
                prob = float(np.prod(np.where(inc, pi, 1 - pi)))
                T = v_unit[inc].sum(axis=0)
                V_true += prob * np.outer(T - ET, T - ET)
                if inc.any():
                    sub = SurveySample(X=X[inc], d=d[inc])
                    D = design_variance_poisson(sub, p_hat[inc])
                    E_plugin += prob * D * float(d[inc].sum()) ** 2
            np.testing.assert_allclose(E_plugin, V_true, rtol=1e-10, atol=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(26)
        X = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
        survey = SurveySample(X=X, d=rng.uniform(1.5, 9.0, 30))
        D = design_variance_poisson(survey, rng.uniform(0.05, 0.5, 30))
        np.testing.assert_allclose(D, D.T, atol=1e-15)
        assert np.linalg.eigvalsh(D).min() >= -1e-12


def stratified_survey(rng, strata_sizes=(6, 8, 4), psus_per_stratum=(2, 3, 2)):
    X_rows, d, stratum, psu = [], [], [], []
    label = 0
    for h, (n_h, a_h) in enumerate(zip(strata_sizes, psus_per_stratum)):
        for i in range(n_h):
            X_rows.append([1.0, rng.normal()])
            d.append(rng.uniform(2.0, 6.0))
            stratum.append(f"h{h}")
            psu.append(f"psu{label + i % a_h}")
        label += a_h
    design = DesignInfo(
        kind=DesignKind.STRATIFIED_WR, stratum=np.array(stratum), psu=np.array(psu)
    )
    return SurveySample(X=np.array(X_rows), d=np.array(d), design=design)


def textbook_stratified(survey, p_hat, multiplier=1.0):
    """Independent re-implementation of the stratified design matrix:
    dict-of-lists grouping of PSU totals, one outer product per PSU."""
    w = multiplier * survey.d
    z_tot = {}
    for i in range(survey.n_p):
        key = (survey.design.stratum[i], survey.design.psu[i])
        z_tot.setdefault(key, np.zeros(survey.n_covariates))
        z_tot[key] += w[i] * p_hat[i] * survey.X[i]
    D_ref = np.zeros((survey.n_covariates, survey.n_covariates))
    for h in sorted({k[0] for k in z_tot}):
        zs = np.array([z_tot[k] for k in sorted(z_tot) if k[0] == h])
        a_h = len(zs)
        zbar = zs.mean(axis=0)
        for z in zs:
            D_ref += (a_h / (a_h - 1)) * np.outer(z - zbar, z - zbar)
    return D_ref / w.sum() ** 2


class TestStratifiedDesign:
    def test_identical_psu_totals_give_zero(self):
        # two PSUs per stratum with identical rows: zero deviations
        X = np.ones((4, 1))
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.array(["a", "a", "a", "a"]),
            psu=np.array([1, 1, 2, 2]),
        )
        survey = SurveySample(X=X, d=np.full(4, 3.0), design=design)
        D = design_variance_stratified(survey, np.full(4, 0.2))
        np.testing.assert_allclose(D, 0.0, atol=1e-15)

    def test_two_psu_closed_form(self):
        # one stratum, two PSUs: D = (z1 - z2)(z1 - z2)^T / N_p^2
        X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.zeros(4, dtype=int),
            psu=np.array([0, 0, 1, 1]),
        )
        d = np.array([2.0, 3.0, 4.0, 5.0])
        p_hat = np.array([0.1, 0.2, 0.3, 0.4])
        survey = SurveySample(X=X, d=d, design=design)
        D = design_variance_stratified(survey, p_hat)
        z = (d * p_hat)[:, None] * X
        z1, z2 = z[:2].sum(axis=0), z[2:].sum(axis=0)
        expected = np.outer(z1 - z2, z1 - z2) / d.sum() ** 2
        np.testing.assert_allclose(D, expected, rtol=1e-12)

    def test_matches_textbook_loop(self):
        rng = np.random.default_rng(27)
        survey = stratified_survey(rng)
        p_hat = rng.uniform(0.1, 0.4, survey.n_p)
        D = design_variance_stratified(survey, p_hat)
        np.testing.assert_allclose(D, textbook_stratified(survey, p_hat), rtol=1e-10)

    def test_single_psu_stratum_rejected(self):
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.array(["a", "a", "b"]),
            psu=np.array([1, 2, 3]),
        )
        survey = SurveySample(X=np.ones((3, 1)), d=np.ones(3) * 2, design=design)
        with pytest.raises(DesignError, match="stratum 'b' has a single PSU"):
            design_variance_stratified(survey, np.full(3, 0.2))

    def test_unsortable_labels_rejected(self):
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.array(["a", 1, "a", 1], dtype=object),
            psu=np.array([1, 2, 3, 4]),
        )
        survey = SurveySample(X=np.ones((4, 1)), d=np.full(4, 2.0), design=design)
        with pytest.raises(DesignError, match="must be mutually sortable"):
            design_variance_stratified(survey, np.full(4, 0.2))

    def test_iid_treats_units_as_psus(self):
        rng = np.random.default_rng(28)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        survey = SurveySample(X=X, d=rng.uniform(2.0, 5.0, 12))
        p_hat = rng.uniform(0.1, 0.4, 12)
        D = design_variance_iid(survey, p_hat)
        z = (survey.d * p_hat)[:, None] * X
        dev = z - z.mean(axis=0)
        expected = (12 / 11) * dev.T @ dev / survey.d.sum() ** 2
        np.testing.assert_allclose(D, expected, rtol=1e-12)


def membership_arrays(w, p):
    """The membership form's ``(a, u, q, factor)`` on probabilities ``p``."""
    return w * p, w, p, (1 - p) * (1 - 2 * p)


class TestTlVariance:
    def make_pair(self, seed=30, n_c=80, n_p=60):
        rng = np.random.default_rng(seed)
        Xc = np.column_stack([np.ones(n_c), rng.normal(0.3, 1.0, n_c)])
        yc = 1.5 + Xc[:, 1] + rng.normal(size=n_c)
        Xp = np.column_stack([np.ones(n_p), rng.normal(size=n_p)])
        d = rng.uniform(4.0, 9.0, n_p)
        return (
            CohortSample(y=yc, X=Xc),
            SurveySample(X=Xp, d=d, design=DesignInfo(kind=DesignKind.POISSON)),
        )

    def alp_variance(self, cohort, survey, mu=None):
        fit = fit_for_method(Method.ALP, cohort, survey)
        p = fit.p_hat_cohort
        w = (1 - p) / p
        if mu is None:
            mu = float(np.sum(w * cohort.y) / w.sum())
        design = partial(design_variance_poisson, survey, fit.p_hat_survey)
        return tl_variance(cohort, w, mu, *membership_arrays(w, p), design)

    def test_census_survey_kills_design_component(self):
        cohort, survey = self.make_pair()
        census = SurveySample(X=survey.X, d=np.ones(survey.n_p))
        _, v_design = self.alp_variance(cohort, census)
        assert v_design == 0.0

    def test_constant_outcome_gives_zero_variance(self):
        cohort, survey = self.make_pair()
        const = CohortSample(y=np.full(cohort.n_c, 2.2), X=cohort.X)
        v_cohort, v_design = self.alp_variance(const, survey, mu=2.2)
        assert v_cohort + v_design == pytest.approx(0.0, abs=1e-18)

    def test_breakdown_adds_up(self):
        cohort, survey = self.make_pair()
        v_cohort, v_design = self.alp_variance(cohort, survey)
        res = estimate(Method.ALP, cohort, survey)
        assert res.var_hat == pytest.approx(v_cohort + v_design, rel=1e-12)
        assert v_design >= 0.0
        assert res.warnings == ()

    def test_scaled_weights_enter_design_matrix_literally(self):
        # under Poisson sampling, using (lam * d, p) inside the design matrix
        # differs from using (d, lam * p): only lam = 1 makes them equal
        cohort, survey = self.make_pair(seed=31)
        fit = fit_for_method(Method.ALPS, cohort, survey)
        lam = fit.lam
        assert lam != 1.0
        p_s = fit.p_hat_survey
        D_scaled_weights = design_variance_poisson(survey, p_s, weight_multiplier=lam)
        D_absorbed = design_variance_poisson(survey, lam * p_s, weight_multiplier=1.0)
        assert not np.allclose(D_scaled_weights, D_absorbed, rtol=1e-6)
        # the total that normalizes the matrix is the scaled one
        w = lam * survey.d
        expected = ((w * (w - 1.0) * p_s**2)[:, None] * survey.X).T @ survey.X / w.sum() ** 2
        np.testing.assert_allclose(D_scaled_weights, expected, rtol=1e-12)

    def test_negative_component_warned_not_raised(self):
        # probabilities above one half make (1 - 2p) negative
        rng = np.random.default_rng(32)
        n = 12
        c = CohortSample(
            y=rng.normal(size=n), X=np.column_stack([np.ones(n), rng.normal(size=n)])
        )
        survey = SurveySample(X=c.X.copy(), d=np.full(n, 1.5))
        fit = fit_for_method(Method.ALP, c, survey)
        p_fake = np.full(n, 0.75)
        w = (1 - p_fake) / p_fake
        design = partial(design_variance_poisson, survey, fit.p_hat_survey)
        v_cohort, v_design = tl_variance(
            c, w, float(c.y.mean()), *membership_arrays(w, p_fake), design
        )
        assert v_cohort < 0
        # estimate_from_fit reports the sum and names the negative component
        res = estimate_from_fit(Method.ALP, replace(fit, p_hat_cohort=p_fake), c, survey)
        assert res.var_hat == v_cohort + v_design
        assert "negative-cohort-component" in res.warnings

    def test_fixed_weight_variance_matches_loop(self):
        # a=None: the weights are fixed, so b = 0 and there is no design term
        rng = np.random.default_rng(33)
        n = 15
        c = CohortSample(y=rng.normal(2.0, 1.0, n), X=np.ones((n, 1)))
        pi = rng.uniform(0.1, 0.6, n)
        mu = 2.0
        w = 1.0 / pi
        expected = float(np.sum((1 - pi) * w**2 * (c.y - mu) ** 2) / w.sum() ** 2)
        v_cohort, v_design = tl_variance(c, w, mu, None, None, pi, 1 - pi)
        assert v_cohort == pytest.approx(expected, rel=1e-12)
        assert v_design == 0.0

    def test_clw_variance_uses_participation_form(self):
        cohort, survey = self.make_pair(seed=34)
        fit = fit_for_method(Method.CLW, cohort, survey)
        res = estimate(Method.CLW, cohort, survey)
        pi, mu = fit.p_hat_cohort, res.mu_hat
        D = design_variance_poisson(survey, fit.p_hat_survey)
        v_cohort, v_design = tl_variance(
            cohort, res.weights, mu, 1 - pi, (1 - pi) / pi, pi, 1 - pi, lambda: D
        )
        assert res.var_hat == pytest.approx(v_cohort + v_design, rel=1e-12)


def designed_pair(kind, seed=35, n_c=150):
    """A cohort with its true participation rates, and a survey of 6
    strata x 4 PSUs x 5 units declared under ``kind``."""
    rng = np.random.default_rng(seed)
    Xc = np.column_stack([np.ones(n_c), rng.normal(0.4, 1.0, n_c), rng.normal(size=n_c)])
    yc = 2.0 + Xc[:, 1] - 0.5 * Xc[:, 2] + rng.normal(size=n_c)
    n_p = 120
    Xp = np.column_stack([np.ones(n_p), rng.normal(size=n_p), rng.normal(size=n_p)])
    stratum, psu = np.repeat(np.arange(6), 20), np.repeat(np.arange(24), 5) % 4
    design = DesignInfo(kind=kind, stratum=stratum, psu=psu)
    return (
        CohortSample(y=yc, X=Xc),
        SurveySample(X=Xp, d=rng.uniform(3.0, 9.0, n_p), design=design),
        rng.uniform(0.05, 0.4, n_c),
    )


VARIANCE_METHODS = (Method.TW, Method.ALP, Method.FDW, Method.RDW, Method.CLW, Method.ALPS)


@pytest.mark.parametrize("kind", list(DesignKind), ids=lambda k: k.value)
@pytest.mark.parametrize("method", VARIANCE_METHODS, ids=lambda m: m.value)
def test_every_method_variance_matches_loop_reference(method, kind):
    cohort, survey, pi = designed_pair(kind)
    results = estimate_each(VARIANCE_METHODS, cohort, survey, true_participation=pi)
    got = results[VARIANCE_METHODS.index(method)]
    fit = fit_for_method(method, cohort, survey)
    expected = linearized_variance(method, fit, cohort, survey, pi)
    assert got.var_hat == pytest.approx(expected, rel=1e-10)


# Property tests over random stratum/PSU layouts.  Examples are derandomized
# so the suite reads the same cases on every run.  Tolerances are set from
# float64 rounding: entries near zero after cancellation are judged against
# the matrix's largest entry.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def stratified_layouts(draw):
    """Integer stratum and PSU labels for 1-5 strata of 2-5 PSUs each, 1-4
    units per PSU, rows shuffled; PSU labels recur across strata, so a PSU
    is only identified by its stratum.  Also an intercept plus 0-2 normal
    covariates, design weights of at least one and fitted probabilities."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stratum, psu = [], []
    for h in rng.choice(100, draw(st.integers(1, 5)), replace=False):
        for label in rng.choice(10, draw(st.integers(2, 5)), replace=False):
            m = draw(st.integers(1, 4))
            stratum += [h] * m
            psu += [label] * m
    order = rng.permutation(len(stratum))
    n = len(order)
    X = np.column_stack(
        [np.ones(n)] + [rng.normal(size=n) for _ in range(draw(st.integers(0, 2)))]
    )
    return (
        np.array(stratum)[order],
        np.array(psu)[order],
        X,
        rng.uniform(1.0, 10.0, n),
        rng.uniform(0.01, 0.99, n),
    )


def layout_survey(stratum, psu, X, d, kind=DesignKind.STRATIFIED_WR):
    return SurveySample(X=X, d=d, design=DesignInfo(kind=kind, stratum=stratum, psu=psu))


def assert_close_to_scale(D, expected, rtol):
    np.testing.assert_allclose(D, expected, rtol=rtol, atol=rtol * np.abs(expected).max())


@PROPERTY_SETTINGS
@given(layout=stratified_layouts(), multiplier=st.floats(0.1, 3.0))
def test_stratified_matches_textbook_loop(layout, multiplier):
    stratum, psu, X, d, p_hat = layout
    survey = layout_survey(stratum, psu, X, d)
    D = design_variance_stratified(survey, p_hat, multiplier)
    assert_close_to_scale(D, textbook_stratified(survey, p_hat, multiplier), 1e-10)


@PROPERTY_SETTINGS
@given(layout=stratified_layouts())
def test_every_design_gives_symmetric_psd_matrix(layout):
    stratum, psu, X, d, p_hat = layout
    for design_variance in (
        design_variance_poisson,
        design_variance_stratified,
        design_variance_iid,
    ):
        D = design_variance(layout_survey(stratum, psu, X, d), p_hat)
        scale = np.abs(D).max()
        np.testing.assert_allclose(D, D.T, rtol=0, atol=1e-14 * scale)
        assert np.linalg.eigvalsh(D).min() >= -1e-12 * scale


@PROPERTY_SETTINGS
@given(layout=stratified_layouts(), seed=st.integers(0, 2**32 - 1))
def test_stratified_invariant_to_row_order_and_label_type(layout, seed):
    stratum, psu, X, d, p_hat = layout
    D = design_variance_stratified(layout_survey(stratum, psu, X, d), p_hat)
    perm = np.random.default_rng(seed).permutation(len(d))
    shuffled = layout_survey(stratum[perm], psu[perm], X[perm], d[perm])
    assert_close_to_scale(design_variance_stratified(shuffled, p_hat[perm]), D, 1e-12)
    # string labels sort differently ("10" < "9"): strata and PSUs are
    # numbered in another order, the matrix stays the same
    as_text = layout_survey(stratum.astype(str), psu.astype(str), X, d)
    assert_close_to_scale(design_variance_stratified(as_text, p_hat), D, 1e-12)


@PROPERTY_SETTINGS
@given(layout=stratified_layouts(), multiplier=st.floats(0.1, 3.0))
def test_iid_matches_closed_form(layout, multiplier):
    _, _, X, d, p_hat = layout
    w = multiplier * d
    dev = (w * p_hat)[:, None] * X
    dev -= dev.mean(axis=0)
    n = len(d)
    expected = (n / (n - 1)) * dev.T @ dev / w.sum() ** 2
    D = design_variance_iid(SurveySample(X=X, d=d), p_hat, multiplier)
    assert_close_to_scale(D, expected, 1e-12)


def add_at_psu_matrix(X, w, p_hat, psu_of_unit, stratum_of_psu):
    """The with-replacement PSU matrix with its PSU totals summed by
    np.add.at: the reference the package's PSU totals must match bit for
    bit."""
    z_psu = np.zeros((len(stratum_of_psu), X.shape[1]))
    np.add.at(z_psu, psu_of_unit, (w * p_hat)[:, None] * X)
    D = np.zeros((X.shape[1], X.shape[1]))
    for z in np.split(z_psu, np.flatnonzero(np.diff(stratum_of_psu)) + 1):
        a_h = len(z)
        dev = z - z.mean(axis=0)
        D += (a_h / (a_h - 1.0)) * dev.T @ dev
    return D / float(np.sum(w)) ** 2


@PROPERTY_SETTINGS
@given(layout=stratified_layouts(), multiplier=st.floats(0.1, 3.0))
def test_psu_matrices_match_add_at_reference_bit_for_bit(layout, multiplier):
    stratum, psu, X, d, p_hat = layout
    survey = layout_survey(stratum, psu, X, d)
    codes = survey.design.psu_codes
    n, w = len(d), multiplier * d
    stratified = add_at_psu_matrix(X, w, p_hat, codes.psu_of_unit, codes.stratum_of_psu)
    iid = add_at_psu_matrix(X, w, p_hat, np.arange(n), np.zeros(n, dtype=int))
    assert design_variance_stratified(survey, p_hat, multiplier).tobytes() == stratified.tobytes()
    assert design_variance_iid(survey, p_hat, multiplier).tobytes() == iid.tobytes()
