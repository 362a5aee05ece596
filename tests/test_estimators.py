import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pseudoweight import (
    CohortSample,
    DomainError,
    EmptyInputError,
    Method,
    MethodSpec,
    PseudoweightError,
    RescaleError,
    SurveySample,
    ValidationError,
    estimate,
    estimate_each,
    estimate_from_fit,
    fit_for_method,
    hajek_mean,
)

from oracles import hand_fit, pseudo_weights

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def weights(method, X, p=None, beta=None):
    """The weights ``estimate_from_fit`` gives ``method`` on a hand-made fit."""
    return estimate_from_fit(method, *hand_fit(X, p, beta)).weights


def two_columns(n):
    return np.column_stack([np.ones(n), np.arange(n, dtype=float)])


class TestWeightFormulas:
    def test_alp_examples(self):
        w = weights(Method.ALP, two_columns(3), p=np.array([1 / 3, 0.5, 0.01]))
        np.testing.assert_allclose(w, [2.0, 1.0, 99.0], atol=1e-10)

    def test_alp_rejects_out_of_domain(self):
        for p in ([0.0, 0.3], [1.0, 0.3], [np.nan, 0.3]):
            with pytest.raises(DomainError):
                weights(Method.ALP, two_columns(2), p=np.array(p))

    def test_fdw_examples(self):
        p = np.array([1 / 3, 0.5, 0.01])
        w_f = weights(Method.FDW, two_columns(3), p=p)
        np.testing.assert_allclose(w_f[:2], [3.0, 2.0], atol=1e-12)
        # at p = 0.01 the two weights differ by 1 percent relative
        w_a = weights(Method.ALP, two_columns(3), p=p)
        assert (w_f[2] - w_a[2]) / w_f[2] == pytest.approx(0.01, rel=1e-9)

    def test_fdw_minus_alp_is_one_elementwise(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.01, 0.99, 200)
        X = two_columns(200)
        np.testing.assert_allclose(
            weights(Method.FDW, X, p=p) - weights(Method.ALP, X, p=p), 1.0, atol=1e-12
        )

    def test_odds_consistency(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.01, 0.99, 200)
        np.testing.assert_allclose(
            weights(Method.ALP, two_columns(200), p=p) * p / (1 - p), 1.0, atol=1e-12
        )

    def test_rdw_is_reciprocal_probability(self):
        # the rescaled fit estimates the participation rate directly
        cohort, survey = synthetic_pair()
        fit = fit_for_method(Method.RDW, cohort, survey)
        res = estimate_from_fit(Method.RDW, fit, cohort, survey)
        np.testing.assert_allclose(res.weights * fit.p_hat_cohort, 1.0, atol=1e-12)

    def test_clw_examples(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(weights(Method.CLW, X, beta=np.zeros(2)), 2.0, atol=1e-12)
        gamma = np.array([np.log(0.05 / 0.95), 0.0])
        np.testing.assert_allclose(weights(Method.CLW, X, beta=gamma), 20.0, rtol=1e-12)

    def test_clw_matches_direct_reciprocal(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(50), rng.normal(size=50), rng.normal(size=50)])
        gamma = np.array([-2.0, 0.4, -0.3])
        from scipy.special import expit

        np.testing.assert_allclose(
            weights(Method.CLW, X, beta=gamma), 1.0 / expit(X @ gamma), rtol=1e-12
        )

    def test_alps_slope_only(self):
        X = two_columns(3)
        beta = np.array([7.5, 0.4])  # intercept must not matter
        w = weights(Method.ALPS, X, beta=beta)
        np.testing.assert_allclose(w, np.exp(-0.4 * np.array([0.0, 1.0, 2.0])), rtol=1e-12)

    def test_alps_intercept_invariance_bit_identical(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
        beta = np.array([-1.2, 0.3, -0.7])
        shifted = beta + np.array([123.456, 0.0, 0.0])
        assert np.array_equal(
            weights(Method.ALPS, X, beta=beta), weights(Method.ALPS, X, beta=shifted)
        )

    def test_alps_zero_slopes_give_unit_weights(self):
        w = weights(Method.ALPS, two_columns(5), beta=np.array([3.0, 0.0]))
        np.testing.assert_array_equal(w, np.ones(5))

    def test_alps_weight_ratio_follows_coordinate_gap(self):
        X = np.column_stack([np.ones(2), [1.0, 1.5]])
        w = weights(Method.ALPS, X, beta=np.array([0.0, 0.8]))
        assert w[0] / w[1] == pytest.approx(np.exp(0.8 * 0.5), rel=1e-12)

    @pytest.mark.parametrize("method", [m for m in Method if m is not Method.TW])
    def test_every_method_weights_as_the_reference(self, method):
        cohort, survey = synthetic_pair(seed=8)
        fit = fit_for_method(method, cohort, survey)
        res = estimate_from_fit(method, fit, cohort, survey)
        np.testing.assert_allclose(res.weights, pseudo_weights(method, fit, cohort.X), rtol=1e-12)


class TestHajekMean:
    def test_arithmetic_example(self):
        assert hajek_mean(np.array([0.0, 4.0]), np.array([1.0, 3.0])) == pytest.approx(3.0)

    def test_equal_weights_is_plain_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        assert hajek_mean(y, np.full(3, 2.5)) == pytest.approx(y.mean())

    @PROPERTY_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(
                # outcomes kept clear of underflow, where products lose their bits
                st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-200),
                st.floats(1e-3, 1e3),
            ),
            min_size=1,
            max_size=50,
        ),
        scale=st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, rows, scale):
        y, w = np.array(rows).T
        a = hajek_mean(y, w)
        b = hajek_mean(y, scale * w)
        # rounding in the two sums is bounded by the size of the outcomes
        assert a == pytest.approx(b, rel=0, abs=1e-12 * np.abs(y).max())

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        loc=st.floats(-1e6, 1e6),
        spread=st.floats(1e-3, 1e6),
    )
    def test_unit_weights_give_the_plain_mean_bit_for_bit(self, n, seed, loc, spread):
        y = np.random.default_rng(seed).normal(loc, spread, n)
        assert hajek_mean(y, np.ones(n)) == float(np.mean(y))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            hajek_mean(np.array([]), np.array([]))


def synthetic_pair(seed=0, n_c=120, n_p=150, d_scale=8.0):
    rng = np.random.default_rng(seed)
    Xc = np.column_stack([np.ones(n_c), rng.normal(0.4, 1.0, n_c)])
    yc = 1.0 + 0.8 * Xc[:, 1] + rng.normal(size=n_c)
    Xp = np.column_stack([np.ones(n_p), rng.normal(0.0, 1.0, n_p)])
    d = rng.uniform(0.8, 1.2, n_p) * d_scale
    return CohortSample(y=yc, X=Xc), SurveySample(X=Xp, d=d)


class TestEstimate:
    def test_naive_has_no_variance(self):
        cohort = CohortSample(y=np.array([1.0, 2.0, 3.0]), X=np.ones((3, 1)))
        survey = SurveySample(X=np.ones((2, 1)), d=np.array([2.0, 2.0]))
        res = estimate(Method.NAIVE, cohort, survey)
        assert res.mu_hat == pytest.approx(2.0)
        assert res.var_hat is None and res.ci_low is None

    def test_true_weight_oracle(self):
        cohort, survey = synthetic_pair()
        pi = np.full(cohort.n_c, 0.25)
        res = estimate(Method.TW, cohort, survey, true_participation=pi)
        # constant true weights reduce to the plain mean
        assert res.mu_hat == pytest.approx(float(cohort.y.mean()), abs=1e-12)
        assert res.var_hat is not None and res.var_hat > 0
        assert res.ci_low < res.mu_hat < res.ci_high

    def test_tw_rejects_nan_participation(self):
        cohort, survey = synthetic_pair()
        pi = np.full(cohort.n_c, 0.25)
        pi[1] = np.nan
        with pytest.raises(DomainError):
            estimate(Method.TW, cohort, survey, true_participation=pi)

    def test_tw_requires_participation(self):
        cohort, survey = synthetic_pair()
        with pytest.raises(ValueError):
            estimate(Method.TW, cohort, survey)

    def test_alp_and_fdw_share_fit_and_differ_by_one(self):
        cohort, survey = synthetic_pair()
        fit = fit_for_method(Method.ALP, cohort, survey)
        alp = estimate(Method.ALP, cohort, survey)
        fdw = estimate(Method.FDW, cohort, survey)
        np.testing.assert_allclose(fdw.weights - alp.weights, 1.0, atol=1e-9)
        reference = pseudo_weights(Method.ALP, fit, cohort.X)
        np.testing.assert_allclose(alp.weights, reference, atol=1e-9)

    def test_every_method_stays_within_outcome_range(self):
        cohort, survey = synthetic_pair(seed=3)
        pi = np.full(cohort.n_c, 0.2)
        for m in Method:
            res = estimate(
                Method(m), cohort, survey,
                true_participation=pi if m is Method.TW else None,
            )
            assert cohort.y.min() <= res.mu_hat <= cohort.y.max()
            assert np.all(res.weights > 0)

    def test_warnings_count_rates_above_one(self):
        # survey much lighter than the cohort pushes p-hat above 0.5
        cohort, survey = synthetic_pair(seed=4, n_c=200, n_p=40, d_scale=1.3)
        res = estimate(Method.ALP, cohort, survey)
        assert any(w.startswith("pi-hat-above-one:") for w in res.warnings)

    def test_validation_failure_raises(self):
        cohort, _ = synthetic_pair()
        survey = SurveySample(X=np.ones((4, 3)), d=np.ones(4))
        with pytest.raises(ValidationError):
            estimate(Method.ALP, cohort, survey)

    def test_rdw_rescale_error_propagates(self):
        cohort, survey = synthetic_pair(n_c=200, n_p=20, d_scale=1.0)
        with pytest.raises(RescaleError):
            estimate(Method.RDW, cohort, survey)

    def test_rare_participation_alp_clw_agree(self):
        # all fitted participation rates below 1 percent: the two systems
        # give nearly identical pseudo-weights
        cohort, survey = synthetic_pair(seed=5, n_c=40, n_p=250, d_scale=60.0)
        alp = estimate(Method.ALP, cohort, survey)
        clw = estimate(Method.CLW, cohort, survey)
        fit = fit_for_method(Method.ALP, cohort, survey)
        pi_hat = fit.p_hat_cohort / (1 - fit.p_hat_cohort)
        assert pi_hat.max() < 0.01
        rel = np.abs(alp.weights - clw.weights) / clw.weights
        assert rel.max() < 0.02
        assert abs(alp.mu_hat - clw.mu_hat) / abs(clw.mu_hat) < 0.01

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_c=st.integers(20, 150),
        n_p=st.integers(20, 200),
        d_scale=st.floats(2.0, 60.0),
    )
    def test_alps_mean_is_the_odds_weight_mean_on_its_scaled_fit(
        self, seed, n_c, n_p, d_scale
    ):
        # exp(-b1 . x1) is proportional to (1 - p)/p of the scaled fit, so
        # the two Hajek means agree
        cohort, survey = synthetic_pair(seed, n_c, n_p, d_scale)
        try:
            fit = fit_for_method(Method.ALPS, cohort, survey)
            mu = estimate(Method.ALPS, cohort, survey).mu_hat
        except PseudoweightError:
            reject()
        odds_mean = hajek_mean(cohort.y, (1.0 - fit.p_hat_cohort) / fit.p_hat_cohort)
        assert mu == pytest.approx(odds_mean, rel=1e-9)

    @pytest.mark.parametrize("method", [m for m in Method if m is not Method.TW])
    def test_method_spec_estimates_like_its_method_byte_for_byte(self, method):
        # perfbench's checks pass a MethodSpec to estimate
        cohort, survey = synthetic_pair(seed=7)
        wrapped = estimate(MethodSpec(method), cohort, survey)
        plain = estimate(method, cohort, survey)
        assert repr(wrapped) == repr(plain)
        assert wrapped.weights.tobytes() == plain.weights.tobytes()

    @pytest.mark.parametrize("method", list(Method))
    def test_method_name_estimates_like_its_method(self, method):
        cohort, survey = synthetic_pair(seed=7)
        pi = np.full(cohort.n_c, 0.25) if method is Method.TW else None
        plain = estimate(method, cohort, survey, pi)
        for named in (
            estimate(method.value, cohort, survey, pi),
            estimate_each([method.value], cohort, survey, pi)[0],
        ):
            assert repr(named) == repr(plain)
            assert named.weights.tobytes() == plain.weights.tobytes()

    def test_unknown_method_name_is_rejected_by_the_enum(self):
        cohort, survey = synthetic_pair()
        with pytest.raises(ValueError, match="'xyz' is not a valid Method"):
            estimate("xyz", cohort, survey)
        with pytest.raises(ValueError, match="'xyz' is not a valid Method"):
            estimate_each([Method.ALP, "xyz"], cohort, survey)

    def test_rare_participation_alp_fdw_means_close(self):
        cohort, survey = synthetic_pair(seed=6, n_c=40, n_p=250, d_scale=60.0)
        alp = estimate(Method.ALP, cohort, survey)
        fdw = estimate(Method.FDW, cohort, survey)
        assert abs(alp.mu_hat - fdw.mu_hat) / abs(alp.mu_hat) < 0.01


class TestEstimateEach:
    def test_fit_keys_name_the_fit_methods_share(self):
        from pseudoweight.estimators import fit_key

        cohort, survey = synthetic_pair()
        keys = {m: fit_key(m, cohort, survey) for m in Method}
        assert keys[Method.NAIVE] is None and keys[Method.TW] is None
        assert keys[Method.CLW] is Method.CLW
        assert keys[Method.ALP] == keys[Method.FDW] == 1.0
        total = survey.d.sum()
        assert keys[Method.RDW] == (total - cohort.n_c) / total
        assert keys[Method.ALPS] == cohort.n_c / total
        assert all(type(keys[m]) is float for m in (Method.ALP, Method.RDW, Method.ALPS))

    @pytest.mark.parametrize("method", [m for m in Method if m not in (Method.NAIVE, Method.TW)])
    def test_method_name_fits_like_its_method(self, method):
        from pseudoweight.estimators import fit_key

        cohort, survey = synthetic_pair()
        assert fit_key(method.value, cohort, survey) == fit_key(method, cohort, survey)
        named = fit_for_method(method.value, cohort, survey)
        plain = fit_for_method(method, cohort, survey)
        assert named.beta.tobytes() == plain.beta.tobytes()

    def test_each_spec_gets_its_estimate_or_its_error(self):
        # a survey this light makes rdw's rescale factor nonpositive
        cohort, survey = synthetic_pair(n_c=200, n_p=20, d_scale=1.25)
        methods = (Method.ALP, Method.RDW, Method.NAIVE)
        alp, rdw, naive = estimate_each(methods, cohort, survey)
        assert isinstance(rdw, RescaleError)
        ref = estimate(Method.ALP, cohort, survey)
        assert (alp.mu_hat, alp.var_hat) == (ref.mu_hat, ref.var_hat)
        assert naive.mu_hat == float(np.mean(cohort.y))


    def test_method_names_share_fits_like_their_methods(self):
        cohort, survey = synthetic_pair(seed=7)
        pi = np.full(cohort.n_c, 0.25)
        named = estimate_each([m.value for m in Method], cohort, survey, pi)
        for a, b in zip(named, estimate_each(list(Method), cohort, survey, pi)):
            assert repr(a) == repr(b)
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_methods_sharing_a_fit_build_its_design_matrix_once(self, monkeypatch):
        # alp and fdw share the unscaled fit and its survey probabilities;
        # alps scales the fit and substitutes its own, so it builds its own
        from pseudoweight import variance

        cohort, survey = synthetic_pair()
        methods = (Method.ALP, Method.FDW, Method.ALPS, Method.NAIVE)
        alone = [estimate(m, cohort, survey) for m in methods]
        built = []
        real = variance.design_variance_poisson

        def counted(survey, p_hat_survey, weight_multiplier=1.0):
            built.append(weight_multiplier)
            return real(survey, p_hat_survey, weight_multiplier)

        monkeypatch.setattr(variance, "design_variance_poisson", counted)
        together = estimate_each(methods, cohort, survey)
        assert built == [1.0, cohort.n_c / float(np.sum(survey.d))]
        for a, b in zip(alone, together):
            assert repr(a) == repr(b)

    def test_pooled_fits_share_one_stack_of_rows(self, monkeypatch):
        from pseudoweight import estimators, samples

        cohort, survey = synthetic_pair()
        methods = (Method.NAIVE, Method.ALP, Method.FDW, Method.RDW, Method.CLW, Method.ALPS)
        alone = [estimate(m, cohort, survey) for m in methods]
        stacks, pooled = [], []
        real_rows, real_build = estimators.pooled_rows, estimators.build_pooled_matrix

        def counted_rows(*args):
            stacks.append(real_rows(*args))
            return stacks[-1]

        def recorded_build(*args):
            pooled.append(real_build(*args))
            return pooled[-1]

        monkeypatch.setattr(estimators, "pooled_rows", counted_rows)
        monkeypatch.setattr(estimators, "build_pooled_matrix", recorded_build)
        together = estimate_each(methods, cohort, survey)
        # alp/fdw, rdw and alps: three fits, one read-only stack
        assert len(stacks) == 1 and len(pooled) == 3
        (X, R), = stacks
        assert not X.flags.writeable and not R.flags.writeable
        assert all(p.X is X and p.R is R for p in pooled)
        for a, b in zip(alone, together):
            assert repr(a) == repr(b)

    @pytest.mark.parametrize("kind", ["poisson", "stratified", "iid"])
    def test_own_design_matrix_matches_the_shared_one_bit_for_bit(self, kind):
        # estimate_from_fit builds its fit's design matrix when none is
        # passed; estimate_each passes one cached matrix per fit
        from pseudoweight import DesignInfo

        cohort, survey = synthetic_pair()
        labels = {}
        if kind == "stratified":
            labels = dict(stratum=np.arange(survey.n_p) % 3, psu=np.arange(survey.n_p) % 5)
        survey = SurveySample(X=survey.X, d=survey.d, design=DesignInfo(kind=kind, **labels))
        pi = np.linspace(0.05, 0.6, cohort.n_c)
        methods = tuple(Method)
        shared = estimate_each(methods, cohort, survey, pi)
        for m, b in zip(methods, shared):
            fit = fit_for_method(m, cohort, survey)
            a = estimate_from_fit(m, fit, cohort, survey, true_participation=pi)
            assert (a.method, a.mu_hat, a.var_hat, a.ci_low, a.ci_high, a.warnings) == (
                b.method, b.mu_hat, b.var_hat, b.ci_low, b.ci_high, b.warnings
            )
            assert a.weights.tobytes() == b.weights.tobytes()
            assert m is Method.NAIVE or a.var_hat > 0

    @pytest.mark.parametrize("kind", ["poisson", "stratified", "iid"])
    def test_design_kind_given_by_its_value_estimates_the_same(self, kind):
        from pseudoweight import DesignInfo, DesignKind

        cohort, survey = synthetic_pair()
        labels = {}
        if kind == "stratified":
            labels = dict(stratum=np.arange(survey.n_p) % 3, psu=np.arange(survey.n_p) % 5)
        surveys = [
            SurveySample(X=survey.X, d=survey.d, design=DesignInfo(kind=k, **labels))
            for k in (kind, DesignKind(kind))
        ]
        assert surveys[0].design.kind is DesignKind(kind)
        by_value, by_member = (
            [estimate(m, cohort, s) for m in (Method.ALP, Method.CLW, Method.ALPS)]
            for s in surveys
        )
        for a, b in zip(by_value, by_member):
            assert repr(a) == repr(b)
            assert a.var_hat is not None and a.var_hat > 0
