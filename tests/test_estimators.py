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
    alp_weights,
    alps_weights,
    clw_weights,
    estimate,
    estimate_each,
    estimate_from_fit,
    fdw_weights,
    fit_for_method,
    hajek_mean,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestWeightFormulas:
    def test_alp_examples(self):
        np.testing.assert_allclose(alp_weights(np.array([1 / 3])), [2.0], atol=1e-12)
        np.testing.assert_allclose(alp_weights(np.array([0.5])), [1.0], atol=1e-12)
        np.testing.assert_allclose(alp_weights(np.array([0.01])), [99.0], atol=1e-10)

    def test_alp_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            alp_weights(np.array([0.0, 0.3]))
        with pytest.raises(DomainError):
            alp_weights(np.array([1.0]))
        with pytest.raises(DomainError):
            alp_weights(np.array([np.nan]))

    def test_alp_truncation_clamps_rates_above_one(self):
        p = np.array([0.2, 0.6, 0.9])
        w = alp_weights(p, truncate_pi_at_one=True)
        np.testing.assert_allclose(w, [4.0, 1.0, 1.0], atol=1e-12)
        w_raw = alp_weights(p)
        assert w_raw[1] < 1.0 and w_raw[2] < 1.0

    def test_fdw_examples(self):
        np.testing.assert_allclose(fdw_weights(np.array([1 / 3])), [3.0], atol=1e-12)
        np.testing.assert_allclose(fdw_weights(np.array([0.5])), [2.0], atol=1e-12)
        # at p = 0.01 the two weights differ by 1 percent relative
        w_f = fdw_weights(np.array([0.01]))[0]
        w_a = alp_weights(np.array([0.01]))[0]
        assert (w_f - w_a) / w_f == pytest.approx(0.01, rel=1e-9)

    def test_fdw_minus_alp_is_one_elementwise(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.01, 0.99, 200)
        np.testing.assert_allclose(fdw_weights(p) - alp_weights(p), 1.0, atol=1e-12)

    def test_odds_consistency(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.01, 0.99, 200)
        np.testing.assert_allclose(alp_weights(p) * p / (1 - p), 1.0, atol=1e-12)

    def test_rdw_is_reciprocal_probability(self):
        # the rescaled fit estimates the participation rate directly
        cohort, survey = synthetic_pair()
        fit = fit_for_method(Method.RDW, cohort, survey)
        res = estimate_from_fit(MethodSpec(Method.RDW), fit, cohort, survey)
        np.testing.assert_allclose(res.weights * fit.p_hat_cohort, 1.0, atol=1e-12)

    def test_clw_examples(self):
        X = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(clw_weights(np.zeros(2), X), [2.0], atol=1e-12)
        gamma = np.array([np.log(0.05 / 0.95), 0.0])
        np.testing.assert_allclose(clw_weights(gamma, X), [20.0], rtol=1e-12)

    def test_clw_matches_direct_reciprocal(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(50), rng.normal(size=50), rng.normal(size=50)])
        gamma = np.array([-2.0, 0.4, -0.3])
        from scipy.special import expit

        np.testing.assert_allclose(
            clw_weights(gamma, X), 1.0 / expit(X @ gamma), rtol=1e-12
        )

    def test_alps_slope_only(self):
        X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        beta = np.array([7.5, 0.4])  # intercept must not matter
        w = alps_weights(beta, X)
        np.testing.assert_allclose(w, np.exp(-0.4 * np.array([0.0, 1.0, 2.0])), rtol=1e-12)

    def test_alps_intercept_invariance_bit_identical(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
        beta = np.array([-1.2, 0.3, -0.7])
        shifted = beta + np.array([123.456, 0.0, 0.0])
        assert np.array_equal(alps_weights(beta, X), alps_weights(shifted, X))

    def test_alps_zero_slopes_give_unit_weights(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        np.testing.assert_array_equal(alps_weights(np.array([3.0, 0.0]), X), np.ones(5))

    def test_alps_weight_ratio_follows_coordinate_gap(self):
        X = np.column_stack([np.ones(2), [1.0, 1.5]])
        w = alps_weights(np.array([0.0, 0.8]), X)
        assert w[0] / w[1] == pytest.approx(np.exp(0.8 * 0.5), rel=1e-12)


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
        np.testing.assert_allclose(alp.weights, alp_weights(fit.p_hat_cohort), atol=1e-9)

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
        odds_mean = hajek_mean(cohort.y, alp_weights(fit.p_hat_cohort))
        assert mu == pytest.approx(odds_mean, rel=1e-9)

    def test_rare_participation_alp_fdw_means_close(self):
        cohort, survey = synthetic_pair(seed=6, n_c=40, n_p=250, d_scale=60.0)
        alp = estimate(Method.ALP, cohort, survey)
        fdw = estimate(Method.FDW, cohort, survey)
        assert abs(alp.mu_hat - fdw.mu_hat) / abs(alp.mu_hat) < 0.01


class TestEstimateEach:
    def test_each_spec_gets_its_estimate_or_its_error(self):
        # a survey this light makes rdw's rescale factor nonpositive
        cohort, survey = synthetic_pair(n_c=200, n_p=20, d_scale=1.25)
        specs = [MethodSpec(m) for m in (Method.ALP, Method.RDW, Method.NAIVE)]
        alp, rdw, naive = estimate_each(specs, cohort, survey)
        assert isinstance(rdw, RescaleError)
        ref = estimate(Method.ALP, cohort, survey)
        assert (alp.mu_hat, alp.var_hat) == (ref.mu_hat, ref.var_hat)
        assert naive.mu_hat == float(np.mean(cohort.y))


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
        together = estimate_each([MethodSpec(m) for m in methods], cohort, survey)
        assert built == [1.0, cohort.n_c / float(np.sum(survey.d))]
        for a, b in zip(alone, together):
            assert repr(a) == repr(b)
