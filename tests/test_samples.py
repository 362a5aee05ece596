import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoweight import (
    CohortSample,
    DesignError,
    DesignInfo,
    DesignKind,
    RescaleError,
    SurveySample,
    ValidationError,
    build_pooled_matrix,
    default_lambda,
    rdw_rescale_factor,
    validate_paired_samples,
)


def make_cohort(n=3, p_extra=2, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p_extra)])
    return CohortSample(y=rng.normal(size=n), X=X)


def make_survey(n=4, p_extra=2, seed=1, **kwargs):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p_extra)])
    return SurveySample(X=X, d=rng.uniform(1.5, 4.0, n), **kwargs)


class TestContainers:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CohortSample(y=np.ones(3), X=np.ones((4, 2)))
        with pytest.raises(ValueError):
            SurveySample(X=np.ones((3, 2)), d=np.ones(4))

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            CohortSample(y=np.array([]), X=np.empty((0, 2)))

    def test_arrays_are_read_only(self):
        c = make_cohort()
        with pytest.raises(ValueError):
            c.X[0, 0] = 5.0
        with pytest.raises(ValueError):
            c.y[0] = 5.0


def violations(cohort, survey):
    """The violations :func:`validate_paired_samples` raises for a pair."""
    with pytest.raises(ValidationError) as err:
        validate_paired_samples(cohort, survey)
    assert str(err.value) == "; ".join(err.value.violations)
    return err.value.violations


class TestValidation:
    def test_matching_shapes_ok(self):
        assert validate_paired_samples(make_cohort(p_extra=2), make_survey(p_extra=2)) is None

    def test_column_mismatch_reported(self):
        found = violations(make_cohort(p_extra=2), make_survey(p_extra=3))
        assert any("column mismatch" in v for v in found)

    def test_zero_weight_reported_with_row(self):
        s = make_survey()
        d = s.d.copy()
        d[2] = 0.0
        bad = SurveySample(X=s.X, d=d)
        found = violations(make_cohort(), bad)
        assert any("nonpositive design weight at row 2" in v for v in found)

    def test_single_psu_stratum_reported(self):
        s = make_survey(n=4)
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.array(["a", "a", "b", "b"]),
            psu=np.array([1, 2, 3, 3]),
        )
        bad = SurveySample(X=s.X, d=s.d, design=design)
        found = violations(make_cohort(), bad)
        assert any("stratum 'b' has < 2 PSUs" in v for v in found)

    def test_unsortable_labels_reported(self):
        s = make_survey(n=4)
        design = DesignInfo(
            kind=DesignKind.STRATIFIED_WR,
            stratum=np.array(["a", 1, "a", 1], dtype=object),
            psu=np.array([1, 2, 3, 4]),
        )
        bad = SurveySample(X=s.X, d=s.d, design=design)
        found = violations(make_cohort(), bad)
        assert any("must be mutually sortable" in v for v in found)

    def test_non_finite_entries_reported(self):
        c = make_cohort()
        y = c.y.copy()
        y[0] = np.nan
        bad = CohortSample(y=y, X=c.X)
        found = violations(bad, make_survey())
        assert any("non-finite entries in cohort outcome" in v for v in found)

    def test_missing_intercept_reported(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 3))
        bad = CohortSample(y=np.zeros(3), X=X)
        found = violations(bad, make_survey())
        assert any("intercept" in v for v in found)


class TestPooledMatrix:
    def test_identity_rule_layout(self):
        cohort = make_cohort(n=2)
        survey = make_survey(n=3)
        pooled = build_pooled_matrix(cohort, survey)
        assert pooled.X.shape == (5, 3)
        np.testing.assert_array_equal(pooled.R, [1, 1, 0, 0, 0])
        np.testing.assert_array_equal(pooled.w[:2], [1.0, 1.0])
        np.testing.assert_array_equal(pooled.w[2:], survey.d)

    def test_round_trip_split(self):
        cohort = make_cohort(n=5)
        survey = make_survey(n=7)
        pooled = build_pooled_matrix(cohort, survey, 0.5)
        np.testing.assert_array_equal(pooled.X[: pooled.n_c], cohort.X)
        np.testing.assert_array_equal(pooled.X[pooled.n_c :], survey.X)
        np.testing.assert_allclose(pooled.w[pooled.n_c :], 0.5 * survey.d, rtol=0, atol=0)

    def test_rdw_rule_scales_by_out_of_cohort_share(self):
        # survey weight total 200 with a 50-unit cohort: factor 150/200
        survey = SurveySample(X=np.ones((4, 1)), d=np.full(4, 50.0))
        factor = rdw_rescale_factor(50, survey.d)
        assert factor == pytest.approx(0.75)
        cohort = CohortSample(y=np.zeros(50), X=np.ones((50, 1)))
        pooled = build_pooled_matrix(cohort, survey, factor)
        np.testing.assert_allclose(pooled.w[50:], 50.0 * 0.75)

    def test_rdw_survey_weight_total_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_c = int(rng.integers(2, 40))
            d = rng.uniform(1.0, 9.0, int(rng.integers(3, 30)))
            if n_c >= d.sum():
                continue
            factor = rdw_rescale_factor(n_c, d)
            assert (factor * d).sum() == pytest.approx(d.sum() - n_c, abs=1e-12)

    def test_rdw_rescale_error_when_cohort_too_large(self):
        with pytest.raises(RescaleError):
            rdw_rescale_factor(250, np.full(4, 50.0))

    def test_lambda_rule_survey_weight_total_is_cohort_size(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(1.0, 30.0, 17)
        lam = default_lambda(12, d)
        assert (lam * d).sum() == pytest.approx(12.0, abs=1e-12)

    def test_quarter_lambda_example(self):
        # lambda = n_c / sum(d) = 0.25 scales every survey weight by 0.25
        d = np.full(4, 50.0)  # total 200, cohort of 50
        lam = default_lambda(50, d)
        assert lam == pytest.approx(0.25)
        survey = SurveySample(X=np.ones((4, 1)), d=d)
        cohort = CohortSample(y=np.zeros(50), X=np.ones((50, 1)))
        pooled = build_pooled_matrix(cohort, survey, lam)
        np.testing.assert_allclose(pooled.w[50:], 12.5)


# Label coding: psu_codes must number strata and PSUs exactly as np.unique
# over every unit's labels would.  Examples are derandomized so the suite
# reads the same cases on every run.
def unique_codes(stratum, psu):
    """Strata, PSU of each unit and stratum of each PSU, from np.unique
    over the full label columns: the reference for psu_codes."""
    strata, stratum_index = np.unique(stratum, return_inverse=True)
    psu_labels, psu_index = np.unique(psu, return_inverse=True)
    pairs, psu_of_unit = np.unique(
        stratum_index * len(psu_labels) + psu_index, return_inverse=True
    )
    return strata, psu_of_unit, pairs // len(psu_labels)


LABEL_VALUES = {
    "str": st.sampled_from(["a", "b", "S01", "S10", "S9", "10", "9", ""]) | st.text(max_size=3),
    "int": st.integers(-3, 3) | st.integers(),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan]) | st.floats(),
}


@st.composite
def label_column(draw, n):
    kind = draw(st.sampled_from(["str", "object-str", "int", "float"]))
    values = draw(st.lists(LABEL_VALUES[kind.split("-")[-1]], min_size=n, max_size=n))
    return np.array(values, dtype=object if kind == "object-str" else None)


@st.composite
def label_pairs(draw):
    n = draw(st.integers(1, 40))
    return draw(label_column(n)), draw(label_column(n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labels=label_pairs())
def test_psu_codes_match_unique_over_every_unit(labels):
    stratum, psu = labels
    codes = DesignInfo(DesignKind.STRATIFIED_WR, stratum, psu).psu_codes
    strata, psu_of_unit, stratum_of_psu = unique_codes(stratum, psu)
    assert codes.strata.dtype == strata.dtype
    np.testing.assert_array_equal(codes.strata, strata)
    np.testing.assert_array_equal(codes.psu_of_unit, psu_of_unit)
    np.testing.assert_array_equal(codes.stratum_of_psu, stratum_of_psu)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    labels=st.lists(
        st.text(max_size=2) | st.integers() | st.floats(), min_size=2, max_size=30
    ).filter(lambda v: {type(x) is str for x in v} == {True, False}),
    mixed_column=st.sampled_from(["stratum", "psu"]),
)
def test_mixed_text_and_number_labels_raise_design_error(labels, mixed_column):
    columns = {
        "stratum": np.array(["s"] * len(labels)),
        "psu": np.array(["p"] * len(labels)),
        mixed_column: np.array(labels, dtype=object),
    }
    with pytest.raises(DesignError, match="mutually sortable"):
        DesignInfo(DesignKind.STRATIFIED_WR, **columns).psu_codes
