import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudoweight
from pseudoweight import (
    CohortSample,
    DesignInfo,
    DesignKind,
    EmptyFileError,
    EstimationJob,
    IoError,
    Method,
    MissingColumnError,
    ParseError,
    PseudoweightError,
    SurveySample,
    emit_report,
    estimate,
    ingest_delimited,
    run_estimation_job,
)
from pseudoweight import estimators, io
from pseudoweight.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


COHORT_CSV = "y,x1,x2\n1.0,0.5,1.0\n2.0,-0.5,0.0\n3.0,1.5,2.0\n"
SURVEY_CSV = "x1,x2,w\n0.2,0.8,2.0\n-0.1,0.3,2.0\n"


class TestIngest:
    def test_cohort_shape_contract(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n2,1.5\n3,2.5\n")
        cohort = ingest_delimited(path, covariates=["x1"], outcome="y")
        assert isinstance(cohort, CohortSample)
        assert cohort.X.shape == (3, 2)
        np.testing.assert_array_equal(cohort.X[:, 0], 1.0)
        np.testing.assert_array_equal(cohort.y, [1.0, 2.0, 3.0])

    def test_survey_weight_total(self, tmp_path):
        path = write(tmp_path / "s.csv", SURVEY_CSV)
        survey = ingest_delimited(path, covariates=["x1", "x2"], weight="w")
        assert isinstance(survey, SurveySample)
        assert survey.d.sum() == pytest.approx(4.0)

    def test_survey_outcome_read_only_when_present(self, tmp_path):
        path = write(tmp_path / "s.csv", SURVEY_CSV)
        survey = ingest_delimited(path, covariates=["x1", "x2"], outcome="y", weight="w")
        assert survey.y is None
        path = write(tmp_path / "sy.csv", "y,x1,w\n3.5,0.2,2.0\n")
        survey = ingest_delimited(path, covariates=["x1"], outcome="y", weight="w")
        np.testing.assert_array_equal(survey.y, [3.5])

    def test_na_cell_is_parse_error_naming_the_cell(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n2,NA\n")
        with pytest.raises(ParseError) as err:
            ingest_delimited(path, covariates=["x1"], outcome="y")
        assert "row 3" in str(err.value) and "'x1'" in str(err.value)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,2\n")
        with pytest.raises(MissingColumnError):
            ingest_delimited(path, covariates=["x9"], outcome="y")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "c.csv", "")
        with pytest.raises(EmptyFileError):
            ingest_delimited(path, covariates=["x1"], outcome="y")
        path2 = write(tmp_path / "c2.csv", "y,x1\n")
        with pytest.raises(EmptyFileError):
            ingest_delimited(path2, covariates=["x1"], outcome="y")

    def test_rows_with_missing_fields_skipped_and_reported(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n,1.5\n3,2.5\n")
        with pytest.warns(UserWarning, match="skipped 1 row"):
            cohort = ingest_delimited(path, covariates=["x1"], outcome="y")
        assert cohort.n_c == 2

    def test_empty_covariate_list_is_a_typed_error(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n")
        with pytest.raises(MissingColumnError, match="no covariate columns declared"):
            ingest_delimited(path, covariates=[], outcome="y")

    def test_header_names_matched_after_trimming(self, tmp_path):
        path = write(tmp_path / "c.csv", "y, x1\n1,0.5\n2,1.5\n")
        cohort = ingest_delimited(path, covariates=["x1"], outcome="y")
        np.testing.assert_array_equal(cohort.X[:, 1], [0.5, 1.5])

    def test_parse_error_names_the_file_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n\n2,abc\n")
        with pytest.raises(ParseError, match="row 4, column 'x1'"):
            ingest_delimited(path, covariates=["x1"], outcome="y")

    def test_skip_notice_names_the_file_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "y,x1\n1,0.5\n\n,1.5\n3,2.5\n")
        with pytest.warns(UserWarning, match=r"skipped 1 row\(s\) .*\(rows 4\)"):
            cohort = ingest_delimited(path, covariates=["x1"], outcome="y")
        assert cohort.n_c == 2

    def test_round_trip_precision(self, tmp_path):
        values = [0.1234567890123456, 9876.543210987654, 1e-15]
        path = write(
            tmp_path / "c.csv",
            "y,x1\n" + "".join(f"{v!r},1.0\n" for v in values),
        )
        cohort = ingest_delimited(path, covariates=["x1"], outcome="y")
        np.testing.assert_array_equal(cohort.y, values)


class TestEmitReport:
    ROWS = [
        {"method": "alp", "estimate": 1.5, "variance": 0.25, "ci_low": 0.52,
         "ci_high": 2.48, "w_min": 1.0, "w_max": 3.0, "w_cv": 0.4, "warnings": ""},
        {"method": "clw", "estimate": 1.6, "variance": 0.3, "ci_low": 0.53,
         "ci_high": 2.67, "w_min": 1.1, "w_max": 3.3, "w_cv": 0.5, "warnings": ""},
    ]

    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(self.ROWS, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("method,estimate,variance,ci_low,ci_high")

    def test_method_order_preserved(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(list(reversed(self.ROWS)), out)
        lines = out.read_text().splitlines()
        assert lines[1].startswith("clw") and lines[2].startswith("alp")

    def test_empty_results_error_and_no_file(self, tmp_path):
        out = tmp_path / "r.csv"
        with pytest.raises(IoError):
            emit_report([], out)
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(self.ROWS, a)
        emit_report(self.ROWS, b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        emit_report(self.ROWS, out)
        doc = json.loads(out.read_text())
        assert doc[0]["method"] == "alp"
        assert doc[0]["estimate"] == 1.5

    def test_json_writes_null_for_non_finite_floats(self, tmp_path):
        # a negative variance leaves the interval NaN
        rows = [dict(self.ROWS[0], variance=-0.07, ci_low=math.nan, ci_high=math.nan)]

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        emit_report(rows, tmp_path / "r.json")
        (doc,) = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        assert doc["ci_low"] is None and doc["ci_high"] is None
        assert doc["variance"] == -0.07
        emit_report(rows, tmp_path / "r.csv")
        assert ",-0.07,nan,nan," in (tmp_path / "r.csv").read_text()


def self_paired_files(tmp_path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n).tolist()
    x2 = rng.normal(size=n).tolist()
    y = (1.0 + np.array(x1) - 0.5 * np.array(x2) + rng.normal(size=n)).tolist()
    cohort = "y,x1,x2\n" + "".join(f"{yi!r},{a!r},{b!r}\n" for yi, a, b in zip(y, x1, x2))
    survey = "y,x1,x2,w\n" + "".join(
        f"{yi!r},{a!r},{b!r},1.0\n" for yi, a, b in zip(y, x1, x2)
    )
    return (
        write(tmp_path / "cohort.csv", cohort),
        write(tmp_path / "survey.csv", survey),
        y,
    )


def random_pair_files(tmp_path):
    """A 30-row cohort and a 40-row survey on which every method fits: the
    two paths, then the columns written (y and x1; x1 and w)."""
    rng = np.random.default_rng(4)
    xc = rng.normal(0.5, 1.0, 30)
    yc = 1.0 + xc + rng.normal(size=30)
    xs = rng.normal(size=40)
    d = rng.uniform(2.0, 20.0, 40)
    cohort = "y,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(yc.tolist(), xc.tolist()))
    survey = "x1,w\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(xs.tolist(), d.tolist()))
    paths = write(tmp_path / "c.csv", cohort), write(tmp_path / "s.csv", survey)
    return paths, (yc, xc, xs, d)


def stratified_pair_files(tmp_path, n=48):
    """A cohort file (y, x1) and a survey file (x1, w, stratum, psu) with 3
    strata of 2 PSUs each, labelled by text."""
    rng = np.random.default_rng(2)
    xs = rng.normal(size=n).tolist()
    ys = (1.0 + 0.4 * np.array(xs) + rng.normal(size=n)).tolist()
    cohort_path = write(
        tmp_path / "c.csv",
        "y,x1\n" + "".join(f"{v!r},{u!r}\n" for v, u in zip(ys, xs)),
    )
    lines = ["x1,w,stratum,psu\n"]
    for i, u in enumerate(rng.normal(size=n).tolist()):
        lines.append(f"{u!r},12.0,s{i % 3},p{i % 6}\n")
    return cohort_path, write(tmp_path / "s.csv", "".join(lines))


class TestEstimationJob:
    def test_self_paired_recovers_sample_mean(self, tmp_path):
        cohort_path, survey_path, y = self_paired_files(tmp_path)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.ALP,),
        )
        rows = run_estimation_job(job)
        assert rows[0]["estimate"] == pytest.approx(float(np.mean(y)), abs=1e-6)

    def test_reference_columns_present_when_survey_has_outcome(self, tmp_path):
        cohort_path, survey_path, y = self_paired_files(tmp_path)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.ALP, Method.FDW),
        )
        rows = run_estimation_job(job)
        for row in rows:
            assert "pct_rd" in row and "mse" in row
        assert abs(rows[0]["pct_rd"]) < 1e-4
        assert [r["method"] for r in rows] == ["alp", "fdw"]

    def test_reference_columns_absent_without_survey_outcome(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 40
        ys = rng.normal(size=n).tolist()
        xs = rng.normal(size=n).tolist()
        cohort_path = write(
            tmp_path / "c.csv",
            "y,x1\n" + "".join(f"{v!r},{u!r}\n" for v, u in zip(ys, xs)),
        )
        survey_path = write(
            tmp_path / "s.csv",
            "x1,w\n" + "".join(f"{u!r},2.0\n" for u in rng.normal(size=n).tolist()),
        )
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            methods=(Method.ALP,),
        )
        rows = run_estimation_job(job)
        assert "pct_rd" not in rows[0] and "mse" not in rows[0]
        assert rows[0]["variance"] is not None

    def test_stratified_design_end_to_end(self, tmp_path):
        cohort_path, survey_path = stratified_pair_files(tmp_path)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            stratum_column="stratum",
            psu_column="psu",
            design_kind=DesignKind.STRATIFIED_WR,
            methods=(Method.ALP,),
        )
        row = run_estimation_job(job)[0]
        assert row["variance"] > 0
        assert row["ci_low"] < row["estimate"] < row["ci_high"]

    def test_dumped_weights_round_trip_exactly(self, tmp_path):
        cohort_path, survey_path, _ = self_paired_files(tmp_path, n=25, seed=3)
        dump = tmp_path / "w.csv"
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.FDW,),
            dump_weights_path=str(dump),
        )
        run_estimation_job(job)
        job2 = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.FDW,),
        )
        # recompute and compare against the dumped text: shortest round-trip
        # decimals reproduce the doubles exactly (beyond 15 digits)
        from pseudoweight import estimate as _estimate
        from pseudoweight import ingest_delimited as _ingest

        cohort = _ingest(cohort_path, covariates=["x1", "x2"], outcome="y")
        survey = _ingest(survey_path, covariates=["x1", "x2"], weight="w")
        result = _estimate(Method.FDW, cohort, survey)
        dumped = np.array(
            [float(line.split(",")[1]) for line in dump.read_text().splitlines()[1:]]
        )
        np.testing.assert_array_equal(dumped, result.weights)

    def test_six_methods_fit_three_times_and_validate_once(self, tmp_path, monkeypatch):
        # alp and fdw share the unscaled pooled fit; rdw and alps each scale it
        # (counted in this process, so every method must run here)
        monkeypatch.setattr(io, "_usable_cpus", lambda: 1)
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        calls = {"fit": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (estimators, io):
            monkeypatch.setattr(
                module,
                "validate_paired_samples",
                counted("validate", module.validate_paired_samples),
            )
        monkeypatch.setattr(
            estimators, "fit_pooled_logistic", counted("fit", estimators.fit_pooled_logistic)
        )
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            methods=tuple(m for m in Method if m is not Method.TW),
        )
        rows = run_estimation_job(job)
        assert [r["method"] for r in rows] == ["naive", "rdw", "fdw", "alp", "clw", "alps"]
        assert calls == {"fit": 3, "validate": 1}

    def test_survey_file_opened_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_usable_cpus", lambda: 1)  # both files read here
        cohort_path, survey_path, _ = self_paired_files(tmp_path, n=25)
        opened = []

        def counted(path):
            opened.append(path)
            return real_open(path)

        real_open = io._open
        monkeypatch.setattr(io, "_open", counted)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
        )
        assert "pct_rd" in run_estimation_job(job)[0]
        assert opened == [cohort_path, survey_path]

    def test_survey_row_bad_in_outcome_and_weight_names_the_outcome(self, tmp_path):
        # declared order (covariates, outcome, weight) decides, not file order
        cohort_path, _, _ = self_paired_files(tmp_path, n=25)
        survey_path = write(
            tmp_path / "bad.csv", "w,y,x1,x2\n2.0,1.0,0.1,0.2\nabc,xyz,0.3,0.4\n"
        )
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
        )
        with pytest.raises(ParseError, match="row 3, column 'y': cannot parse 'xyz'"):
            run_estimation_job(job)

    def test_tw_is_rejected_before_any_file_is_read(self, tmp_path):
        # neither file exists, so reading one would raise IoError instead
        job = EstimationJob(
            cohort_path=str(tmp_path / "missing-cohort.csv"),
            survey_path=str(tmp_path / "missing-survey.csv"),
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            methods=(Method.ALP, Method.TW),
        )
        with pytest.raises(PseudoweightError, match="runs only under simulate") as info:
            run_estimation_job(job)
        assert type(info.value) is PseudoweightError

    def test_unwritable_weight_dump_is_io_error(self, tmp_path):
        cohort_path, survey_path, _ = self_paired_files(tmp_path, n=25, seed=3)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.FDW,),
            dump_weights_path=str(tmp_path),
        )
        with pytest.raises(IoError, match="cannot write weights"):
            run_estimation_job(job)

    def test_weight_summary_reported(self, tmp_path):
        cohort_path, survey_path, _ = self_paired_files(tmp_path)
        job = EstimationJob(
            cohort_path=cohort_path,
            survey_path=survey_path,
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
        )
        row = run_estimation_job(job)[0]
        assert row["w_min"] == pytest.approx(1.0, abs=1e-6)
        assert row["w_max"] == pytest.approx(1.0, abs=1e-6)
        assert row["w_cv"] == pytest.approx(0.0, abs=1e-6)


ALL_METHODS = tuple(m for m in Method if m is not Method.TW)


def with_blank_cell(path, line):
    """Blank the first cell of a file line, so ingest skips and reports it."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line - 1] = "," + lines[line - 1].split(",", 1)[1]
    Path(path).write_text("".join(lines), encoding="utf-8")
    return path


def broken(path, line=3):
    """Put text in a numeric cell, a ParseError naming the file line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line - 1] = "abc," + lines[line - 1].split(",", 1)[1]
    Path(path).write_text("".join(lines), encoding="utf-8")
    return path


def job_cases():
    """Named builders of estimation jobs on the test files above: every
    method, skip notices in both files, errors in a method's key, in
    validation and in either file or both."""

    def random_pair(tmp_path, **kwargs):
        (cohort, survey), _ = random_pair_files(tmp_path)
        return dict(cohort_path=cohort, survey_path=survey, covariate_columns=("x1",)) | kwargs

    def self_paired(tmp_path, **kwargs):
        cohort, survey, _ = self_paired_files(tmp_path)
        paths = dict(cohort_path=cohort, survey_path=survey)
        return paths | dict(covariate_columns=("x1", "x2")) | kwargs

    def stratified(tmp_path, **kwargs):
        cohort, survey = stratified_pair_files(tmp_path)
        return (
            dict(cohort_path=cohort, survey_path=survey, covariate_columns=("x1",))
            | dict(stratum_column="stratum", psu_column="psu")
            | dict(design_kind=DesignKind.STRATIFIED_WR)
            | kwargs
        )

    def skipped_rows(tmp_path):
        job = random_pair(tmp_path)
        with_blank_cell(job["cohort_path"], 4)
        with_blank_cell(job["survey_path"], 7)
        return job

    def bad(which):
        def build(tmp_path):
            job = random_pair(tmp_path)
            for name in which:
                broken(job[name])
            return job

        return build

    return {
        "random-pair": lambda tmp_path: random_pair(tmp_path),
        "skipped-rows": skipped_rows,
        "survey-outcome": lambda tmp_path: self_paired(tmp_path, methods=ALL_METHODS[:4]),
        "stratified": lambda tmp_path: stratified(tmp_path),
        "iid": lambda tmp_path: random_pair(tmp_path, design_kind=DesignKind.IID),
        # every survey weight is 1, so rdw's key and clw's fit raise
        "key-raises": lambda tmp_path: self_paired(
            tmp_path, methods=(Method.ALP, Method.CLW, Method.RDW)
        ),
        # each stratum is its own single PSU: validation fails
        "one-psu-stratum": lambda tmp_path: stratified(tmp_path, psu_column="stratum"),
        "bad-cohort": bad(["cohort_path"]),
        "bad-survey": bad(["survey_path"]),
        "both-bad": bad(["cohort_path", "survey_path"]),
    }


def job_outcome(monkeypatch, cpus, job):
    """The rows of ``job`` at ``cpus`` usable CPUs, or its error's class and
    message."""
    monkeypatch.setattr(io, "_usable_cpus", lambda: cpus)
    try:
        return repr(run_estimation_job(job))
    except PseudoweightError as exc:
        return type(exc).__name__, str(exc)


class TestConcurrentJob:
    @pytest.mark.parametrize("case", list(job_cases()))
    def test_same_rows_warnings_and_error_on_one_cpu_and_two(
        self, tmp_path, monkeypatch, no_child_left, case
    ):
        fields = dict(outcome_column="y", weight_column="w", methods=ALL_METHODS)
        fields.update(job_cases()[case](tmp_path))
        job = EstimationJob(**fields)
        one = job_outcome(monkeypatch, 1, job)
        assert job_outcome(monkeypatch, 2, job) == one
        assert job_outcome(monkeypatch, 3, job) == one
        if case == "skipped-rows":  # the cohort's notice, then the survey's
            notices = "c.csv: skipped 1 row(s) with missing declared fields (rows 4); "
            assert notices + f"{job.survey_path}: skipped 1 row(s)" in one
        bad = {"bad-cohort": (job.cohort_path, "y"), "both-bad": (job.cohort_path, "y")}
        bad["bad-survey"] = (job.survey_path, "x1")
        if case in bad:
            path, column = bad[case]
            message = f"{path}: row 3, column {column!r}: cannot parse 'abc' as a number"
            assert one == ("ParseError", message)
        if case == "key-raises":
            assert one[0] == "InfeasibleTotalsError"  # clw comes before rdw

    def test_error_in_a_fit_group_child_is_raised_after_it_ends(
        self, tmp_path, monkeypatch, no_child_left
    ):
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        real = estimators.fit_for_method

        def failing_for_clw(method, *args):
            if method is Method.CLW:
                raise RuntimeError(f"injected in process {os.getpid()}")
            return real(method, *args)

        monkeypatch.setattr(estimators, "fit_for_method", failing_for_clw)
        monkeypatch.setattr(io, "_usable_cpus", lambda: 2)
        # two fit groups, clw's first: it runs in the forked child
        job = EstimationJob(
            cohort_path, survey_path, "y", ("x1",), "w", methods=(Method.CLW, Method.ALP)
        )
        with pytest.raises(RuntimeError, match="injected in process") as info:
            run_estimation_job(job)
        assert str(os.getpid()) not in str(info.value)


# Run in a fresh interpreter by the cold-start test: whether the package
# and a stratified estimate load scipy.optimize, then whether a one-cell
# study, in the same process, loads it.
COLD_START = """
import sys

import pseudoweight
from pseudoweight import cli

cohort, survey, out = sys.argv[1:]
code = cli.main([
    "estimate", "--cohort", cohort, "--survey", survey, "--outcome", "y",
    "--covariates", "x1", "--weight", "w", "--design", "stratified",
    "--strata", "stratum", "--psu", "psu", "--methods", "alp,clw", "--out", out,
])
assert code == 0
print("estimate:", "scipy.optimize" in sys.modules)
report = pseudoweight.run_monte_carlo(
    pseudoweight.PopulationConfig(N=2000, seed=3),
    scenarios=("logit",),
    f_c_grid=(0.05,),
    methods=("alp",),
    replicates=2,
)
(cell,) = report.cells
print("study:", cell.n_replicates + cell.n_excluded)
print("study:", "scipy.optimize" in sys.modules)
"""

ESTIMATE_ARGV = [
    "estimate",
    "--cohort", "c.csv",
    "--survey", "s.csv",
    "--outcome", "y",
    "--covariates", "x1",
    "--weight", "w",
]


class TestCli:
    def test_estimate_end_to_end(self, tmp_path):
        cohort_path, survey_path, y = self_paired_files(tmp_path)
        out = tmp_path / "report.csv"
        dump = tmp_path / "weights.csv"
        code = main(
            [
                "estimate",
                "--cohort", cohort_path,
                "--survey", survey_path,
                "--outcome", "y",
                "--covariates", "x1,x2",
                "--weight", "w",
                "--design", "poisson",
                "--methods", "alp,fdw",
                "--out", str(out),
                "--dump-weights", str(dump),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        # self-paired data: every pseudo-weight equals one
        w_lines = dump.read_text().splitlines()
        assert w_lines[0] == "unit,alp,fdw"
        alp_w = np.array([float(l.split(",")[1]) for l in w_lines[1:]])
        np.testing.assert_allclose(alp_w, 1.0, atol=1e-6)

    def test_truncate_pi_floors_alp_weights_at_one(self, tmp_path):
        # a cohort as large as half the survey weight total, shifted in x:
        # the right tail's fitted membership probabilities exceed one half
        rng = np.random.default_rng(8)
        xc = rng.normal(1.0, 1.0, 40)
        yc = 1.0 + xc + rng.normal(size=40)
        xs = rng.normal(size=40)
        write(tmp_path / "c.csv", "y,x1\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(yc.tolist(), xc.tolist())))
        write(tmp_path / "s.csv", "x1,w\n" + "".join(f"{a!r},2.0\n" for a in xs.tolist()))
        rows = {}
        for flag in ((), ("--truncate-pi",)):
            out = tmp_path / f"r{len(flag)}.json"
            argv = [
                "estimate",
                "--cohort", str(tmp_path / "c.csv"),
                "--survey", str(tmp_path / "s.csv"),
                "--outcome", "y",
                "--covariates", "x1",
                "--weight", "w",
                "--methods", "alp",
                "--out", str(out),
            ]
            assert main(argv + list(flag)) == 0
            (rows[bool(flag)],) = json.loads(out.read_text())
        assert rows[False]["w_min"] < 1.0
        assert rows[True]["w_min"] == 1.0
        above = [
            w for w in rows[False]["warnings"].split("; ")
            if w.startswith("pi-hat-above-one: ")
        ]
        assert len(above) == 1 and int(above[0].partition(": ")[2]) > 0
        assert above[0] in rows[True]["warnings"].split("; ")

    def test_estimate_iid_design_matches_library(self, tmp_path):
        (cohort_path, survey_path), (yc, xc, xs, d) = random_pair_files(tmp_path)
        out = tmp_path / "report.csv"
        methods = ("alp", "fdw", "rdw", "clw", "alps")
        code = main(
            [
                "estimate",
                "--cohort", cohort_path,
                "--survey", survey_path,
                "--outcome", "y",
                "--covariates", "x1",
                "--weight", "w",
                "--design", "iid",
                "--methods", ",".join(methods),
                "--out", str(out),
            ]
        )
        assert code == 0
        cohort = CohortSample(y=yc, X=np.column_stack([np.ones(30), xc]))
        survey = SurveySample(
            X=np.column_stack([np.ones(40), xs]), d=d, design=DesignInfo(kind=DesignKind.IID)
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(methods)
        for line, method in zip(lines[1:], methods):
            expected = estimate(Method(method), cohort, survey)
            fields = line.split(",")
            assert fields[0] == method
            got = [float(v) for v in fields[1:5]]
            assert got == [expected.mu_hat, expected.var_hat, expected.ci_low, expected.ci_high]

    def test_estimate_failure_is_machine_readable(self, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--cohort", str(tmp_path / "missing.csv"),
                "--survey", str(tmp_path / "missing.csv"),
                "--outcome", "y",
                "--covariates", "x1",
                "--weight", "w",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_unwritable_weight_dump_is_machine_readable(self, tmp_path, capsys):
        cohort_path, survey_path, _ = self_paired_files(tmp_path, n=25, seed=3)
        code = main(
            [
                "estimate",
                "--cohort", cohort_path,
                "--survey", survey_path,
                "--outcome", "y",
                "--covariates", "x1,x2",
                "--weight", "w",
                "--methods", "fdw",
                "--dump-weights", str(tmp_path),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoError"

    def test_missing_survey_file_is_io_error(self, tmp_path, capsys):
        (cohort_path, _), _ = random_pair_files(tmp_path)
        code = main(
            [
                "estimate",
                "--cohort", cohort_path,
                "--survey", str(tmp_path / "missing.csv"),
                "--outcome", "y",
                "--covariates", "x1",
                "--weight", "w",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "IoError"
        assert err["message"].startswith(f"cannot open {tmp_path / 'missing.csv'}")

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
    @pytest.mark.parametrize("flag", ["--cohort", "--config"])
    def test_read_failing_after_the_open_is_io_error(self, tmp_path, capsys, flag):
        # /proc/self/mem opens, but reading it from offset 0 fails with EIO
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        if flag == "--cohort":
            argv = ESTIMATE_ARGV[:2] + ["/proc/self/mem", "--survey", survey_path] + ESTIMATE_ARGV[5:]
        else:
            argv = ["simulate", "--config", "/proc/self/mem"]
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "IoError"
        assert err["message"].startswith("cannot read /proc/self/mem: ")

    @pytest.mark.parametrize(
        "which, body, line, fragment",
        [
            ("cohort", b"y,x1\n1.0,0.5\n2.0,caf\xe9\n", 3, "byte 0xe9 is not UTF-8"),
            ("cohort", b'y,x1\n1.0,0.5\n2.0,"' + b"1" * 131_073 + b'"\n', 3, "field larger than field limit"),
            ("cohort", b'y,x1\n1.0,abc\n2.0,"' + b"1" * 131_073 + b'"\n', 2, "column 'x1': cannot parse 'abc'"),
            # the bad byte lies past the chunks the decoder had read at line 2
            (
                "survey",
                b"x1,w\n0.1,abc\n" + b"0.2,2\n" * 20_000 + b"0.3,2\xe9\n",
                2,
                "column 'w': cannot parse 'abc'",
            ),
            ("survey", b"x1,w\n0.1,2\n0.2,2\xe9\n", 3, "byte 0xe9 is not UTF-8"),
        ],
        ids=[
            "not-utf8",
            "oversized-cell",
            "bad-number-before-oversized-cell",
            "survey-bad-number-before-bad-byte",
            "survey-not-utf8",
        ],
    )
    def test_unparsable_file_is_parse_error(self, tmp_path, capsys, which, body, line, fragment):
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        paths = {"cohort": cohort_path, "survey": survey_path}
        bad = tmp_path / f"bad_{which}.csv"
        bad.write_bytes(body)
        paths[which] = str(bad)
        code = main(
            [
                "estimate",
                "--cohort", paths["cohort"],
                "--survey", paths["survey"],
                "--outcome", "y",
                "--covariates", "x1",
                "--weight", "w",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{bad}: row {line}")
        assert fragment in err["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_empty_covariate_list_is_machine_readable(self, tmp_path, capsys):
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        code = main(
            [
                "estimate",
                "--cohort", cohort_path,
                "--survey", survey_path,
                "--outcome", "y",
                "--covariates", ",",
                "--weight", "w",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingColumnError"
        assert "no covariate columns declared" in err["message"]

    @pytest.mark.parametrize(
        "argv, config, code, fragment",
        [
            (ESTIMATE_ARGV + ["--methods", "alp,tw"], None, 2, "runs only under simulate"),
            (["simulate"], '{"replicates": 3,', 1, "sim.json is not valid JSON"),
            (["simulate"], '"abc"', 1, "sim.json must hold a JSON object, not str"),
            (["simulate"], '{"scenarios": ["loglog"]}', 1, "'loglog' is not a valid Scenario"),
            (["simulate"], '{"methods": ["alp", "xyz"]}', 1, "'xyz' is not a valid Method"),
            (["simulate"], '{"f_c_grid": [0.05, 1.5]}', 1, "rate target must lie in (0, 1)"),
            (["simulate"], '{"scenarios": "log"}', 1, "'scenarios' must be a list, not str"),
            (["simulate"], '{"methods": "alp"}', 1, "'methods' must be a list, not str"),
            (["simulate", "--population-size", "10"], None, 1, "population size below 1000"),
        ],
        ids=[
            "estimate-tw",
            "malformed-json",
            "config-not-an-object",
            "unknown-scenario",
            "unknown-method",
            "rate-outside-unit-interval",
            "scenarios-not-a-list",
            "methods-not-a-list",
            "tiny-population",
        ],
    )
    def test_failure_prints_no_traceback(
        self, tmp_path, monkeypatch, capsys, argv, config, code, fragment
    ):
        # exit 1 with one JSON line on stderr; a malformed argument is a
        # usage error (exit 2) from the argument parser
        monkeypatch.chdir(tmp_path)
        if config is not None:
            argv = argv + ["--config", write(tmp_path / "sim.json", config)]
        try:
            got = main(argv + ["--out", "r.csv"])
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert fragment in err
        if code == 1:
            assert json.loads(err)["error"] == "PseudoweightError"
            assert err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    def test_simulate_deterministic_reports(self, tmp_path):
        cfg = {
            "population_size": 3000,
            "population_seed": 7,
            "scenarios": ["log"],
            "f_c_grid": [0.05],
            "replicates": 12,
            "base_seed": 3,
            "methods": ["naive", "alp"],
        }
        cfg_path = write(tmp_path / "sim.json", json.dumps(cfg))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("scenario,f_c,method,pct_rb,v_emp,vr,mse,cp")

    def test_simulate_rejects_unknown_config_keys(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "sim.json", json.dumps({"not_a_key": 1}))
        assert main(["simulate", "--config", cfg_path]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "not_a_key" in err["message"]

    @pytest.mark.parametrize("missing", [True, False], ids=["missing-file", "directory"])
    def test_unopenable_config_is_io_error(self, tmp_path, capsys, missing):
        path = tmp_path / "absent.json" if missing else tmp_path
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "IoError"
        assert err["message"].startswith(f"cannot open {path}")

    def test_estimate_leaves_scipy_optimize_unloaded(self, tmp_path):
        # A fresh interpreter, since this one has long loaded everything.
        cohort_path, survey_path = stratified_pair_files(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, cohort_path, survey_path, str(tmp_path / "r.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(pseudoweight.__file__).parents[1])},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["estimate:", "False", "study:", "2", "study:", "False"]

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudoweight.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "estimate" in proc.stdout and "simulate" in proc.stdout
