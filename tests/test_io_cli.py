import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudoweight
from pseudoweight import (
    CohortSample,
    DesignInfo,
    DesignKind,
    EmptyFileError,
    EstimateRow,
    EstimationJob,
    IoError,
    Method,
    MissingColumnError,
    ParseError,
    PseudoweightError,
    SurveySample,
    ValidationError,
    emit_report,
    emit_simulation_report,
    estimate,
    ingest_delimited,
    run_estimation_job,
)
from pseudoweight import estimators, io, parallel
from pseudoweight.cli import main
from pseudoweight.simulation import CellResult, SimulationReport

from oracles import table_bytes


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
        EstimateRow("alp", 1.5, 0.25, 0.52, 2.48, None, None, 1.0, 3.0, 0.4, ""),
        EstimateRow("clw", 1.6, 0.3, 0.53, 2.67, None, None, 1.1, 3.3, 0.5, ""),
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

    @pytest.mark.parametrize("survey_outcome", [True, False])
    def test_csv_and_json_columns_follow_one_rule(self, tmp_path, survey_outcome):
        # both formats: every EstimateRow field in order, pct_rd and mse only
        # when the survey carries the outcome (naive's mse is then empty)
        (cohort_path, survey_path), (_, _, xs, d) = random_pair_files(tmp_path)
        if survey_outcome:
            cells = zip((1.0 + xs).tolist(), xs.tolist(), d.tolist())
            text = "y,x1,w\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in cells)
            survey_path = write(tmp_path / "s.csv", text)
        methods = (Method.NAIVE, Method.ALP)
        job = EstimationJob(cohort_path, survey_path, "y", ("x1",), "w", methods=methods)
        rows = run_estimation_job(job)
        emit_report(rows, tmp_path / "r.csv")
        emit_report(rows, tmp_path / "r.json")
        columns = [f.name for f in dataclasses.fields(EstimateRow)]
        if not survey_outcome:
            columns = [c for c in columns if c not in ("pct_rd", "mse")]
        with open(tmp_path / "r.csv", newline="") as fh:
            table = list(csv.reader(fh))
        doc = json.loads((tmp_path / "r.json").read_text())
        assert table[0] == columns
        assert [list(entry) for entry in doc] == [columns] * len(methods)
        assert [row[columns.index("method")] for row in table[1:]] == ["naive", "alp"]
        if survey_outcome:
            assert doc[0]["mse"] is None and table[1][columns.index("mse")] == ""
            assert all(entry["pct_rd"] is not None for entry in doc)
            assert doc[1]["mse"] is not None

    def test_json_writes_null_for_non_finite_floats(self, tmp_path):
        # a negative variance leaves the interval NaN
        nan_interval = dict(variance=-0.07, ci_low=math.nan, ci_high=math.nan)
        rows = [dataclasses.replace(self.ROWS[0], **nan_interval)]

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        emit_report(rows, tmp_path / "r.json")
        (doc,) = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        assert doc["ci_low"] is None and doc["ci_high"] is None
        assert doc["variance"] == -0.07
        emit_report(rows, tmp_path / "r.csv")
        assert ",-0.07,nan,nan," in (tmp_path / "r.csv").read_text()

    # NaN, the infinities, -0.0, the least subnormal, 17-digit doubles
    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.30000000000000004,
              1.2345678901234567e-300, 2.0]
    CELLS = FLOATS + [None, 7, -12, "alp", 'a, "b"', ""]

    def test_csv_cells_follow_the_reference_rule(self, tmp_path):
        columns = [f.name for f in dataclasses.fields(EstimateRow)]
        rows = [
            [self.CELLS[(i + j) % len(self.CELLS)] for j in range(len(columns))]
            for i in range(len(self.CELLS))
        ]
        emit_report([EstimateRow(*row) for row in rows], tmp_path / "r.csv")
        expected = table_bytes(columns, rows)
        assert (tmp_path / "r.csv").read_bytes() == expected

    def test_numpy_float_cell_is_written_as_its_float(self, tmp_path):
        row = dataclasses.replace(self.ROWS[0], estimate=0.1 + 0.2, variance=math.nan)
        emit_report([row], tmp_path / "float.csv")
        as_numpy = dataclasses.replace(
            row, estimate=np.float64(row.estimate), variance=np.float64("nan")
        )
        emit_report([as_numpy], tmp_path / "numpy.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()

    def test_simulation_report_cells_follow_the_reference_rule(self, tmp_path):
        floats = self.FLOATS
        cells = [
            CellResult(
                scenario=("log", "a, b")[i % 2],
                f_c=floats[i],
                method="alp",
                pct_rb=floats[(i + 1) % len(floats)],
                v_emp=floats[(i + 2) % len(floats)],
                vr=None if i % 3 == 0 else floats[(i + 3) % len(floats)],
                mse=floats[(i + 4) % len(floats)],
                cp=None if i % 3 == 0 else floats[(i + 5) % len(floats)],
                n_replicates=1000 - i,
                n_excluded=i,
                mean_cohort_size=floats[(i + 6) % len(floats)],
                warning_counts=(("negative-cohort-component", i), ("pi-hat-above-one", 3))[: i % 3],
            )
            for i in range(len(floats))
        ]
        out = tmp_path / "sim.csv"
        emit_simulation_report(SimulationReport(1.0, 100, 1000, 1, tuple(cells)), out)
        header = ["scenario", "f_c", "method", "pct_rb", "v_emp", "vr", "mse", "cp",
                  "n_replicates", "n_excluded", "mean_cohort_size", "warnings"]
        rows = (
            [getattr(cell, c) for c in header[:-1]]
            + ["; ".join(f"{k}: {v}" for k, v in cell.warning_counts)]
            for cell in cells
        )
        assert out.read_bytes() == table_bytes(header, rows)


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
        assert rows[0].estimate == pytest.approx(float(np.mean(y)), abs=1e-6)

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
            assert row.pct_rd is not None and row.mse is not None
        assert abs(rows[0].pct_rd) < 1e-4
        assert [r.method for r in rows] == ["alp", "fdw"]

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
        assert rows[0].pct_rd is None and rows[0].mse is None
        assert rows[0].variance is not None

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
        assert row.variance > 0
        assert row.ci_low < row.estimate < row.ci_high

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
        assert [r.method for r in rows] == ["naive", "rdw", "fdw", "alp", "clw", "alps"]
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
        assert run_estimation_job(job)[0].pct_rd is not None
        assert opened == [cohort_path, survey_path]

    def test_survey_from_a_pipe_is_read_once_whole(self, tmp_path, monkeypatch, no_child_left):
        # a pipe's bytes can be read only once, so it is never cut into spans
        monkeypatch.setattr(io, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(io, "_SPAN_BYTES", 1)
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        job = EstimationJob(cohort_path, survey_path, "y", ("x1",), "w", methods=ALL_METHODS)
        expected = run_estimation_job(job)
        pipe = tmp_path / "survey.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(Path(survey_path).read_bytes(),))
        writer.start()
        try:
            got = run_estimation_job(dataclasses.replace(job, survey_path=str(pipe)))
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert repr(got) == repr(expected)

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

    @pytest.mark.parametrize(
        "methods, name",
        [((Method.ALP, Method.ALP, Method.FDW), "alp"), (("fdw", Method.CLW, Method.FDW), "fdw")],
    )
    def test_repeated_method_is_rejected_before_any_file_is_read(self, tmp_path, methods, name):
        job = EstimationJob(
            cohort_path=str(tmp_path / "missing-cohort.csv"),
            survey_path=str(tmp_path / "missing-survey.csv"),
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            methods=methods,
        )
        message = f"method '{name}' is requested more than once"
        with pytest.raises(PseudoweightError, match=message) as info:
            run_estimation_job(job)
        assert type(info.value) is PseudoweightError

    def test_empty_method_list_is_rejected_before_any_file_is_read(self, tmp_path):
        dump = tmp_path / "w.csv"
        job = EstimationJob(
            cohort_path=str(tmp_path / "missing-cohort.csv"),
            survey_path=str(tmp_path / "missing-survey.csv"),
            outcome_column="y",
            covariate_columns=("x1",),
            weight_column="w",
            methods=(),
            dump_weights_path=str(dump),
        )
        with pytest.raises(PseudoweightError, match="no methods given") as info:
            run_estimation_job(job)
        assert type(info.value) is PseudoweightError
        assert not dump.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_method_whose_key_raises_does_not_take_a_fit_group(
        self, tmp_path, monkeypatch, no_child_left, cpus
    ):
        # survey weights totalling less than the cohort make rdw's rescale
        # factor negative, so its fit key raises; alp's key is 1.0, which a
        # raising method keyed by its index, 1, would replace
        cohort, survey, _ = self_paired_files(tmp_path)
        with open(survey) as fh:
            text = fh.read()
        write(tmp_path / "survey.csv", text.replace(",1.0\n", ",0.9\n"))
        job = EstimationJob(
            cohort, survey, "y", ("x1", "x2"), "w",
            design_kind=DesignKind.IID,
            methods=(Method.ALP, Method.RDW),
        )
        error, message = job_outcome(monkeypatch, cpus, job)
        assert error == "RescaleError"
        assert "rescale" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_survey_outcome_is_a_validation_error(self, tmp_path, value):
        job = EstimationJob(
            cohort_path=write(tmp_path / "c.csv", COHORT_CSV),
            survey_path=write(
                tmp_path / "s.csv", f"y,x1,x2,w\n1.0,0.2,0.8,2.0\n{value},-0.1,0.3,2.0\n"
            ),
            outcome_column="y",
            covariate_columns=("x1", "x2"),
            weight_column="w",
            methods=(Method.NAIVE,),
        )
        with pytest.raises(ValidationError) as info:
            run_estimation_job(job)
        assert info.value.violations == ("non-finite entries in survey outcome",)

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
        assert row.w_min == pytest.approx(1.0, abs=1e-6)
        assert row.w_max == pytest.approx(1.0, abs=1e-6)
        assert row.w_cv == pytest.approx(0.0, abs=1e-6)


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
    method, skip notices in both files, empty lines, errors in a method's
    key, in validation and in either file or both, and each thing that
    makes a file be read whole instead of in spans, put in the survey's
    last line (so in the last span only): a quote, a CR, a NUL, text in a
    numeric cell, a byte that is not UTF-8 and a field over the ``csv``
    limit (:data:`FIELD_LIMITS`); and a byte-order mark starting both
    files, before a plain header or a quoted one."""

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

    def empty_lines(tmp_path):
        job = random_pair(tmp_path)
        for name, at in (("cohort_path", 3), ("survey_path", 41)):  # the survey's last
            lines = Path(job[name]).read_text(encoding="utf-8").splitlines(keepends=True)
            lines.insert(at, "\n")
            Path(job[name]).write_text("".join(lines), encoding="utf-8")
        with_blank_cell(job["cohort_path"], 6)
        return job

    def last_survey_line(change):
        def build(tmp_path):
            job = random_pair(tmp_path)
            path = Path(job["survey_path"])
            head, last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
            path.write_bytes(head + b"\n" + change(last) + b"\n")
            return job

        return build

    def byte_order_mark(quote):
        def build(tmp_path):
            job = random_pair(tmp_path)
            for name in ("cohort_path", "survey_path"):
                path = Path(job[name])
                head, rest = path.read_bytes().split(b"\n", 1)
                if quote:
                    head = b'"' + head.replace(b",", b'",', 1)
                path.write_bytes("\ufeff".encode() + head + b"\n" + rest)
            return job

        return build

    return {
        "random-pair": lambda tmp_path: random_pair(tmp_path),
        "skipped-rows": skipped_rows,
        "empty-lines": empty_lines,
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
        "last-quoted": last_survey_line(lambda line: b'"' + line.replace(b",", b'",', 1)),
        "last-cr": last_survey_line(lambda line: line + b"\r"),
        "last-nul": last_survey_line(lambda line: line + b"\0"),
        "last-text": last_survey_line(lambda line: b"abc," + line.split(b",", 1)[1]),
        "last-not-utf8": last_survey_line(lambda line: line + b"\xff"),
        "last-over-limit": last_survey_line(lambda line: line + b"0" * 100),
        # a short and a long row, which spans read as csv.reader does
        "last-short": last_survey_line(lambda line: line.rsplit(b",", 1)[0]),
        "last-long": last_survey_line(lambda line: line + b",extra"),
        "bom": byte_order_mark(quote=False),
        "bom-quoted-header": byte_order_mark(quote=True),
    }


#: ``csv.field_size_limit`` per job case, so that a 100-digit field is over
#: it while every other line of the test files is under it
FIELD_LIMITS = {"last-over-limit": 64}
#: the job cases whose files are not cut into spans: a quote, CR or NUL byte
UNSPANNED_CASES = {"last-quoted", "last-cr", "last-nul", "bom-quoted-header"}
#: per job case, the file read whole after its spans, which hold a block
#: that is not plain or does not parse
REREAD_CASES = dict.fromkeys(["bad-cohort", "both-bad"], "cohort_path") | dict.fromkeys(
    ["bad-survey", "last-text", "last-not-utf8", "last-over-limit"], "survey_path"
)


def job_outcome(monkeypatch, cpus, job):
    """The rows of ``job`` at ``cpus`` usable CPUs, with one span per CPU
    however small the files, or its error's class and message."""
    monkeypatch.setattr(io, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(io, "_SPAN_BYTES", 1)
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
        # per run, whether the files were cut into spans, and the files this
        # process then read whole
        runs, read_spans, read_columns = [], io._read_spans, io._read_columns
        monkeypatch.setattr(
            io, "_read_spans", lambda *args: runs.append((read_spans(*args), [])) or runs[-1][0]
        )
        monkeypatch.setattr(
            io,
            "_read_columns",
            lambda path, *args: runs[-1][1].append(path) or read_columns(path, *args),
        )
        limit = csv.field_size_limit(FIELD_LIMITS.get(case, csv.field_size_limit()))
        try:
            one = job_outcome(monkeypatch, 1, job)
            assert job_outcome(monkeypatch, 2, job) == one
            assert job_outcome(monkeypatch, 3, job) == one
            # each file read whole
            monkeypatch.setattr(io, "_read_spans", lambda *args: runs.append((None, [])))
            whole = job_outcome(monkeypatch, 2, job)
        finally:
            csv.field_size_limit(limit)
        spanned = [reads is not None for reads, _ in runs]
        assert spanned == [False] + [case not in UNSPANNED_CASES] * 2 + [False]
        if case not in UNSPANNED_CASES:
            reread = [getattr(job, REREAD_CASES[case])] if case in REREAD_CASES else []
            assert [paths for _, paths in runs[1:3]] == [reread] * 2
        assert whole == one
        if case == "skipped-rows":  # the cohort's notice, then the survey's
            notices = "c.csv: skipped 1 row(s) with missing declared fields (rows 4); "
            assert notices + f"{job.survey_path}: skipped 1 row(s)" in one
        if case == "last-short":  # its absent weight cell skips it
            notice = "skipped 1 row(s) with missing declared fields (rows 41)"
            assert f"{job.survey_path}: {notice}" in one
        if case == "empty-lines":  # the empty line is counted, not reported
            assert "c.csv: skipped 1 row(s) with missing declared fields (rows 6)" in one
        bad = {"bad-cohort": (job.cohort_path, "y"), "both-bad": (job.cohort_path, "y")}
        bad["bad-survey"] = (job.survey_path, "x1")
        if case in bad:
            path, column = bad[case]
            message = f"{path}: row 3, column {column!r}: cannot parse 'abc' as a number"
            assert one == ("ParseError", message)
        if case == "key-raises":
            assert one[0] == "InfeasibleTotalsError"  # clw comes before rdw
        last = {
            "last-text": "row 41, column 'x1': cannot parse 'abc' as a number",
            "last-nul": "row 41, column 'w': cannot parse",
            "last-not-utf8": "row 41: byte 0xff is not UTF-8",
            "last-over-limit": "row 41: field larger than field limit (64)",
        }
        if case in last:
            assert one[0] == "ParseError" and one[1].startswith(f"{job.survey_path}: {last[case]}")
        # read as the plain file is: a quote, a CR or a byte-order mark changes nothing
        if case in ("last-quoted", "last-cr", "bom", "bom-quoted-header"):
            (tmp_path / "plain").mkdir()
            plain = job_cases()["random-pair"](tmp_path / "plain")
            assert one == job_outcome(monkeypatch, 1, EstimationJob(**(fields | plain)))

    @pytest.mark.parametrize("change", ["none", "small", "cr", "one-cpu"])
    def test_forks_for_spans_only_when_they_pay(self, tmp_path, monkeypatch, change):
        # spans only when two or more CPUs each get _SPAN_BYTES and no byte is
        # a quote, CR or NUL; otherwise each file is read whole, as before
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        if change != "small":
            monkeypatch.setattr(io, "_SPAN_BYTES", 1)
        if change == "cr":
            Path(survey_path).write_bytes(Path(survey_path).read_bytes().replace(b"\n", b"\r\n"))
        maps, fork_map = [], io._fork_map
        monkeypatch.setattr(io, "_usable_cpus", lambda: 1 if change == "one-cpu" else 3)
        monkeypatch.setattr(
            io,
            "_fork_map",
            lambda fn, items, workers: maps.append((fn.__name__, len(items), workers))
            or fork_map(fn, items, 1),
        )
        run_estimation_job(EstimationJob(cohort_path, survey_path, "y", ("x1",), "w"))
        cpus = 1 if change == "one-cpu" else 3
        assert maps[0] == (("span", 3, 3) if change == "none" else ("_ingest", 2, cpus))
        assert len(maps) == 2  # then the fit groups

    def test_rows_carry_only_the_package_notices(self, tmp_path, monkeypatch, no_child_left):
        # a fork that warns, as CPython 3.12+ does in a process with other
        # threads, inside the survey read's warning capture: the warning
        # keeps its normal course and stays out of the report
        (cohort_path, survey_path), _ = random_pair_files(tmp_path)
        with_blank_cell(survey_path, 7)
        monkeypatch.setattr(io, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(io, "_SPAN_BYTES", 1)
        fork, forks = parallel.os.fork, []

        def warning_fork():
            warnings.warn("this process is multi-threaded", DeprecationWarning, stacklevel=2)
            forks.append(None)
            return fork()

        monkeypatch.setattr(parallel.os, "fork", warning_fork)
        job = EstimationJob(cohort_path, survey_path, "y", ("x1",), "w", methods=ALL_METHODS)
        with pytest.warns(DeprecationWarning, match="multi-threaded"):
            rows = run_estimation_job(job)
        assert forks
        notice = f"{survey_path}: skipped 1 row(s) with missing declared fields (rows 7)"
        assert rows[0].warnings == notice
        assert all(row.warnings.endswith(notice) for row in rows)
        assert not any("multi-threaded" in row.warnings for row in rows)

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_survey_mean_gives_nan_relative_difference(self, tmp_path, monkeypatch, fmt):
        # the survey's design-weighted outcome mean is exactly 0.0
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "c.csv", "y,x1\n1.0,0.5\n2.0,-0.3\n0.5,1.2\n3.0,0.1\n")
        write(tmp_path / "s.csv", "y,x1,w\n1,0.2,10\n-1,0.9,10\n0,-0.4,10\n")
        argv = ESTIMATE_ARGV + ["--methods", "naive,alp", "--out", f"r.{fmt}"]
        assert main(argv) == 0
        text = (tmp_path / f"r.{fmt}").read_text()
        if fmt == "json":
            rows = json.loads(text)
        else:
            rows = list(csv.DictReader(text.splitlines()))
        naive, alp = rows
        assert naive["pct_rd"] == alp["pct_rd"] == (None if fmt == "json" else "nan")
        assert naive["mse"] == (None if fmt == "json" else "")
        # the squared error against the survey estimate, 0.0, is kept
        estimate, variance = float(alp["estimate"]), float(alp["variance"])
        assert float(alp["mse"]) == estimate**2 + variance

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
            # the bad byte lies in the bad number's block of lines, in a later
            # chunk of the decoder
            (
                "survey",
                b"x1,w\n0.1,abc\n" + b"0.2,2\n" * 3000 + b"0.3,2\xe9\n",
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
            "survey-bad-number-before-bad-byte-in-its-block",
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
            (ESTIMATE_ARGV + ["--methods", "alp,ALP"], None, 1, "'alp' is requested more than once"),
            (["simulate"], '{"methods": ["alp", "alp"]}', 1, "'alp' is requested more than once"),
            (["simulate"], '{"replicates": 3,', 1, "sim.json is not valid JSON"),
            (["simulate"], '"abc"', 1, "sim.json must hold a JSON object, not str"),
            (["simulate"], '{"scenarios": ["loglog"]}', 1, "'loglog' is not a valid Scenario"),
            (["simulate"], '{"methods": ["alp", "xyz"]}', 1, "'xyz' is not a valid Method"),
            (["simulate"], '{"f_c_grid": [0.05, 1.5]}', 1, "rate target must lie in (0, 1)"),
            (
                ["simulate"],
                '{"f_c_grid": [0.05, 0.05004]}',
                1,
                "cell (log, f_c=0.05) and cell (log, f_c=0.05004) would draw the same replicates",
            ),
            (["simulate"], '{"scenarios": "log"}', 1, "'scenarios' must be a list, not str"),
            (["simulate"], '{"methods": "alp"}', 1, "'methods' must be a list, not str"),
            (["simulate", "--population-size", "10"], None, 1, "population size below 1000"),
        ],
        ids=[
            "estimate-tw",
            "estimate-repeated-method",
            "simulate-repeated-method",
            "malformed-json",
            "config-not-an-object",
            "unknown-scenario",
            "unknown-method",
            "rate-outside-unit-interval",
            "cells-with-one-seed-key",
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

    def test_survey_fraction_outside_the_unit_interval_fails_the_study(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "sim.json", json.dumps({"f_p": 1.5}))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "CellInfeasibleError",
            "message": "the survey cannot be calibrated: "
            "survey sampling fraction must lie in (0, 1)",
        }
        assert not out.exists()

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
        assert header == (
            "scenario,f_c,method,pct_rb,v_emp,vr,mse,cp,"
            "n_replicates,n_excluded,mean_cohort_size,warnings"
        )

    @pytest.mark.parametrize("key", ["f_c_grid", "scenarios"])
    def test_simulate_with_no_cells_refuses_an_empty_report(self, tmp_path, capsys, key):
        cfg = {"population_size": 2000, "replicates": 3, key: []}
        cfg_path = write(tmp_path / "sim.json", json.dumps(cfg))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "IoError",
            "message": "refusing to write an empty simulation report",
        }
        assert not out.exists()

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
