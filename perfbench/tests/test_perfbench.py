"""Tests of the benchmark's own logic: output checks, span arithmetic,
input generation and the metric tables.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import pseudoweight as pw  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pseudoweight import cli  # noqa: E402

STUDY_REF = (BENCH / "reference" / "study-desk.csv").read_text(encoding="utf-8")
TINY = workloads.EstimateSpec(
    n_cohort=400,
    n_survey=600,
    cohort_blank_frac=0.02,
    survey_blank_frac=0.02,
    strata=5,
    psus_per_stratum=4,
    dump_weights=True,
    code=9,
)


def _csv(header, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + rows)
    return out.getvalue()


def _set_cell(text, row, column, value):
    header, rows = checks.parse_csv(text)
    rows[row][header.index(column)] = value
    return _csv(header, rows)


def test_stored_study_reference_passes_every_check():
    assert checks.check_study_report(STUDY_REF, workloads.STUDY_REPS_PER_CELL) == []
    assert checks.compare_to_reference(STUDY_REF, STUDY_REF) == []


def test_study_report_with_one_float_perturbed_is_rejected():
    header, rows = checks.parse_csv(STUDY_REF)
    v = float(rows[10][header.index("v_emp")])
    bad = _set_cell(STUDY_REF, 10, "v_emp", repr(v * (1 + 1e-6)))
    assert checks.compare_to_reference(bad, STUDY_REF) != []
    # last-bit differences between BLAS kernels stay within the tolerance
    close = _set_cell(STUDY_REF, 10, "v_emp", repr(v * (1 + 1e-12)))
    assert checks.compare_to_reference(close, STUDY_REF) == []


def test_study_report_with_wrong_n_excluded_is_rejected():
    bad = _set_cell(STUDY_REF, 3, "n_excluded", "1")
    problems = checks.check_study_report(bad, workloads.STUDY_REPS_PER_CELL)
    assert len(problems) == 1 and "n_excluded" in problems[0]
    assert checks.compare_to_reference(bad, STUDY_REF) != []


def test_study_report_out_of_grid_order_is_rejected():
    header, rows = checks.parse_csv(STUDY_REF)
    rows[0], rows[1] = rows[1], rows[0]
    assert checks.check_study_report(_csv(header, rows), workloads.STUDY_REPS_PER_CELL) != []


def _tiny_run(tmp_path, seed=3):
    inputs = workloads.make_estimate_inputs(TINY, seed)
    paths = {k: str(tmp_path / f"{k}.csv") for k in ("cohort", "survey", "report", "weights")}
    Path(paths["cohort"]).write_text(workloads.cohort_csv(inputs), encoding="utf-8")
    Path(paths["survey"]).write_text(workloads.survey_csv(inputs), encoding="utf-8")
    argv = workloads.estimate_argv(
        TINY, paths["cohort"], paths["survey"], paths["report"], paths["weights"]
    )
    skipped = {paths["cohort"]: len(inputs.cohort_blanks), paths["survey"]: len(inputs.survey_blanks)}
    return inputs, paths, argv, skipped


def test_estimate_report_matches_library_exactly(tmp_path):
    inputs, paths, argv, skipped = _tiny_run(tmp_path)
    assert cli.main(argv) == 0
    rows, weights = checks.expected_estimate_rows(inputs, pw)
    report = Path(paths["report"]).read_text(encoding="utf-8")
    assert checks.check_estimate_report(report, rows, skipped) == []
    assert Path(paths["weights"]).read_text(encoding="utf-8") == checks.expected_dump(weights)

    header, got = checks.parse_csv(report)
    ulp_off = repr(float(got[1][header.index("variance")]) * (1 + 2**-50))
    assert checks.check_estimate_report(_set_cell(report, 1, "variance", ulp_off), rows, skipped)
    wrong_skip = {p: n + 1 for p, n in skipped.items()}
    assert checks.check_estimate_report(report, rows, wrong_skip)


def test_shims_leave_attributes_and_outputs_unchanged(tmp_path):
    _, paths, argv, _ = _tiny_run(tmp_path)
    assert cli.main(argv) == 0
    untraced = Path(paths["report"]).read_bytes(), Path(paths["weights"]).read_bytes()
    before = {(m, a): getattr(sys.modules[f"pseudoweight.{m}"], a) for m, a, _, _ in spans.PATCHES}

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()

    assert (Path(paths["report"]).read_bytes(), Path(paths["weights"]).read_bytes()) == untraced
    assert all(getattr(sys.modules[f"pseudoweight.{m}"], a) is f for (m, a), f in before.items())
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "io.ingest", "solvers.fit_clw_score", "variance.design"} <= names
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main"]


def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span(0, -1, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 1, "a.child", 2.0, 3.0),
        spans.Span(3, 0, "b", 3.0, 6.0),  # overlaps a: [3, 4] counts once
        spans.Span(4, 0, "c", 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_split_by_cell_and_normalise_per_unit():
    tree = [
        spans.Span(0, -1, "simulation.run_monte_carlo", 0.0, 1.0),
        spans.Span(1, 0, "simulation.cell", 0.0, 0.5, {"f_c": 0.005}),
        spans.Span(2, 1, "solvers.fit_pooled_logistic", 0.1, 0.2, {"iters": 9}),
        spans.Span(3, 0, "simulation.cell", 0.5, 1.0, {"f_c": 0.2}),
        spans.Span(4, 3, "solvers.fit_pooled_logistic", 0.6, 0.9, {"iters": 5}),
        spans.Span(5, 3, "simulation.calibrate", 0.5, 0.6),
    ]
    m = spans.layer_metrics(tree, units=4, file_rows={}, reps_per_cell=2)
    assert m["solvers.pooled_fit_ms"] == pytest.approx(200.0)
    assert m["solvers.pooled_fit_ms.fc005"] == pytest.approx(100.0)
    assert m["solvers.pooled_iters.fc020"] == pytest.approx(5.0)
    assert m["simulation.calibrate_ms"] == pytest.approx(100.0)
    # cell self time (0.4 + 0.1 s) over 4 replicate-cells
    assert m["simulation.draw_ms_per_rep"] == pytest.approx(125.0)
    # 0.20 cell without its calibration, over its 2 replicates
    assert m["simulation.rep_ms.fc020"] == pytest.approx(200.0)
    assert m["io.ingest_ms"] == 0.0
    assert set(m) | {"process.cpu_s", "trace.overhead_frac"} == set(run.PER_LAYER)


def test_generator_is_deterministic_per_seed():
    a = workloads.make_estimate_inputs(TINY, 5)
    b = workloads.make_estimate_inputs(TINY, 5)
    c = workloads.make_estimate_inputs(TINY, 6)
    for fn in (workloads.cohort_csv, workloads.survey_csv):
        assert fn(a) == fn(b)
        assert fn(a) != fn(c)
    assert a.cohort_blanks == b.cohort_blanks
    assert (a.survey_d >= 1.0).all()


def test_generated_csv_round_trips_floats_exactly():
    inputs = workloads.make_estimate_inputs(replace(TINY, cohort_blank_frac=0.0), 7)
    header, rows = checks.parse_csv(workloads.cohort_csv(inputs))
    assert [float(r[0]) for r in rows] == inputs.cohort_y.tolist()


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(times[:15]) == (8.0, 50.0)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
