"""Benchmark of the pseudoweight package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-desk --seed 1 --seconds 45 --trace 0

The inputs come from ``--seed`` alone.  Set-up is timed in fresh
interpreters; the timed section runs in a worker process (``worker.py``)
that repeats the workload's call for ``--seconds``.  Every output is
checked (``checks.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from the span
shims (``spans.py``) with ``--trace 1``.  A record of the machine goes to
standard error.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads, here and in
# the worker processes that inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = ".perfbench-work"
SETUP_TRIALS = 7
# Time the worker may take beyond --seconds (warm-up call, set-up trials,
# the last call) before it is stopped; a whole run stays under 180 s.
WORKER_GRACE_S = 90

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulation.calibrate_ms": "ms",
    "simulation.draw_ms_per_rep": "ms",
    "simulation.rep_ms.fc005": "ms",
    "simulation.rep_ms.fc020": "ms",
    "samples.container_ms_per_rep": "ms",
    "samples.pooled_build_ms": "ms",
    "samples.pooled_bytes": "B",
    "samples.validate_ms": "ms",
    "solvers.pooled_fit_ms": "ms",
    "solvers.pooled_fit_ms.fc005": "ms",
    "solvers.pooled_fit_ms.fc020": "ms",
    "solvers.pooled_iters": "count",
    "solvers.pooled_iters.fc005": "count",
    "solvers.pooled_iters.fc020": "count",
    "solvers.clw_fit_ms": "ms",
    "solvers.clw_fit_ms.fc005": "ms",
    "solvers.clw_fit_ms.fc020": "ms",
    "solvers.clw_iters": "count",
    "solvers.clw_iters.fc005": "count",
    "solvers.clw_iters.fc020": "count",
    "solvers.fit_fail_frac": "fraction",
    "estimators.weights_ms": "ms",
    "estimators.calls": "count",
    "variance.tl_ms": "ms",
    "variance.design_ms": "ms",
    "variance.design_psus": "count",
    "io.ingest_ms": "ms",
    "io.ingest_mb_per_s": "MB/s",
    "io.skipped_rows": "count",
    "io.job_self_ms": "ms",
    "io.emit_ms": "ms",
    "cli.main_ms": "ms",
    "process.cpu_s": "s",
    "trace.overhead_frac": "fraction",
}


def machine_record():
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
        "page_cache": "warm (inputs are read right after they are written)",
    }


def tail(times):
    """Highest percentile with at least ten calls beyond it, and its rank.

    Below 20 calls no percentile above the median has ten calls beyond it,
    and the median stands in for the tail.
    """
    n = len(times)
    if n < 20:
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def prepare_estimate(workload, seed, workdir, pw):
    """Write the workload's CSVs and compute what the call must produce."""
    spec = workloads.ESTIMATE_SPECS[workload]
    inputs = workloads.make_estimate_inputs(spec, seed)
    paths = {k: os.path.join(workdir, f"{k}.csv") for k in ("cohort", "survey", "report", "weights")}
    for key, text in (("cohort", workloads.cohort_csv(inputs)), ("survey", workloads.survey_csv(inputs))):
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    rows, weights = checks.expected_estimate_rows(inputs, pw)
    return {
        "argv": workloads.estimate_argv(
            spec, paths["cohort"], paths["survey"], paths["report"], paths["weights"]
        ),
        "outputs": [paths["report"]] + ([paths["weights"]] if spec.dump_weights else []),
        "expected_rows": rows,
        "expected_dump": checks.expected_dump(weights) if spec.dump_weights else None,
        "skipped": {
            paths["cohort"]: len(inputs.cohort_blanks),
            paths["survey"]: len(inputs.survey_blanks),
        },
        "file_rows": {paths["cohort"]: len(inputs.cohort_y), paths["survey"]: len(inputs.survey_d)},
    }


def read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pseudoweight", "__init__.py")):
        print(
            "perfbench: src/pseudoweight not found; run from the root of a pseudoweight checkout",
            file=sys.stderr,
        )
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pseudoweight as pw

    print(json.dumps({"machine": machine_record()}), file=sys.stderr)
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    study = args.workload == "study-desk"
    reps = workloads.STUDY_REPS_PER_CELL
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps_per_cell": reps,
        "setup_trials": SETUP_TRIALS,
        "result_path": os.path.join(workdir, "worker.json"),
        "spans_path": os.path.join(workdir, "spans.jsonl"),
    }
    if study:
        job["outputs"] = [os.path.join(workdir, "report.csv")]
        prep = None
    else:
        prep = prepare_estimate(args.workload, args.seed, workdir, pw)
        job["argv"] = prep["argv"]
        job["outputs"] = prep["outputs"]
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)

    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        check=True, timeout=args.seconds + WORKER_GRACE_S,
    )
    with open(job["result_path"], encoding="utf-8") as fh:
        res = json.load(fh)

    # --- output checks -------------------------------------------------
    report = read(job["outputs"][0])
    problems = []
    if any(res["codes"]):
        problems.append(f"calls exited with codes {sorted(set(res['codes']))}")
    if not res["identical_outputs"]:
        problems.append("outputs differ between calls of one run")
    if study:
        problems += checks.check_study_report(report, reps)
    else:
        problems += checks.check_estimate_report(report, prep["expected_rows"], prep["skipped"])
        if prep["expected_dump"] is not None and read(job["outputs"][1]) != prep["expected_dump"]:
            problems.append("weight dump differs from the library's weights")
    if args.seed == workloads.DEFAULT_SEED:
        ref = os.path.join(HERE, "reference", f"{args.workload}.csv")
        if os.path.isfile(ref):
            problems += checks.compare_to_reference(report, read(ref))
        else:
            problems.append(f"no stored reference {ref}")

    n_calls = len(res["codes"])
    if study:
        ops_per_call = workloads.STUDY_CELLS * len(workloads.STUDY_METHODS) * reps
        attempted = n_calls * ops_per_call
        failed = n_calls * checks.excluded_count(report) if not problems else attempted
    else:
        attempted = n_calls
        failed = sum(1 for c in res["codes"] if c) if not problems else attempted
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    # --- metrics -----------------------------------------------------------
    times = res["times"]
    p50 = statistics.median(times)
    if study:
        cells = checks.study_rows(report)[:: len(workloads.STUDY_METHODS)]
        work_per_call = workloads.STUDY_CELLS * reps  # replicate-cells
        rows_per_call = sum(round(float(c["mean_cohort_size"]) * reps) for c in cells)
    else:
        work_per_call = 1
        rows_per_call = sum(prep["file_rows"].values())
    if args.trace == 0:
        tail_s, tail_pct = tail(times)
        values = {
            "setup_s": statistics.median(res["setup_trials_s"]),
            "reps_per_s": work_per_call * len(times) / sum(times),
            "call_p50_s": p50,
            "call_tail_s": tail_s,
            "rows_per_s": rows_per_call * len(times) / sum(times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        note = f"call_tail_s is p{tail_pct:.0f} of {len(times)} timed calls"
    else:
        traced = res["traced_times"]
        values = spans.layer_metrics(
            spans.read_spans(job["spans_path"]),
            units=len(traced) * work_per_call,
            file_rows=prep["file_rows"] if prep else {},
            reps_per_cell=reps,
        )
        values["process.cpu_s"] = res["cpu_s"] / len(times)
        values["trace.overhead_frac"] = statistics.median(traced) / p50 - 1.0
        units = PER_LAYER
        note = f"{len(times)} untraced and {len(traced)} traced calls"
        if res["missing_patches"]:
            note += f"; not traced (attribute gone): {', '.join(res['missing_patches'])}"
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "note": note,
        "setup_trials_s": res.get("setup_trials_s"),
        "call_times_s": times,
        "cpu_s": res["cpu_s"],
        "wall_s": sum(times),
    }
    print(json.dumps(summary), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
