"""Timed section of one benchmark run, in a process of its own.

Run by ``run.py`` as ``python3 perfbench/worker.py <job.json>``.  The
process imports the package from ``src/`` of the checkout, makes one
warm-up call, then repeats the workload's call until the time is up.  Its
peak resident memory therefore covers the import and the calls only, not
the input generation the parent did.

Untraced runs also time the set-up in fresh interpreters (``--setup``),
spread evenly over the timed window and left out of the call times, so
that set-up and calls sample the same mix of host load.

With tracing on, the first half of the time runs untraced and the second
half runs with the span shims installed.  Every call's outputs must be
byte-identical to the warm-up call's, so the traced reports are shown to
equal the untraced ones.

``python3 perfbench/worker.py --setup <workload>`` instead times one fresh
interpreter's set-up and prints it.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.getcwd()


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pseudoweight

    if not os.path.abspath(pseudoweight.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"pseudoweight was imported from {pseudoweight.__file__}")
    return pseudoweight


def setup_probe(workload):
    """Seconds to import the package, plus the study's calibration."""
    t0 = time.perf_counter()
    pw = _import_package()
    if workload == "study-desk":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from workloads import STUDY_F_C_GRID, STUDY_SCENARIOS

        population = pw.generate_population(pw.PopulationConfig())
        for scenario in STUDY_SCENARIOS:
            for f_c in STUDY_F_C_GRID:
                pw.calibrate_participation_intercept(population, pw.Scenario(scenario), f_c)
                pw.calibrate_survey_const(population, 0.025)
    return time.perf_counter() - t0


def _setup_trial(workload):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup", workload],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run(job):
    pw = _import_package()
    from pseudoweight import cli, io, simulation

    outputs = job["outputs"]

    if job["workload"] == "study-desk":
        population = pw.PopulationConfig()

        def call():
            report = simulation.run_monte_carlo(
                population, replicates=job["reps_per_cell"], base_seed=job["seed"]
            )
            io.emit_simulation_report(report, outputs[0])
            return 0
    else:

        def call():
            return cli.main(job["argv"])

    codes = [call()]
    reference = _digest(outputs)
    same = True

    def timed_loop(seconds, trials=0):
        """Repeat the call for ``seconds``.  Run ``trials`` set-up trials at
        even steps of the window; their time extends the window.  Returns
        the call times, the CPU seconds of the calls and the set-up times."""
        nonlocal same
        times, setup, cpu = [], [], 0.0
        start = end = time.perf_counter()
        deadline = start + seconds
        while end < deadline:
            if len(setup) < trials and time.perf_counter() - start >= seconds * len(setup) / trials:
                t = time.perf_counter()
                setup.append(_setup_trial(job["workload"]))
                deadline += time.perf_counter() - t
            c0, t0 = _cpu(), time.perf_counter()
            codes.append(call())
            end = time.perf_counter()
            times.append(end - t0)
            cpu += _cpu() - c0
            same = same and _digest(outputs) == reference
        setup += [_setup_trial(job["workload"]) for _ in range(trials - len(setup))]
        return times, cpu, setup

    result = {"warmup_code": codes[0]}
    if not job["trace"]:
        result["times"], result["cpu_s"], result["setup_trials_s"] = timed_loop(
            job["seconds"], job["setup_trials"]
        )
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        result["times"], result["cpu_s"], _ = timed_loop(job["seconds"] / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_times"], _, _ = timed_loop(job["seconds"] / 2)
        finally:
            tracer.uninstall()
        tracer.write(job["spans_path"])
        result["missing_patches"] = tracer.missing
    result["codes"] = codes
    result["identical_outputs"] = same
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv):
    if argv[:1] == ["--setup"]:
        print(json.dumps({"setup_s": setup_probe(argv[1])}))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
