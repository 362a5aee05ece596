"""CPU time and peak memory of benchmark calls, in this process and in the
child processes it waited for.

perfbench's worker reads ``RUSAGE_SELF`` only.  The study's replicates, and
``estimate``'s cohort read and fit groups, run in forked children once two
CPUs are usable, so that covers the calling process alone.  This script
makes the same calls as one of two workloads and prints one JSON line with
both sides of the account, and their sum per call:

* ``study-desk``: ``run_monte_carlo`` on the desk population, 5 replicates
  per cell of the 2 x 4 grid, all seven methods, the workload seed as base
  seed, report written to a CSV;
* ``estimate-clustered``: ``cli.main`` on the workload's cohort and survey
  CSV files, made from the seed by ``perfbench/workloads.py`` (imported,
  not changed), stratified design, six methods, report written to a CSV.

One untimed warm-up call comes first; the CPU times cover the timed calls
only.  ``RUSAGE_CHILDREN``'s peak RSS is that of the largest child.

Run from the root of a checkout, with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 python3 scripts/study_child_usage.py --seed 1 --calls 40
    OPENBLAS_NUM_THREADS=1 python3 scripts/study_child_usage.py \\
        --workload estimate-clustered --seed 1 --calls 40
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))

from pseudoweight import PopulationConfig, cli, emit_simulation_report, run_monte_carlo  # noqa: E402

REPS_PER_CELL = 5
WORKLOADS = ("study-desk", "estimate-clustered")


def _usage(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024.0


def _call(workload, seed, tmp):
    """The workload's call, with its inputs written under ``tmp``."""
    out = os.path.join(tmp, "report.csv")
    if workload == "study-desk":

        def call():
            report = run_monte_carlo(PopulationConfig(), replicates=REPS_PER_CELL, base_seed=seed)
            emit_simulation_report(report, out)

        return call
    import workloads

    spec = workloads.ESTIMATE_SPECS[workload]
    inputs = workloads.make_estimate_inputs(spec, seed)
    cohort, survey = os.path.join(tmp, "cohort.csv"), os.path.join(tmp, "survey.csv")
    with open(cohort, "w", encoding="utf-8") as fh:
        fh.write(workloads.cohort_csv(inputs))
    with open(survey, "w", encoding="utf-8") as fh:
        fh.write(workloads.survey_csv(inputs))
    argv = workloads.estimate_argv(spec, cohort, survey, out, os.path.join(tmp, "weights.csv"))

    def call():
        if cli.main(argv) != 0:
            raise SystemExit(f"{workload} call failed")

    return call


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="study-desk")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        call = _call(args.workload, args.seed, tmp)
        call()  # warm-up
        self0, _ = _usage(resource.RUSAGE_SELF)
        children0, _ = _usage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        for _ in range(args.calls):
            call()
        wall = time.perf_counter() - start
    self_cpu, self_rss = _usage(resource.RUSAGE_SELF)
    children_cpu, child_rss = _usage(resource.RUSAGE_CHILDREN)
    self_cpu, children_cpu = self_cpu - self0, children_cpu - children0
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "calls": args.calls,
                "wall_s": wall,
                "self_cpu_s": self_cpu,
                "self_peak_rss_mb": self_rss,
                "children_cpu_s": children_cpu,
                "largest_child_peak_rss_mb": child_rss,
                "cpu_s_per_call": (self_cpu + children_cpu) / args.calls,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
