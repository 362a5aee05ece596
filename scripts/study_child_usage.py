"""CPU time and peak memory of the study-desk calls, in this process and
in the child processes it waited for.

perfbench's worker reads ``RUSAGE_SELF`` only.  Once the study's
replicates run in worker processes, that covers the calling process alone.
This script makes the same calls as the ``study-desk`` workload
(``run_monte_carlo`` on the desk population, 5 replicates per cell of the
2 x 4 grid, all seven methods, the workload seed as base seed, report
written to a CSV) and prints one JSON line with both sides of the account.
``RUSAGE_CHILDREN``'s peak RSS is that of the largest child.

Run from the root of a checkout, with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 python3 scripts/study_child_usage.py --seed 1 --calls 40
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pseudoweight import PopulationConfig, emit_simulation_report, run_monte_carlo  # noqa: E402

REPS_PER_CELL = 5


def _usage(who):
    r = resource.getrusage(who)
    return {"cpu_s": r.ru_utime + r.ru_stime, "peak_rss_mb": r.ru_maxrss / 1024.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.csv")
        start = time.perf_counter()
        for _ in range(args.calls):
            report = run_monte_carlo(
                PopulationConfig(), replicates=REPS_PER_CELL, base_seed=args.seed
            )
            emit_simulation_report(report, out)
        wall = time.perf_counter() - start
    self_use, children = _usage(resource.RUSAGE_SELF), _usage(resource.RUSAGE_CHILDREN)
    print(
        json.dumps(
            {
                "seed": args.seed,
                "calls": args.calls,
                "wall_s": wall,
                "self_cpu_s": self_use["cpu_s"],
                "self_peak_rss_mb": self_use["peak_rss_mb"],
                "children_cpu_s": children["cpu_s"],
                "largest_child_peak_rss_mb": children["peak_rss_mb"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
