"""Byte-identity sweep: run the same commands on two source trees of the
package and compare every output byte for byte.

Run from the root of a checkout, with the ``src`` directories of the two
trees to compare:

    OPENBLAS_NUM_THREADS=1 python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

The inputs are the ``estimate-clustered`` benchmark files of seeds 1 and 7,
made by this checkout's ``perfbench/workloads.py`` (imported, not changed),
plus three copies of each survey: one without its outcome column, one
with a quoted label cell and CRLF line ends, which ``estimate`` reads a
whole file at a time instead of in byte spans, and one whose only quote is
in its last line, which the whole-file read splits plainly up to the last
block and hands from there to ``csv.reader``.  On each tree the script
runs, each in its own process:

* ``pseudoweight estimate`` with six methods under the ``poisson``,
  ``stratified`` and ``iid`` designs, on both surveys, writing a CSV and a
  JSON report, each with ``--dump-weights``;
* ``pseudoweight simulate --replicates 40 --seed 1``;
* ``pseudoweight simulate --config`` on three one-cell studies of 40
  replicates, ``log`` at 0.05 and ``logit`` at 0.20 with the default survey
  fraction of 0.025, and ``log`` at 0.10 with a survey fraction of 0.05:
  with fewer cells than workers the cell is split, so forked workers run
  its root search from the memo the calling process filled;
* the tree's own ``demos/`` scripts (the directory beside its ``src``),
  keeping their standard output, so a demo that follows an API change is
  compared by what it prints.

Each command's exit code and standard error are kept as outputs too.  The
script prints the line totals of both trees' ``pseudoweight`` package and
their difference, then the number of identical outputs and exits 0, or
lists the outputs that differ, keeps them for inspection and exits 1.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 7)
DESIGNS = ("poisson", "stratified", "iid")


def _drop_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    j = rows[0].index(name)
    return "".join(",".join(row[:j] + row[j + 1 :]) + "\n" for row in rows)


def _quoted(text, row, end):
    """``text`` with the last cell of its ``row``-th line quoted and every
    line ended by ``end``."""
    lines = text.splitlines()
    head, last = lines[row].rsplit(",", 1)
    lines[row] = f'{head},"{last}"'
    return "".join(line + end for line in lines)


#: run name -> ``(scenario, f_c, f_p)`` of each one-cell study
ONE_CELL_STUDIES = {
    "simulate-log": ("log", 0.05, 0.025),
    "simulate-logit": ("logit", 0.20, 0.025),
    "simulate-log-fp05": ("log", 0.10, 0.05),
}


def make_inputs(directory):
    """Write the input files, among them one ``simulate`` configuration per
    one-cell study; returns ``(name, cohort, survey)`` triples."""
    for run, (scenario, f_c, f_p) in ONE_CELL_STUDIES.items():
        config = {
            "scenarios": [scenario], "f_c_grid": [f_c], "f_p": f_p, "replicates": 40, "base_seed": 1
        }
        (directory / f"{run}.json").write_text(json.dumps(config))
    spec = workloads.ESTIMATE_SPECS["estimate-clustered"]
    pairs = []
    for seed in SEEDS:
        inputs = workloads.make_estimate_inputs(spec, seed)
        cohort = directory / f"cohort-s{seed}.csv"
        cohort.write_text(workloads.cohort_csv(inputs), encoding="utf-8")
        survey_text = workloads.survey_csv(inputs)
        variants = (
            ("y", survey_text),
            ("noy", _drop_column(survey_text, "y")),
            ("quoted", _quoted(survey_text, 1, "\r\n")),
            ("lastquote", _quoted(survey_text, -1, "\n")),
        )
        for variant, text in variants:
            survey = directory / f"survey-s{seed}-{variant}.csv"
            survey.write_text(text, encoding="utf-8", newline="")
            pairs.append((f"s{seed}-{variant}", str(cohort), str(survey)))
    return pairs


def commands(pairs, directory):
    """``(output name, argv)`` of every command run on each tree, the
    configurations read from ``directory``; output paths are relative to
    the tree's output directory."""
    cli = [sys.executable, "-m", "pseudoweight.cli"]
    out = []
    for name, cohort, survey in pairs:
        for design in DESIGNS:
            for fmt in ("csv", "json"):
                run = f"{name}-{design}-{fmt}"
                out.append((run, cli + [
                    "estimate",
                    "--cohort", cohort,
                    "--survey", survey,
                    "--outcome", workloads.OUTCOME,
                    "--covariates", ",".join(workloads.COVARIATES),
                    "--weight", workloads.WEIGHT,
                    "--strata", workloads.STRATUM,
                    "--psu", workloads.PSU,
                    "--design", design,
                    "--methods", ",".join(workloads.ESTIMATE_METHODS),
                    "--out", f"{run}.{fmt}",
                    "--dump-weights", f"{run}-weights.csv",
                ]))
    out.append(("simulate", cli + [
        "simulate", "--replicates", "40", "--seed", "1", "--out", "simulate.csv",
    ]))
    for run in ONE_CELL_STUDIES:
        config = str(directory / f"{run}.json")
        out.append((run, cli + ["simulate", "--config", config, "--out", f"{run}.csv"]))
    return out


def package_lines(src):
    """Lines in the ``.py`` files of the tree's ``pseudoweight`` package."""
    files = (Path(src) / "pseudoweight").rglob("*.py")
    return sum(len(f.read_bytes().splitlines()) for f in files)


def run_tree(src, runs, directory):
    """Run every command, then the tree's own demos, with ``src`` first on
    the import path, keeping each one's standard output, standard error and
    exit code."""
    directory.mkdir()
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    demos = sorted((src.parent / "demos").glob("*.py"))
    for name, argv in runs + [(demo.stem, [sys.executable, str(demo)]) for demo in demos]:
        proc = subprocess.run(argv, cwd=directory, env=env, capture_output=True)
        (directory / f"{name}.stdout").write_bytes(proc.stdout)
        (directory / f"{name}.status").write_bytes(
            f"exit {proc.returncode}\n".encode() + proc.stderr
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    inputs = work / "inputs"
    inputs.mkdir()
    runs = commands(make_inputs(inputs), inputs)
    parent, change = work / "parent", work / "change"
    run_tree(args.parent_src, runs, parent)
    run_tree(args.change_src, runs, change)
    lines = package_lines(args.parent_src), package_lines(args.change_src)
    print(f"pseudoweight lines: parent {lines[0]}, change {lines[1]} ({lines[1] - lines[0]:+d})")

    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    differ = [
        name
        for name in names
        if not ((parent / name).is_file() and (change / name).is_file()
                and filecmp.cmp(parent / name, change / name, shallow=False))
    ]
    if differ:
        print(f"{len(differ)} of {len(names)} outputs differ (kept in {work}):")
        for name in differ:
            print(f"  {name}")
        return 1
    print(f"all {len(names)} outputs identical")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
