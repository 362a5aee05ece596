"""Command-line entry points: a generic two-file estimation path and the
Monte Carlo study runner.

Both subcommands exit 0 on success and 1 on failure, printing a single
machine-readable JSON error line to stderr on failure.  A malformed
argument is a usage error reported by the argument parser (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PseudoweightError
from .estimators import Method
from .io import (
    EstimationJob,
    _open,
    emit_report,
    emit_simulation_report,
    run_estimation_job,
)
from .samples import DesignKind
from .simulation import (
    DEFAULT_F_C_GRID,
    DEFAULT_METHODS,
    PopulationConfig,
    Scenario,
    ScenarioConfig,
    run_monte_carlo,
)

#: ``tw`` needs the known participation rates, so it runs only under ``simulate``.
_ESTIMATE_METHODS = ",".join(m.value for m in Method if m is not Method.TW)


def _parse_methods(raw: str):
    out = []
    for name in raw.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name == Method.TW.value:
            raise argparse.ArgumentTypeError(
                "method 'tw' needs known participation rates and runs only under simulate"
            )
        try:
            out.append(Method(name))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {_ESTIMATE_METHODS}"
            ) from None
    if not out:
        raise argparse.ArgumentTypeError("no methods given")
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoweight",
        description=(
            "Estimate finite-population means from a nonprobability sample "
            "paired with a probability reference survey."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run estimators on two delimited files")
    est.add_argument("--cohort", required=True, help="cohort CSV (outcome + covariates)")
    est.add_argument("--survey", required=True, help="survey CSV (covariates + weights)")
    est.add_argument("--outcome", required=True, help="outcome column name")
    est.add_argument(
        "--covariates",
        required=True,
        help="comma-separated covariate column names (intercept is added)",
    )
    est.add_argument("--weight", required=True, help="survey design-weight column")
    est.add_argument("--strata", default=None, help="survey stratum label column")
    est.add_argument("--psu", default=None, help="survey PSU label column")
    est.add_argument(
        "--design",
        default="poisson",
        choices=[k.value for k in DesignKind],
        help="survey sampling design for variance estimation",
    )
    est.add_argument(
        "--methods",
        type=_parse_methods,
        default=(Method.ALP,),
        help=f"comma-separated methods from: {_ESTIMATE_METHODS} (default alp)",
    )
    est.add_argument("--out", required=True, help="report path (.csv or .json)")
    est.add_argument(
        "--dump-weights", default=None, help="optional CSV path for the full weight vectors"
    )

    sim = sub.add_parser("simulate", help="run the Monte Carlo study grid")
    sim.add_argument("--config", default=None, help="JSON configuration file")
    sim.add_argument(
        "--out", dest="output", metavar="OUT", help="report CSV path (overrides config)"
    )
    sim.add_argument(
        "--seed",
        dest="base_seed",
        metavar="SEED",
        type=int,
        help="replicate base seed (overrides config)",
    )
    sim.add_argument("--replicates", type=int, help="replicates per cell (overrides config)")
    sim.add_argument("--population-size", type=int, help="population size (overrides config)")
    return parser


def _run_estimate(args) -> int:
    job = EstimationJob(
        cohort_path=args.cohort,
        survey_path=args.survey,
        outcome_column=args.outcome,
        covariate_columns=tuple(c.strip() for c in args.covariates.split(",") if c.strip()),
        weight_column=args.weight,
        design_kind=DesignKind(args.design),
        stratum_column=args.strata,
        psu_column=args.psu,
        methods=args.methods,
        dump_weights_path=args.dump_weights,
    )
    rows = run_estimation_job(job)
    emit_report(rows, args.out)
    return 0


_SIM_DEFAULTS = {
    "population_size": 50_000,
    "population_seed": 2468,
    "scenarios": ["log", "logit"],
    "f_c_grid": list(DEFAULT_F_C_GRID),
    "f_p": 0.025,
    "replicates": 1000,
    "base_seed": 99,
    "methods": [m.value for m in DEFAULT_METHODS],
    "output": "simulation_report.csv",
}


def _load_config(path):
    """The user's configuration document: a JSON object with known keys."""
    with _open(path) as fh:
        try:
            user = json.load(fh)
        except ValueError as exc:
            raise PseudoweightError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise PseudoweightError(
            f"{path} must hold a JSON object, not {type(user).__name__}"
        )
    unknown = set(user) - set(_SIM_DEFAULTS)
    if unknown:
        raise PseudoweightError(
            f"unknown configuration key(s): {', '.join(sorted(unknown))}"
        )
    return user


def _study_arguments(cfg):
    """``run_monte_carlo``'s arguments from the merged configuration; a
    value the study cannot take raises :class:`PseudoweightError`."""
    for key in ("scenarios", "f_c_grid", "methods"):
        if not isinstance(cfg[key], list):
            raise PseudoweightError(
                f"invalid configuration: {key!r} must be a list, "
                f"not {type(cfg[key]).__name__}"
            )
    for key in ("population_size", "population_seed", "replicates", "base_seed"):
        # a whole float such as 1e3 counts; nan % 1 and inf % 1 are nan, so neither does
        if isinstance(v := cfg[key], bool) or not isinstance(v, (int, float)) or v % 1:
            raise PseudoweightError(f"invalid configuration: {key!r} must be an integer, not {v!r}")
    try:
        study = dict(
            population_config=PopulationConfig(
                N=int(cfg["population_size"]), seed=int(cfg["population_seed"])
            ),
            scenarios=tuple(Scenario(s) for s in cfg["scenarios"]),
            f_c_grid=tuple(float(f) for f in cfg["f_c_grid"]),
            methods=tuple(Method(m) for m in cfg["methods"]),
            replicates=int(cfg["replicates"]),
            base_seed=int(cfg["base_seed"]),
            f_p=float(cfg["f_p"]),
        )
        # the rate check every study cell makes, run before the first cell
        for f_c in study["f_c_grid"]:
            ScenarioConfig(Scenario.LOG_LINK, f_c)
    except (TypeError, ValueError) as exc:
        raise PseudoweightError(f"invalid configuration: {exc}") from exc
    return study


def _run_simulate(args) -> int:
    cfg = dict(_SIM_DEFAULTS)
    if args.config:
        cfg.update(_load_config(args.config))
    for key in ("output", "base_seed", "replicates", "population_size"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)

    report = run_monte_carlo(**_study_arguments(cfg))
    emit_simulation_report(report, cfg["output"])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return _run_estimate(args)
        return _run_simulate(args)
    except PseudoweightError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        # a failed fork or pipe: simulate's and estimate's forked workers
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
