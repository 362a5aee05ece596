"""Span recording around the package's module attributes, and the
per-layer metrics derived from the spans.

The tracer replaces module attributes that the package calls through
(``simulation.fit_for_method``, ``io.ingest_delimited``, ...) with shims
that record a span around each call and hand back the original result, so
the package source stays as it is.  Spans live in memory, each with the id
of the span that was open when it began, and are written out once the
traced calls are done.

A span's self time is its duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _iterations(attrs, args, outcome):
    it = getattr(outcome, "iterations", None)
    if it is not None:
        attrs["iters"] = int(it)


def _cell(attrs, args, outcome):
    attrs["f_c"] = next((a.f_c_target for a in args if hasattr(a, "f_c_target")), None)


def _pooled_bytes(attrs, args, outcome):
    if not isinstance(outcome, Exception):
        attrs["bytes"] = int(outcome.X.nbytes + outcome.R.nbytes + outcome.w.nbytes)


def _psus(attrs, args, outcome):
    design = getattr(args[0], "design", None) if args else None
    if design is None or design.psu is None:
        attrs["psus"] = 0
    elif design.stratum is None:
        attrs["psus"] = len(set(design.psu.tolist()))
    else:
        attrs["psus"] = len(set(zip(design.stratum.tolist(), design.psu.tolist())))


def _ingested(attrs, args, outcome):
    attrs["path"] = str(args[0])
    attrs["bytes"] = os.path.getsize(args[0])
    if not isinstance(outcome, Exception):
        attrs["rows"] = int(outcome.X.shape[0])


#: (module of the package, attribute, span name, annotation).  Each module
#: attribute is the name through which another layer reaches the callee.
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_estimation_job", "io.run_estimation_job", None),
    ("cli", "emit_report", "io.emit_report", None),
    ("io", "emit_simulation_report", "io.emit_simulation_report", None),
    ("io", "ingest_delimited", "io.ingest", _ingested),
    ("io", "validate_paired_samples", "samples.validate", None),
    ("io", "estimate", "estimators.estimate", None),
    ("io", "CohortSample", "samples.container", None),
    ("io", "SurveySample", "samples.container", None),
    ("io", "DesignInfo", "samples.container", None),
    ("simulation", "run_monte_carlo", "simulation.run_monte_carlo", None),
    ("simulation", "generate_population", "simulation.calibrate", None),
    ("simulation", "calibrate_participation_intercept", "simulation.calibrate", None),
    ("simulation", "participation_probabilities", "simulation.calibrate", None),
    ("simulation", "calibrate_survey_const", "simulation.calibrate", None),
    ("simulation", "_run_cell", "simulation.cell", _cell),
    ("simulation", "CohortSample", "samples.container", None),
    ("simulation", "SurveySample", "samples.container", None),
    ("simulation", "DesignInfo", "samples.container", None),
    ("simulation", "fit_for_method", "estimators.fit_for_method", None),
    ("simulation", "estimate_from_fit", "estimators.estimate_from_fit", None),
    ("estimators", "validate_paired_samples", "samples.validate", None),
    ("estimators", "fit_for_method", "estimators.fit_for_method", None),
    ("estimators", "estimate_from_fit", "estimators.estimate_from_fit", None),
    ("estimators", "build_pooled_matrix", "samples.build_pooled_matrix", _pooled_bytes),
    ("estimators", "fit_pooled_logistic", "solvers.fit_pooled_logistic", _iterations),
    ("estimators", "fit_clw_score", "solvers.fit_clw_score", _iterations),
    ("estimators", "tl_variance", "variance.tl_variance", None),
    ("estimators", "fixed_weight_variance", "variance.tl_variance", None),
    ("variance", "design_variance_poisson", "variance.design", _psus),
    ("variance", "design_variance_stratified", "variance.design", _psus),
    ("variance", "design_variance_iid", "variance.design", _psus),
)


class Tracer:
    """Records spans for the calls made through the patched attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _begin(self, name):
        span = Span(len(self.spans), self._open[-1] if self._open else -1, name, 0.0)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        return span

    def _end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def shim(self, name, fn, annotate=None):
        """A callable that runs ``fn`` inside a span called ``name``."""

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._end(span)
                span.attrs["error"] = type(exc).__name__
                if annotate:
                    annotate(span.attrs, args, exc)
                raise
            self._end(span)
            if annotate:
                annotate(span.attrs, args, result)
            return result

        return traced

    def install(self):
        """Patch every attribute in ``PATCHES`` that exists; note the ones
        that do not."""
        for module_name, attr, name, annotate in PATCHES:
            module = importlib.import_module(f"pseudoweight.{module_name}")
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.shim(name, original, annotate))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def self_times(spans):
    """Self time of every span, indexed like ``spans``.

    Children are clipped to their parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, units: int, file_rows: dict, reps_per_cell: int):
    """Per-layer metrics of one traced section.

    ``units`` is the number of replicate-cells (study) or CLI calls
    (estimate) the section finished; ``..._per_rep`` and per-call figures
    divide by it.  Other times are means per call of the callee.
    ``file_rows`` maps each input path to its data rows, so that skipped
    rows can be counted.  Layers a workload never enters read 0.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    cell_fc = {}
    for s in spans:  # parents precede children, so one pass resolves cells
        if s.name == "simulation.cell":
            cell_fc[s.id] = s.attrs.get("f_c")
        elif s.parent in cell_fc:
            cell_fc[s.id] = cell_fc[s.parent]

    def selfs(name, f_c=None):
        return [
            own[s.id] for s in by_name[name] if f_c is None or cell_fc.get(s.id) == f_c
        ]

    def ms_per_unit(*names):
        return 1000.0 * sum(sum(selfs(n)) for n in names) / max(units, 1)

    def mean_ms(*names, f_c=None):
        return 1000.0 * _mean(v for n in names for v in selfs(n, f_c))

    def mean_attr(name, key, f_c=None):
        return _mean(
            s.attrs[key]
            for s in by_name[name]
            if key in s.attrs and (f_c is None or cell_fc.get(s.id) == f_c)
        )

    m = {}
    studies = max(len(by_name["simulation.run_monte_carlo"]), 1)
    m["simulation.calibrate_ms"] = 1000.0 * sum(selfs("simulation.calibrate")) / studies
    m["simulation.draw_ms_per_rep"] = ms_per_unit("simulation.cell")
    for tag, f_c in (("fc005", 0.005), ("fc020", 0.20)):
        cells = [s for s in by_name["simulation.cell"] if s.attrs.get("f_c") == f_c]
        calibrating = sum(
            s.duration for s in by_name["simulation.calibrate"] if cell_fc.get(s.id) == f_c
        )
        reps = len(cells) * reps_per_cell
        busy = sum(s.duration for s in cells) - calibrating
        m[f"simulation.rep_ms.{tag}"] = 1000.0 * busy / reps if reps else 0.0
    m["samples.container_ms_per_rep"] = 1000.0 * sum(
        s.duration for s in by_name["samples.container"]
    ) / max(units, 1)
    m["samples.pooled_build_ms"] = 1000.0 * _mean(
        s.duration for s in by_name["samples.build_pooled_matrix"]
    )
    m["samples.pooled_bytes"] = mean_attr("samples.build_pooled_matrix", "bytes")
    m["samples.validate_ms"] = ms_per_unit("samples.validate")
    for key, name in (("pooled", "solvers.fit_pooled_logistic"), ("clw", "solvers.fit_clw_score")):
        m[f"solvers.{key}_fit_ms"] = mean_ms(name)
        m[f"solvers.{key}_iters"] = mean_attr(name, "iters")
        for tag, f_c in (("fc005", 0.005), ("fc020", 0.20)):
            m[f"solvers.{key}_fit_ms.{tag}"] = mean_ms(name, f_c=f_c)
            m[f"solvers.{key}_iters.{tag}"] = mean_attr(name, "iters", f_c)
    fits = by_name["solvers.fit_pooled_logistic"] + by_name["solvers.fit_clw_score"]
    m["solvers.fit_fail_frac"] = (
        sum("error" in s.attrs for s in fits) / len(fits) if fits else 0.0
    )
    m["estimators.weights_ms"] = mean_ms("estimators.estimate_from_fit")
    m["estimators.calls"] = len(by_name["estimators.estimate_from_fit"]) / max(units, 1)
    m["variance.tl_ms"] = mean_ms("variance.tl_variance")
    m["variance.design_ms"] = mean_ms("variance.design")
    m["variance.design_psus"] = mean_attr("variance.design", "psus")
    ingests = by_name["io.ingest"]
    m["io.ingest_ms"] = ms_per_unit("io.ingest")
    read_s = sum(s.duration for s in ingests)
    read_bytes = sum(s.attrs.get("bytes", 0) for s in ingests)
    m["io.ingest_mb_per_s"] = read_bytes / 1e6 / read_s if read_s > 0 else 0.0
    m["io.skipped_rows"] = sum(
        file_rows[s.attrs["path"]] - s.attrs["rows"]
        for s in ingests
        if "rows" in s.attrs and s.attrs["path"] in file_rows
    ) / max(units, 1)
    m["io.job_self_ms"] = ms_per_unit("io.run_estimation_job")
    m["io.emit_ms"] = mean_ms("io.emit_report", "io.emit_simulation_report")
    m["cli.main_ms"] = ms_per_unit("cli.main")
    return m
