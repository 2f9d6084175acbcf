"""Span tracing at the package's module boundaries, built from wrappers.

``install`` replaces every binding of the traced public functions in the
``lfdrshrink`` modules (the names each caller module imported, plus the
defining module's own global, which is what ``student_t_quantile`` uses to
reach ``student_t_cdf``) with a wrapper that records one span per call:
name, start, end, parent and element counts. Spans stay in memory and are
written once, when the traced child ends.

No profiler hook is used: under ``sys.setprofile`` the report writer's
string concatenation turns quadratic, so the trace would measure the
tracer.

``layer_metrics`` turns span files back into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

# module -> public functions traced there; names missing from a later
# version of the package are skipped, and their metrics read 0
TARGETS = {
    "cli": (
        "cli_main", "read_matrix", "analyze", "emit_report",
        "write_analysis_plots", "format_simulation_report",
        "write_simulation_plots",
    ),
    "lfdr": ("probit_transform", "fit_mixture", "lfdr_at"),
    "numerics": ("student_t_cdf", "student_t_quantile", "normal_quantile"),
    "posterior": (
        "marginal_quantile_batch", "marginal_quantile", "shrunken_interval",
        "posterior_median", "observed_confidence_levels",
    ),
    "confidence": (
        "summarize", "conditional_posterior", "conditional_quantile",
        "conditional_cdf",
    ),
    "simulation": ("generate_experiment", "analyze_experiment", "run_study"),
}

LAYERS = tuple(TARGETS)

MARGINAL_QUANTILES = ("posterior.marginal_quantile_batch", "posterior.marginal_quantile")


def _lanes(args, kwargs, out):
    if isinstance(out, (np.ndarray, float, np.floating)):
        return int(np.size(out)), 0
    return 1, 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    def count(args, kwargs, out):
        path = _arg(args, kwargs, index, name)
        size = os.path.getsize(path) if isinstance(path, str) and path != "-" else 0
        return 1, size

    return count


def _fit_lanes(args, kwargs, out):
    return int(_arg(args, kwargs, 0, "zv").zs.size), 0


def _useful_batch(args, kwargs, out):
    theta0 = _arg(args, kwargs, 4, "theta0")
    return int(np.size(out)), int(np.count_nonzero(out != theta0))


def _useful_scalar(args, kwargs, out):
    return 1, int(out != _arg(args, kwargs, 0, "mp").theta0)


# span name -> count function returning (elements, extra); extra is bytes
# for file boundaries and useful outputs for the marginal quantiles
_COUNTS = {
    "cli.read_matrix": _file_bytes(0, "path"),
    "cli.emit_report": _file_bytes(1, "destination"),
    "lfdr.fit_mixture": _fit_lanes,
    "posterior.marginal_quantile_batch": _useful_batch,
    "posterior.marginal_quantile": _useful_scalar,
}


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # one entry per span, in call order, so a parent precedes its children
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.n: list[int] = []
        self.x: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        code = self.name_index.get(name)
        if code is None:
            code = self.name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.n.append(0)
        self.x.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name, _lanes)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.start[idx] = start
                tracer.end[idx] = end
            tracer.n[idx], tracer.x[idx] = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "n": self.n,
                    "x": self.x,
                },
                handle,
            )


def install(run_id: str) -> Tracer:
    """Import the package and wrap every binding of the traced functions."""
    tracer = Tracer(run_id)
    wrappers: dict[int, object] = {}
    for layer, funcs in TARGETS.items():
        module = importlib.import_module(f"lfdrshrink.{layer}")
        for func in funcs:
            original = getattr(module, func, None)
            if callable(original):
                wrappers[id(original)] = tracer.wrap(f"{layer}.{func}", original)
    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "lfdrshrink" or key.startswith("lfdrshrink."))
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer


# --- analysis, run in the benchmark process --------------------------------

# (metric, unit); per-layer metrics reported on every workload, 0 where the
# workload does not reach the layer
PER_LAYER = (
    ("cli.read_matrix.s", "s"),
    ("cli.read_matrix.mb_per_s", "MB/s"),
    ("cli.analyze.self_s", "s"),
    ("cli.emit_report.s", "s"),
    ("cli.emit_report.mb_per_s", "MB/s"),
    ("cli.write_analysis_plots.s", "s"),
    ("posterior.marginal_quantile_batch.s", "s"),
    ("numerics.student_t_quantile.s", "s"),
    ("numerics.student_t_quantile.lanes", "count"),
    ("numerics.student_t_cdf.s", "s"),
    ("numerics.t_cdf_evals_per_quantile_lane", "ratio"),
    ("posterior.quantile_useful_ratio", "ratio"),
    ("lfdr.probit_transform.s", "s"),
    ("lfdr.fit_mixture.s", "s"),
    ("lfdr.fit_mixture.calls", "count"),
    ("lfdr.lfdr_at.s", "s"),
    ("simulation.generate_experiment.s", "s"),
    ("simulation.analyze_experiment.self_s", "s"),
    ("simulation.run_study.self_s", "s"),
    ("confidence.summarize.s", "s"),
    ("confidence.conditional_quantile.calls", "count"),
    ("posterior.marginal_quantile.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

# counts that must repeat bit for bit across traced runs of one seed
EXACT = ("numerics.t_cdf_evals_per_quantile_lane", "posterior.quantile_useful_ratio")


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its span file.

    ``trace.overhead_pct`` needs the untraced run and is added by the
    caller.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    name = [names[code] for code in data["name"]]
    parent = data["parent"]
    dur = [e - s for s, e in zip(data["start"], data["end"])]
    n, x = data["n"], data["x"]

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    lanes: dict[str, int] = {}
    extra: dict[str, int] = {}
    child_time = [0.0] * len(name)
    for i in range(len(name) - 1, -1, -1):  # children come after parents
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    under_mq = [False] * len(name)
    cdf_in_quantile = 0
    quantile_under_mq = 0
    for i, nm in enumerate(name):
        p = parent[i]
        total[nm] = total.get(nm, 0.0) + dur[i]
        self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child_time[i]
        calls[nm] = calls.get(nm, 0) + 1
        lanes[nm] = lanes.get(nm, 0) + n[i]
        extra[nm] = extra.get(nm, 0) + x[i]
        under_mq[i] = nm in MARGINAL_QUANTILES or (p >= 0 and under_mq[p])
        if nm == "numerics.student_t_cdf" and p >= 0 and name[p] == "numerics.student_t_quantile":
            cdf_in_quantile += n[i]
        if nm == "numerics.student_t_quantile" and under_mq[i]:
            quantile_under_mq += n[i]

    def ratio(num, den):
        return num / den if den else 0.0

    def mb_per_s(nm):
        return ratio(extra.get(nm, 0) / 1e6, total.get(nm, 0.0))

    out = {
        "cli.read_matrix.s": total.get("cli.read_matrix", 0.0),
        "cli.read_matrix.mb_per_s": mb_per_s("cli.read_matrix"),
        "cli.analyze.self_s": self_s.get("cli.analyze", 0.0),
        "cli.emit_report.s": total.get("cli.emit_report", 0.0),
        "cli.emit_report.mb_per_s": mb_per_s("cli.emit_report"),
        "cli.write_analysis_plots.s": total.get("cli.write_analysis_plots", 0.0),
        "posterior.marginal_quantile_batch.s": total.get("posterior.marginal_quantile_batch", 0.0),
        "numerics.student_t_quantile.s": total.get("numerics.student_t_quantile", 0.0),
        "numerics.student_t_quantile.lanes": float(lanes.get("numerics.student_t_quantile", 0)),
        "numerics.student_t_cdf.s": total.get("numerics.student_t_cdf", 0.0),
        "numerics.t_cdf_evals_per_quantile_lane": ratio(
            cdf_in_quantile, lanes.get("numerics.student_t_quantile", 0)
        ),
        "posterior.quantile_useful_ratio": ratio(
            sum(extra.get(nm, 0) for nm in MARGINAL_QUANTILES), quantile_under_mq
        ),
        "lfdr.probit_transform.s": total.get("lfdr.probit_transform", 0.0),
        "lfdr.fit_mixture.s": total.get("lfdr.fit_mixture", 0.0),
        "lfdr.fit_mixture.calls": float(calls.get("lfdr.fit_mixture", 0)),
        "lfdr.lfdr_at.s": total.get("lfdr.lfdr_at", 0.0),
        "simulation.generate_experiment.s": total.get("simulation.generate_experiment", 0.0),
        "simulation.analyze_experiment.self_s": self_s.get("simulation.analyze_experiment", 0.0),
        "simulation.run_study.self_s": self_s.get("simulation.run_study", 0.0),
        "confidence.summarize.s": total.get("confidence.summarize", 0.0),
        "confidence.conditional_quantile.calls": float(calls.get("confidence.conditional_quantile", 0)),
        "posterior.marginal_quantile.s": total.get("posterior.marginal_quantile", 0.0),
        "trace.spans": float(len(name)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for nm, v in self_s.items() if nm.startswith(layer + ".")
        )
    return out
