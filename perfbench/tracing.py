"""Span recording around optomo's public functions, installed from outside.

`Tracer.install` wraps each function listed in TARGETS and rebinds the
wrapper in every ``optomo.*`` module namespace that holds the original, so
calls made through names imported with ``from .x import f`` are seen too.
Spans (id, name, start, end, parent, task, attrs) stay in memory; only calls
made while a task is active are recorded, so the benchmark's own oracle
calls into the package do not count.  `summarize` turns spans into the
per-layer metrics: a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_ID, _NAME, _START, _END, _PARENT, _TASK, _ATTRS = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    return lambda a, k, r: {"points": int(np.size(_arg(a, k, index, name)))}


def _file_bytes(index, name):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, index, name))}


def _shots(a, k, r):
    return {"shots": sum(int(count) for _, count in _arg(a, k, 1, "phase_schedule"))}


def _amplitude_terms(a, k, r):
    return {"terms": np.size(_arg(a, k, 1, "y")) * np.size(_arg(a, k, 3, "xs"))}


def _amplitude_uniform_terms(a, k, r):
    return {"terms": np.size(_arg(a, k, 1, "y")) * int(_arg(a, k, 5, "n"))}


def _hermite_terms(a, k, r):
    return {"terms": (int(_arg(a, k, 0, "nmax")) + 1) * np.size(_arg(a, k, 1, "y"))}


# (defining module, function, span name, attrs(args, kwargs, result))
TARGETS = [
    ("optomo.states", "eval_position_wavefunction", "states.wavefunction", _points(1, "y")),
    ("optomo.states", "eval_momentum_wavefunction", "states.wavefunction", _points(1, "p")),
    ("optomo.kernels", "amplitude_rows", "kernels.amplitude", _amplitude_terms),
    ("optomo.kernels", "amplitude_rows_uniform", "kernels.amplitude", _amplitude_uniform_terms),
    ("optomo.kernels", "hermite_functions", "kernels.hermite", _hermite_terms),
    ("optomo.quadrature", "adaptive", "quadrature.adaptive", None),
    ("optomo.tomography", "tomogram_grid", "tomography.grid", None),
    ("optomo.tomography", "optical_tomogram", "tomography.row", _points(2, "xs")),
    ("optomo.tomography", "tomogram_characteristic", "tomography.characteristic", None),
    ("optomo.tomography", "save_tomogram_csv", "tomography.csv.write", _file_bytes(1, "path")),
    ("optomo.tomography", "load_tomogram_csv", "tomography.csv.read", _file_bytes(0, "path")),
    ("optomo.moments", "row_mean", "moments", None),
    ("optomo.moments", "row_variance", "moments", None),
    ("optomo.moments", "tomographic_mean", "moments", None),
    ("optomo.moments", "tomographic_variance", "moments", None),
    ("optomo.moments", "tomographic_moments", "moments", None),
    ("optomo.moments", "moments_from_state", "moments", None),
    ("optomo.inequalities", "heisenberg_lhs", "inequalities", None),
    ("optomo.inequalities", "trifonov_lhs", "inequalities", None),
    ("optomo.inequalities", "trifonov_sweep", "inequalities", None),
    ("optomo.inequalities", "operator_trifonov_lhs", "inequalities", None),
    ("optomo.purity", "purity_overlap", "purity.overlap", None),
    ("optomo.homodyne", "sample", "homodyne.sample", _shots),
    ("optomo.homodyne", "estimate_moments", "homodyne.estimate", None),
    ("optomo.homodyne", "empirical_trifonov", "homodyne.empirical_trifonov", None),
    ("optomo.homodyne", "save_dataset_csv", "homodyne.csv.write", _file_bytes(1, "path")),
    ("optomo.homodyne", "load_dataset_csv", "homodyne.csv.read", _file_bytes(0, "path")),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self.truncation_warnings = 0
        self._stack = []
        self._patched = []

    def _open(self, name):
        span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.task, None]
        self.spans.append(span)
        self._stack.append(span[_ID])
        span[_START] = time.perf_counter()
        return span

    def _close(self, span, attrs):
        span[_END] = time.perf_counter()
        self._stack.pop()
        span[_ATTRS] = attrs

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, {"failed": 1})
                raise
            self._close(span, None)
            if attrs_of is not None:
                span[_ATTRS] = attrs_of(args, kwargs, result)
            return result

        return traced

    def _wrap_adaptive(self, name, fn):
        """Counts integrand calls and nodes by wrapping the integrand."""

        @functools.wraps(fn)
        def traced(f, a, b, **kwargs):
            if self.task is None:
                return fn(f, a, b, **kwargs)
            sizes = []

            def counted(y, w):
                sizes.append(int(np.size(y)))
                return f(y, w)

            span = self._open(name)
            attrs = {"evals": 0, "nodes": 0, "useful_nodes": 0, "failed": 1}
            try:
                result = fn(counted, a, b, **kwargs)
                attrs.update(useful_nodes=sizes[-1], failed=0)
                return result
            finally:
                attrs.update(evals=len(sizes), nodes=sum(sizes))
                self._close(span, attrs)

        return traced

    def install(self):
        import optomo  # noqa: F401  (loads every submodule the targets name)

        modules = [m for n, m in sys.modules.items() if n == "optomo" or n.startswith("optomo.")]
        for module_name, attr, name, attrs_of in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if name == "quadrature.adaptive":
                wrapped = self._wrap_adaptive(name, original)
            else:
                wrapped = self._wrap(name, original, attrs_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextmanager
    def task_scope(self, task):
        """Record spans for one task; count TruncationWarnings it raises."""
        self.task = task
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.task = None
        for w in caught:
            if w.category.__name__ == "TruncationWarning":
                self.truncation_warnings += 1
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    def records(self):
        """Spans as JSON-able dicts."""
        return [
            {
                "id": s[_ID],
                "name": s[_NAME],
                "start": s[_START],
                "end": s[_END],
                "parent": s[_PARENT],
                "task": s[_TASK],
                "attrs": s[_ATTRS] or {},
            }
            for s in self.spans
        ]


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def summarize(spans, truncation_warnings=0):
    """Per-layer metrics {name: (value, unit)} from span dicts.

    ``calls`` counts entries into a layer: spans whose parent belongs to
    another layer, so nested calls within one layer count once.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != s["name"]:
            a["calls"] += 1
        a["self_s"] += (s["end"] - s["start"]) - child_time[s["id"]]
        for key, value in s["attrs"].items():
            a[key] += value

    def ancestor_named(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    quad_parents = {s["parent"] for s in spans if s["name"] == "quadrature.adaptive"}
    rows = [s for s in spans if s["name"] == "tomography.row"]
    closed_rows = sum(1 for s in rows if s["id"] not in quad_parents)
    sample_rows = sum(1 for s in rows if ancestor_named(s, "homodyne.sample"))
    overlap_chars = sum(
        1 for s in spans
        if s["name"] == "tomography.characteristic" and ancestor_named(s, "purity.overlap")
    )

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def basic(layer, prefix=None):
        prefix = prefix or layer
        put(f"{prefix}.calls", agg[layer]["calls"], "count")
        put(f"{prefix}.self_s", agg[layer]["self_s"], "s")

    if "states.wavefunction" in agg:
        basic("states.wavefunction")
        put("states.wavefunction.points", agg["states.wavefunction"]["points"], "count")
    if "kernels.amplitude" in agg:
        a = agg["kernels.amplitude"]
        basic("kernels.amplitude")
        put("kernels.amplitude.terms", a["terms"], "count")
        put("kernels.amplitude.terms_per_s", a["terms"] / a["self_s"] if a["self_s"] else 0.0, "1/s")
    if "kernels.hermite" in agg:
        basic("kernels.hermite")
        put("kernels.hermite.terms", agg["kernels.hermite"]["terms"], "count")
    if "quadrature.adaptive" in agg:
        q = agg["quadrature.adaptive"]
        basic("quadrature.adaptive")
        put("quadrature.adaptive.evals", q["evals"], "count")
        put("quadrature.adaptive.nodes", q["nodes"], "count")
        put("quadrature.adaptive.useful_node_ratio", q["useful_nodes"] / q["nodes"] if q["nodes"] else 0.0, "ratio")
        put("quadrature.adaptive.failed", q["failed"], "count")
    if "tomography.grid" in agg:
        basic("tomography.grid")
    if rows:
        basic("tomography.row")
        put("tomography.row.points", agg["tomography.row"]["points"], "count")
        put("tomography.row.closed_ratio", closed_rows / len(rows), "ratio")
    if "tomography.characteristic" in agg:
        basic("tomography.characteristic")
    for layer in ("tomography.csv", "homodyne.csv"):
        w, r = agg.get(f"{layer}.write"), agg.get(f"{layer}.read")
        if w or r:
            put(f"{layer}.write_s", w["self_s"] if w else 0.0, "s")
            put(f"{layer}.read_s", r["self_s"] if r else 0.0, "s")
            put(f"{layer}.bytes", (w["bytes"] if w else 0) + (r["bytes"] if r else 0), "bytes")
    if "moments" in agg:
        basic("moments")
        put("moments.truncation_warnings", truncation_warnings, "count")
    if "inequalities" in agg:
        basic("inequalities")
    if "purity.overlap" in agg:
        p = agg["purity.overlap"]
        basic("purity.overlap")
        put("purity.overlap.char_calls_per_overlap", overlap_chars / p["calls"], "ratio")
    if "homodyne.sample" in agg:
        basic("homodyne.sample")
        put("homodyne.sample.shots", agg["homodyne.sample"]["shots"], "count")
        put("homodyne.sample.rows", sample_rows, "count")
    if "homodyne.estimate" in agg:
        basic("homodyne.estimate")
    return m
