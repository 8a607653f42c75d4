"""Per-layer spans, garbage-collection time and allocation peaks, from outside.

The tracer wraps the module attributes through which each layer of epiflow
is called, so no file under ``src/`` is edited.  Each call becomes a span
with a name, start, end and parent; a layer's self time is its span's
duration minus its child spans and minus the collections that ran while it
was the innermost open span.  Counts are read from return values at the
same boundaries (``Model.point_count``, ``Verdict.stats``).

An attribute that a later version of epiflow removes or renames is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

MARK = "_perfbench_span"

EPISTEMIC = ("ak", "akd", "aak", "akr", "aktd")
TRACE_BASED = ("oni", "nid", "nani", "er", "nitd")

# (module, attribute, span name); the span name's first part is the layer
TARGETS = (
    ("epiflow.cli", "parse", "lang.parse"),
    ("epiflow.cli", "run_check", "policyfile.run_check"),
    ("epiflow.cli", "build_report", "report.render"),
    ("epiflow.cli", "render_text", "report.render"),
    ("epiflow.report", "Report.to_json_text", "report.render"),
    ("epiflow.policyfile", "build_model", "model.build"),
    ("epiflow.policyfile", "model_satisfies", "logic.evaluate"),
    ("epiflow.policyfile", "formula_size", "logic.formula_size"),
    *(("epiflow.policyfile", f"encode_{c}", "policies.encode") for c in EPISTEMIC),
    *(("epiflow.policyfile", f"check_{c}", "semantics.check") for c in TRACE_BASED),
    ("epiflow.logic", "expand", "logic.expand"),
    ("epiflow.logic", "formula_size", "logic.formula_size"),
    ("epiflow.semantics", "build_model", "model.build"),
    ("epiflow.fuzz", "generate_program", "fuzz.generate"),
    ("epiflow.fuzz", "build_model", "model.build"),
    ("epiflow.fuzz", "model_satisfies", "logic.evaluate"),
    *(("epiflow.fuzz", f"encode_{c}", "policies.encode") for c in EPISTEMIC),
    *(("epiflow.fuzz", f"check_{c}", "semantics.check") for c in TRACE_BASED),
)

# the benchmark opens these root spans itself, around each op
ROOT_SPANS = {"check": "cli.main", "fuzz": "fuzz.run_one"}

SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "lang.parse": "lang.parse_s",
    "policyfile.run_check": "policyfile.run_check_self_s",
    "report.render": "report.render_s",
    "model.build": "model.build_s",
    "policies.encode": "policies.encode_s",
    "logic.expand": "logic.expand_s",
    "logic.formula_size": "logic.formula_size_s",
    "logic.evaluate": "logic.evaluate_s",
    "semantics.check": "semantics.check_s",
    "fuzz.run_one": "fuzz.self_s",
    "fuzz.generate": "fuzz.generate_s",
}

LAYERS = ("cli", "lang", "policyfile", "model", "policies", "logic",
          "semantics", "report", "fuzz")

ALLOC_SPANS = {"model.build": "model.build.alloc_peak_mb",
               "logic.expand": "logic.expand.alloc_peak_mb"}

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    "model.builds": "count",
    "model.points": "count",
    "model.executions": "count",
    "model.points_per_s": "1/s",
    "logic.formula_nodes": "count",
    "logic.points_visited": "count",
    "logic.cache_hits": "count",
    "logic.cache_hit_ratio": "ratio",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    **{f"runtime.gc.{layer}_s": "s" for layer in (*LAYERS, "outside")},
    **{metric: "MB" for metric in ALLOC_SPANS.values()},
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.absent_targets": "count",
}


def _resolve(module_name: str, attribute: str):
    """The object holding the attribute and the attribute's last name."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


def wrapped_targets() -> list[str]:
    """Targets that currently hold a benchmark wrapper."""
    found = []
    for module_name, attribute, _ in TARGETS:
        owner, name = _resolve(module_name, attribute)
        if owner is not None and hasattr(getattr(owner, name, None), MARK):
            found.append(f"{module_name}.{attribute}")
    return found


class _Wrapping:
    """Installs wrappers on the targets and takes them off again."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def install(self, spans: set[str] | None = None) -> None:
        for module_name, attribute, span in TARGETS:
            if spans is not None and span not in spans:
                continue
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(original, span)
            setattr(wrapper, MARK, span)
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, original, span: str):
        raise NotImplementedError


class Tracer(_Wrapping):
    """Span recorder with garbage-collection attribution."""

    def __init__(self) -> None:
        super().__init__()
        # one list per span: name, start, end, parent index, gc seconds
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.gc_outside_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        index = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def _wrap(self, original, span: str):
        tracer = self
        count = _COUNTERS.get(span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        self.gc_collections += 1
        spent = now - self._gc_start
        if self.stack:
            self.spans[self.stack[-1]][4] += spent
        else:
            self.gc_outside_s += spent

    def start(self) -> None:
        self.install()
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, counts and garbage-collection shares."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        gc_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, collected), nested in zip(self.spans, child_s):
            self_s[name] += end - start - nested - collected
            gc_s[name.split(".")[0]] += collected
        out = {metric: self_s.get(span, 0.0)
               for span, metric in SELF_TIME_METRICS.items()}
        c = self.counts
        out["model.builds"] = c["builds"]
        out["model.points"] = c["points"]
        out["model.executions"] = c["executions"]
        build_s = out["model.build_s"]
        out["model.points_per_s"] = c["points"] / build_s if build_s else 0.0
        out["logic.formula_nodes"] = c["formula_nodes"]
        out["logic.points_visited"] = c["points_visited"]
        out["logic.cache_hits"] = c["cache_hits"]
        looked_up = c["cache_hits"] + c["points_visited"]
        out["logic.cache_hit_ratio"] = c["cache_hits"] / looked_up if looked_up else 0.0
        out["runtime.gc_s"] = sum(gc_s.values()) + self.gc_outside_s
        out["runtime.gc_collections"] = self.gc_collections
        for layer in LAYERS:
            out[f"runtime.gc.{layer}_s"] = gc_s.get(layer, 0.0)
        out["runtime.gc.outside_s"] = self.gc_outside_s
        out["trace.spans"] = len(self.spans)
        return out


def _count_model(counts: Counter, model) -> None:
    counts["builds"] += 1
    counts["points"] += getattr(model, "point_count", 0)
    counts["executions"] += len(getattr(model, "executions", ()))


def _count_verdict(counts: Counter, verdict) -> None:
    stats = getattr(verdict, "stats", None)
    counts["points_visited"] += getattr(stats, "points_visited", 0)
    counts["cache_hits"] += getattr(stats, "cache_hits", 0)
    counts["formula_nodes"] += getattr(stats, "formula_nodes", 0)


_COUNTERS = {"model.build": _count_model, "logic.evaluate": _count_verdict}


class AllocTracer(_Wrapping):
    """Largest tracemalloc peak inside one model build and one expansion.

    tracemalloc runs only inside the measured calls, which never nest, so
    the peak counts what the call allocates.  It still slows those calls,
    so this runs in a pass of its own and none of its timings are reported.
    """

    def __init__(self) -> None:
        super().__init__()
        self.peak_bytes: dict[str, int] = defaultdict(int)

    def _wrap(self, original, span: str):
        peaks = self.peak_bytes

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks[span] = max(peaks[span], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def start(self) -> None:
        self.install(set(ALLOC_SPANS))

    def stop(self) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        return {metric: self.peak_bytes.get(span, 0) / 2**20
                for span, metric in ALLOC_SPANS.items()}
