"""Per-layer spans recorded from outside the program.

The tracer replaces a library function at every module attribute that
holds it (the defining module, the modules that imported it by name and
the package namespace), so a call is traced wherever it is looked up,
and it does so before any pool forks: forked workers inherit the wrappers
and the open span stack, so a span in a worker names its parent in the
process that forked it.  A worker appends its spans to a file in the
trace directory each time its outermost span closes; the process that
installed the tracer reads them back at the end.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Children in several worker processes
overlap in time, so the covered part is the length of the union of the
children's intervals, not their sum.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# metric names that are not <module>.<function>.<stat> of one wrapped function
TARGET_BITS = "repsearch.target_bits"
TABLE_LAYERS = ("repsearch.min_count_table", "repsearch.exceptional_set", "repsearch.g_invariant")
RUN_METRICS = ("trace.overhead_s", "trace.heap_peak_mb")


def layers_for(metric_names) -> list[str]:
    """The functions ("module.function") the per-layer metrics need wrapped."""
    layers = []
    for name in metric_names:
        if name in RUN_METRICS:
            continue
        wanted = TABLE_LAYERS if name == TARGET_BITS else (name.rsplit(".", 1)[0],)
        layers += [layer for layer in wanted if layer not in layers]
    return layers


class Tracer:
    """Spans and counts of the wrapped layers in this process and in the
    workers it forks; one per process.  With record false it keeps neither,
    and the workers report only their tracemalloc peaks."""

    def __init__(self, trace_dir: Path, record: bool = True):
        self.trace_dir = Path(trace_dir)
        self.record = record
        self.spans: list[tuple] = []  # (span id, parent id or 0, layer, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.pid = os.getpid()
        self.seq = 0
        self.in_worker = False
        self.inherited_depth = 0
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.in_worker = True
        self.pid = os.getpid()
        self.seq = 0
        self.spans = []
        self.counts = defaultdict(float)
        self.inherited_depth = len(self.stack)

    def install(self, layers) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "normsums" or name.startswith("normsums.")]
        for layer in layers:
            mod_name, fn_name = layer.split(".")
            fn = getattr(sys.modules.get(f"normsums.{mod_name}"), fn_name, None)
            if fn is None:
                self.absent.append(layer)
                continue
            self.originals[layer] = fn
            wrapper = self._wrap(layer, fn, self._counter(layer, fn) if self.record else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _class_ks(self, f) -> dict[int, int]:
        class_reps = self.originals.get("classdata.class_reps") or sys.modules["normsums.classdata"].class_reps
        return {rep.class_index: rep.k for rep in class_reps(f)}

    def _counter(self, layer: str, fn):
        """What a call of this layer adds to the counts, from its arguments
        and result; None for layers with only calls and self time."""
        if layer == "repsearch.enumerate_norm_values":
            return lambda args, result: self._add(layer + ".values", len(result.values))
        if layer == "repsearch.find_certificate":
            return lambda args, result: self._add(layer + ".found", result is not None)
        if layer == "verify.recheck_certificate":
            return lambda args, result: self._add(layer + ".failures", bool(result))
        if layer in TABLE_LAYERS:
            sig = inspect.signature(fn)

            def table_bits(args, result):
                bound = sig.bind(*args[0], **args[1]).arguments
                ks = self._class_ks(bound["f"])
                k = ks[bound["class_index"]] if "class_index" in bound else sum(ks.values())
                self._add(TARGET_BITS, bound["r_max"] * k)

            return table_bits
        return None

    def _add(self, key: str, n) -> None:
        self.counts[key] += n

    def _wrap(self, layer: str, fn, counter):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            tracer.seq += 1
            sid = (tracer.pid << 32) | tracer.seq
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if tracer.record:
                    tracer.spans.append((sid, parent, layer, t0, t1))
                if ok and counter is not None:
                    counter((args, kwargs), result)
                if tracer.in_worker and len(stack) == tracer.inherited_depth:
                    tracer.flush()
            return result

        return traced

    def flush(self) -> None:
        """Append this worker's spans and counts to its file, then forget them."""
        doc = {"spans": self.spans, "counts": self.counts, "heap_peak": heap_peak()}
        with open(self.trace_dir / f"{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    def collect(self) -> tuple[list, dict, int]:
        """Spans, counts and heap peak of this process and every worker."""
        spans = list(self.spans)
        counts = defaultdict(float, self.counts)
        peak = heap_peak()
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    doc = json.loads(line)
                    spans += [tuple(s) for s in doc["spans"]]
                    for key, n in doc["counts"].items():
                        counts[key] += n
                    peak = max(peak, doc["heap_peak"])
        return spans, counts, peak


def heap_peak() -> int:
    return tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0


def self_times(spans) -> dict[str, list]:
    """layer -> [calls, self seconds]."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, _, layer, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo, hi = max(c0, end), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[layer][0] += 1
        out[layer][1] += (t1 - t0) - covered
    return out


def layer_metrics(metric_names, spans, counts) -> dict[str, float]:
    """Value of every per-layer metric except the RUN_METRICS."""
    per_layer = self_times(spans)
    values = {}
    for name in metric_names:
        if name in RUN_METRICS:
            continue
        if name == TARGET_BITS:
            values[name] = counts.get(TARGET_BITS, 0)
            continue
        layer, stat = name.rsplit(".", 1)
        calls, self_s = per_layer.get(layer, (0, 0.0))
        if stat == "calls":
            values[name] = calls
        elif stat == "self_s":
            values[name] = self_s
        elif stat == "found_ratio":
            values[name] = counts.get(layer + ".found", 0) / calls if calls else 0.0
        elif stat in ("values", "failures"):
            values[name] = counts.get(name, 0)
        else:
            raise ValueError(f"no rule to measure per-layer metric {name!r}")
    return values
