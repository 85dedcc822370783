"""Span tracing around calls into demapsim's public functions.

``Tracer.installed()`` replaces every module binding of each traced
function with one timing wrapper and restores the originals on exit,
so the program itself is not edited.  Each call records a span (name,
start, end, parent, run id); spans stay in memory until the benchmark
writes them out.  A span's self time is its duration minus the part of
it covered by its child spans (the union, since children on two worker
threads may overlap).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    thread: int
    counts: dict = field(default_factory=dict)


def _size0(args, _result):
    return int(np.size(args[0]))


def _csv_counts(args, _result):
    return {"rows": len(args[2]), "bytes": os.path.getsize(args[0])}


def _exact_key(args):
    r = np.ascontiguousarray(args[0], dtype=float)
    return (hashlib.blake2b(r.tobytes(), digest_size=16).digest(), int(args[1]), float(args[3].sigma))


# (module, attribute, span name, counts(args, result), repeat key(args))
# counts returns an int (recorded as "samples") or a dict of named counts.
TRACED = (
    ("reference", "exact_llr", "reference.exact_llr", _size0, _exact_key),
    ("reference", "maxlog_llr", "reference.maxlog_llr", _size0, None),
    ("analog", "demap_static", "analog.demap_static", _size0, None),
    ("analog", "cell_output_v", "analog.cell_output_v", None, None),
    ("analog", "build_demapper", "analog.build_demapper", None, None),
    ("metrics", "mi_summands", "metrics.mi_summands", _size0, None),
    ("metrics", "evaluate_demappers", "metrics.evaluate_demappers", None, None),
    ("channel", "transmit", "channel.transmit", _size0, None),
    ("channel", "worker_rng", "channel.worker_rng", None, None),
    ("dynamics", "sampled_outputs", "dynamics.sampled_outputs", lambda a, r: {"symbols": int(np.size(a[0]))}, None),
    ("dynamics", "ber_vs_rate", "dynamics.ber_vs_rate", None, None),
    ("dynamics", "simulate_transient", "dynamics.simulate_transient", None, None),
    ("calibration", "fit_output_map", "calibration.fit_output_map", None, None),
    ("harness", "Workbench.calibrate", "harness.calibrate", None, None),
    ("harness", "run_llr_curves", "harness.run_llr_curves", None, None),
    ("harness", "write_csv", "harness.write_csv", _csv_counts, None),
    ("harness", "write_metadata", "harness.write_metadata", None, None),
)


class Tracer:
    """Collects spans from the wrapped functions, on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.step = 0
        self.repeats: dict[int, int] = {}  # run id -> repeated samples
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._seen: dict[tuple[int, int], set] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread's outermost span belongs to the main-thread call
        # that started the pool (the main thread waits inside it).
        main = self._main_stack
        return main[-1] if main else None

    def start_step(self, step: int) -> None:
        """Start counting repeats afresh for the next experiment of a pass.

        One CLI call runs one experiment, so inputs that an earlier step
        of the same pass evaluated do not count as repeated work.
        """
        self.step = step

    def _note_repeat(self, repeat_key, args, parent: int | None) -> None:
        """Count samples whose inputs this experiment run has already seen.

        The key (a hash of the input array) is computed inside a
        ``trace.repeat_key`` span of its own, so that no traced span's
        self time includes the tracer's hashing.
        """
        start = time.perf_counter()
        key = repeat_key(args)
        with self._lock:
            seen = self._seen.setdefault((self.run_id, self.step), set())
            if key in seen:
                self.repeats[self.run_id] = self.repeats.get(self.run_id, 0) + int(np.size(args[0]))
            else:
                seen.add(key)
        span = Span(next(self._ids), "trace.repeat_key", start, time.perf_counter(), parent, self.run_id,
                    threading.get_ident())
        self.spans.append(span)

    def wrap(self, name, fn, counts=None, repeat_key=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if repeat_key is not None:
                tracer._note_repeat(repeat_key, args, parent)
            sid = next(tracer._ids)
            run_id = tracer.run_id
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, run_id, threading.get_ident())
                tracer.spans.append(span)
            if counts is not None:
                c = counts(args, result)
                span.counts = c if isinstance(c, dict) else {"samples": c}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "demapsim" or n.startswith("demapsim.")]
        patched: list[tuple[object, str, object]] = []
        originals: dict[int, object] = {}
        # run_experiment dispatches through a table of (runner, fields)
        runners = getattr(sys.modules["demapsim.harness"], "_RUNNERS", None)
        saved_runners = dict(runners) if isinstance(runners, dict) else {}
        try:
            for mod_name, attr, name, counts, key in TRACED:
                owner = sys.modules[f"demapsim.{mod_name}"]
                if "." in attr:  # a method: patch it on its class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [owner]
                else:
                    targets = modules
                orig = getattr(owner, attr)
                wrapper = self.wrap(name, orig, counts, key)
                originals[id(orig)] = wrapper
                for target in targets:
                    for binding, value in list(vars(target).items()):
                        if value is orig:
                            patched.append((target, binding, orig))
                            setattr(target, binding, wrapper)
            for exp, entry in saved_runners.items():
                if id(entry[0]) in originals:
                    runners[exp] = (originals[id(entry[0])], *entry[1:])
            yield self
        finally:
            for target, binding, orig in reversed(patched):
                setattr(target, binding, orig)
            if saved_runners:
                runners.update(saved_runners)

    def run_spans(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and the summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out
