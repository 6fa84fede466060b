"""Benchmark-owned spans: one in-memory record per call into a layer.

Nothing under ``src/repro`` is edited.  While :func:`installed` is
active, the public callables listed in :data:`BOUNDARIES` are wrapped so
that each call opens a span (name, start, end, parent, request id — wall
clock ns) on one :class:`Recorder`; the benchmark's own loop opens the
root span (``client.*``) around each request.  A span's **self time** is
its duration minus the part its children cover, kept per span name as
spans close, so the layer figures cover every statement even though
only the first :data:`KEEP` raw spans are kept for the trace file.  The
raw spans are as measured; the self times are divided by the machine's
speed at the last calibration (``driver.SliceTimer`` sets
:attr:`Recorder.speed`), like every other time the benchmark reports.
Span names are ``<package>.<what>``; the package prefix is the layer
(``repro.<package>``) the self time is charged to.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from importlib import import_module
from typing import Dict, Iterator, List, Tuple

KEEP = 60_000       # raw spans kept for the trace file

# (module, attribute path, span name).  Functions imported by name are
# wrapped in the importing module's namespace — that is the binding the
# caller resolves.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.shard.router", "ShardedSession.execute", "shard.execute"),
    ("repro.shard.router", "ShardedSession.execute_one_parsed",
     "shard.execute"),
    ("repro.shard.router", "parse_script", "sqlengine.parse"),
    ("repro.core.middleware", "parse_script", "sqlengine.parse"),
    ("repro.shard.router", "analyze", "core.analyze"),
    ("repro.core.middleware", "analyze_cached", "core.analyze"),
    ("repro.shard.router", "plan_scatter", "shard.plan_scatter"),
    ("repro.shard.merge", "ScatterPlan.merge", "shard.merge"),
    ("repro.shard.twopc", "TwoPCCoordinator.commit", "shard.twopc"),
    ("repro.core.middleware", "MiddlewareSession.execute_one_parsed",
     "core.statement"),
    ("repro.core.loadbalancer", "LoadBalancer.choose", "core.balance"),
    ("repro.core.groupcommit", "GroupCommitCoordinator.submit",
     "core.commit"),
    ("repro.core.groupcommit", "GroupCommitCoordinator.commit_prepared",
     "core.commit"),
    ("repro.core.certifier", "Certifier.certify", "core.certify"),
    ("repro.core.recoverylog", "RecoveryLog.append", "core.recovery_log"),
    ("repro.core.middleware", "apply_writeset", "core.apply"),
    ("repro.core.admission", "AdmissionGate.try_admit", "core.admit"),
    ("repro.sqlengine.engine", "Connection.execute_statement",
     "sqlengine.execute"),
    ("repro.sqlengine.engine", "Connection.commit", "sqlengine.commit"),
    ("repro.sqlengine.engine", "Engine.vacuum", "sqlengine.vacuum"),
    ("repro.ha.shipper", "StateShipper.ship_prepare", "ha.ship_prepare"),
    ("repro.ha.shipper", "StateShipper.ship_ack", "ha.ship_ack"),
    ("repro.cache.resultcache", "ResultCache.peek", "cache.peek"),
    ("repro.cache.resultcache", "ResultCache.put", "cache.put"),
    ("repro.cache.invalidation", "WritesetInvalidator.on_certified",
     "cache.invalidate"),
)

LAYERS = ("client", "shard", "core", "sqlengine", "ha", "cache")


class Recorder:
    """Open-span stack plus per-name totals."""

    def __init__(self) -> None:
        self.enabled = False    # true while the boundaries are wrapped
        self.speed = 1.0        # the machine's, set by the client's timer
        self._stack: List[list] = []    # [index, name, start, child_ns]
        self._next = 0
        self.rows: List[tuple] = []     # finished raw spans, first KEEP
        self.dropped = 0
        self.total_ns: Dict[str, int] = {}
        # ns per call, at reference speed
        self.self_samples: Dict[str, List[float]] = {}

    def begin(self, name: str) -> list:
        frame = [self._next, name, 0, 0]
        self._next += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        index, name, start, child_ns = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_index, request = parent[0], stack[0][0]
        else:
            parent_index, request = None, index
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        samples = self.self_samples.get(name)
        if samples is None:
            samples = self.self_samples[name] = []
        samples.append((duration - child_ns) / self.speed)
        if len(self.rows) < KEEP:
            self.rows.append((index, parent_index, request, name,
                              start, end))
        else:
            self.dropped += 1

    def typical_self_ns(self, name: str) -> float:
        """Median self time of one ``name`` span times how many there
        were: what the span costs without the collector pauses and
        stalls that happened to land inside it."""
        samples = self.self_samples[name]
        return statistics.median(samples) * len(samples)

    def layer_self_ns(self) -> Dict[str, float]:
        """Typical self time summed by layer (the span name's package
        prefix)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.self_samples:
            out[name.split(".", 1)[0]] += self.typical_self_ns(name)
        return out

    def write(self, path) -> None:
        """One JSON object per kept span, then one summary line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, parent, request, name, start, end in self.rows:
                handle.write(json.dumps({
                    "span": index, "parent": parent, "request": request,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
            handle.write(json.dumps({
                "summary": {
                    name: {"calls": len(samples),
                           "total_ns": self.total_ns[name],
                           "self_ns": sum(samples),
                           "self_p50_ns": statistics.median(samples)}
                    for name, samples in sorted(
                        self.self_samples.items())},
                "spans_kept": len(self.rows),
                "spans_dropped": self.dropped,
            }) + "\n")


def _wrap(recorder: Recorder, name: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        frame = recorder.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.end(frame)
    return traced


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every boundary for the duration of the block (process-wide:
    the traced run is its own process, or its own ``with`` in a test)."""
    undo = []
    try:
        for module_name, path, name in BOUNDARIES:
            owner = import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            undo.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, name, original))
        recorder.enabled = True
        yield recorder
    finally:
        recorder.enabled = False
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
