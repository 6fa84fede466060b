"""Per-stage latency breakdown derived from span traces.

Section 5.1 of the paper asks evaluations to report "performance in the
presence of failures" and "performance of degraded modes" — which means
explaining *where* a slow request spent its time, not just that it was
slow.  This module turns one trace (the spans of a single request) into
a stage → time map that sums exactly to the root span's duration:

* every span contributes its **self time** — duration minus the
  duration of its direct children minus the total ``duration`` carried
  by its own timed events — under its span name;
* every timed event (an event whose attrs carry ``duration`` seconds,
  e.g. the retry ``backoff`` the resilience layer charged) contributes
  that duration under its event name;
* clock-granularity noise can make children appear to overlap their
  parent, so self time is clamped at zero and the clamped excess is
  discarded — the invariant checked by the tests is
  ``sum(stages.values()) <= root.duration`` with equality whenever no
  clamping occurred.

:class:`BreakdownAggregator` folds many traces into per-stage
:class:`~repro.metrics.perf.LatencyRecorder` histograms (the E25
failover-timeline evidence), and :func:`explain_trace` renders one
trace as an ``EXPLAIN ANALYZE``-style indented report.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.tracing import Span
from .perf import LatencyRecorder


def trace_breakdown(spans: Sequence[Span]) -> Dict[str, float]:
    """Stage → seconds for one trace's finished spans.

    Orphan spans (parent id not in the trace, e.g. linked cross-node
    ``replica.apply`` spans or a parent evicted from retention) are
    treated as roots of their own subtree: they contribute self time
    but are *not* subtracted from anyone, so asynchronous work never
    corrupts the request-side breakdown.
    """
    if len(spans) == 1 and spans[0].finished and not spans[0].events:
        # the overwhelmingly common shape under root-span sampling:
        # one statement span, no children, no timed events
        only = spans[0]
        return {only.name: only.duration} if only.duration > 0.0 else {}
    stages: Dict[str, float] = {}
    by_id = {s.span_id: s for s in spans if s.finished}
    child_time: Dict[int, float] = {}
    for span in by_id.values():
        if span.parent_id in by_id:
            child_time[span.parent_id] = \
                child_time.get(span.parent_id, 0.0) + span.duration
    for span in by_id.values():
        event_time = 0.0
        for _time, name, attrs in span.events:
            duration = attrs.get("duration")
            if duration is None:
                continue
            duration = float(duration)
            stages[name] = stages.get(name, 0.0) + duration
            event_time += duration
        self_time = span.duration - child_time.get(span.span_id, 0.0) \
            - event_time
        if self_time > 0.0:
            stages[span.name] = stages.get(span.name, 0.0) + self_time
    return stages


def trace_root(spans: Sequence[Span]) -> Optional[Span]:
    """The trace's root span (no parent within the trace); earliest
    start wins if several qualify (linked spans are later)."""
    by_id = {s.span_id for s in spans}
    roots = [s for s in spans
             if s.finished and (s.parent_id is None
                                or s.parent_id not in by_id)]
    if not roots:
        return None
    return min(roots, key=lambda s: (s.start, s.span_id))


class BreakdownAggregator:
    """Folds many traces into per-stage latency histograms."""

    def __init__(self) -> None:
        self.stage_recorders: Dict[str, LatencyRecorder] = {}
        self.total = LatencyRecorder("end_to_end")
        self.traces = 0

    def add_trace(self, spans: Sequence[Span]) -> Dict[str, float]:
        """Fold one trace in; returns its stage map."""
        stages = trace_breakdown(spans)
        for name, seconds in stages.items():
            recorder = self.stage_recorders.get(name)
            if recorder is None:
                recorder = LatencyRecorder(name)
                self.stage_recorders[name] = recorder
            recorder.add(seconds)
        root = trace_root(spans)
        if root is not None:
            self.total.add(root.duration)
        self.traces += 1
        return stages

    def stage_totals(self) -> Dict[str, float]:
        """Stage → summed seconds across every folded trace."""
        return {name: sum(rec.samples)
                for name, rec in self.stage_recorders.items()}

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly report: per-stage histograms + coverage.

        ``coverage`` is sum(stage time) / sum(end-to-end time) — the
        fraction of measured request latency the named stages explain
        (E25's acceptance bar is >= 0.95).
        """
        total_e2e = sum(self.total.samples)
        total_staged = sum(self.stage_totals().values())
        return {
            "traces": self.traces,
            "end_to_end": self.total.summary(),
            "stages": {name: rec.summary()
                       for name, rec in
                       sorted(self.stage_recorders.items())},
            "stage_seconds": self.stage_totals(),
            "coverage": (total_staged / total_e2e) if total_e2e else 1.0,
        }


def explain_trace(spans: Sequence[Span]) -> str:
    """Render one trace as an ``EXPLAIN ANALYZE``-style report.

    Spans are indented under their parents with start offsets relative
    to the root, tags inline, and timed events as ``+`` lines — the
    per-request view of where time went.
    """
    finished = [s for s in spans if s.finished]
    if not finished:
        return "(empty trace)"
    root = trace_root(finished)
    assert root is not None
    children: Dict[Optional[int], List[Span]] = {}
    by_id = {s.span_id for s in finished}
    for span in finished:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start, s.span_id))
    lines: List[str] = [f"TRACE {root.trace_id}  "
                        f"(total {root.duration * 1000.0:.3f} ms)"]
    base = root.start

    def fmt_tags(span: Span) -> str:
        if not span.tags:
            return ""
        inner = ", ".join(f"{k}={span.tags[k]}"
                          for k in sorted(span.tags))
        return f"  [{inner}]"

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.name}  {span.duration * 1000.0:.3f} ms"
            f"  @+{(span.start - base) * 1000.0:.3f} ms{fmt_tags(span)}")
        for time, name, attrs in span.events:
            detail = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"{indent}  + {name}"
                         f"  @+{(time - base) * 1000.0:.3f} ms{suffix}")
        for child in children.get(span.span_id, ()):  # direct children
            if child.span_id != span.span_id:
                walk(child, depth + 1)

    top: List[Tuple[float, Span]] = [
        (s.start, s) for s in children.get(None, ())]
    for _start, span in sorted(top, key=lambda p: (p[0], p[1].span_id)):
        walk(span, 1)
    return "\n".join(lines)
