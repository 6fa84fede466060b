"""Zero-dependency request tracing: spans, traces, bounded retention.

The paper's evaluation agenda (section 5.1) judges replicated middleware
by what happens *inside* a request — "performance in the presence of
failures, performance of degraded modes" — not by aggregate percentiles
alone.  Aggregates cannot explain a single slow request: was it a
freshness wait, a retry backoff while a master was promoted, a breaker
ejection, a stale degraded read?  Per-request span traces (the Dapper
design; see PAPERS.md, and the gray-failure literature that motivates
them) are the standard tool for exactly that analysis, so this module
provides them with the repo's conventions: injected clocks (simulated
time), deterministic ids, no wall-clock reads, no dependencies.

* :class:`Span` — one timed operation: trace id, parent link, start/end
  on the injected clock, tags (key → value) and point-in-time events.
* :class:`Tracer` — creates spans, keeps finished ones grouped by trace
  in a bounded FIFO store (old traces are evicted whole), and exposes
  counters for :meth:`~repro.core.middleware.ReplicationMiddleware.trace_snapshot`.
* :data:`NULL_SPAN` — the no-op span a disabled or sampled-out tracer
  hands out.

The dark-door rule: a trace that is off costs one truth test per
statement door and nothing below it.  The doors are the places a
statement enters a tier — ``ShardedSession._execute_one``,
``MiddlewareSession._execute_one`` and the result cache's hit path —
and each reads :attr:`Tracer.enabled` there, per statement, because a
tracer can be switched after the cluster is built.  With it off, a door
opens no span, so the session's ``active_span`` stays ``None``; every
site below the door tests the span it holds (``if span:``) before it
builds tag arguments, slices SQL text or calls into this module, so a
dark statement makes no call here at all.  A sampled-out statement
holds :data:`NULL_SPAN` instead, which is falsy too: its children stay
dark rather than opening roots of their own.

Span-name conventions (documented in ``docs/OBSERVABILITY.md``):
``request`` (timed-driver root), ``timed.statement`` (simulated service
time for one SQL string), ``mw.statement`` (synchronous middleware
dispatch), ``balancer.choose``, ``replica.execute``, ``certify``,
``propagate`` and ``replica.apply`` (cross-node, linked into the
originating trace so propagation lag is visible in one timeline).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

Clock = Callable[[], float]

EventTuple = Tuple[float, str, Dict[str, Any]]


class _NullSpan:
    """A no-op span: every operation succeeds and does nothing.

    Falsy, so ``parent or fallback`` chains skip it and
    ``if span:`` guards read naturally at instrumentation sites.
    """

    __slots__ = ()

    trace_id = 0
    span_id = 0
    parent_id: Optional[int] = None
    name = ""
    start = 0.0
    end_time: Optional[float] = 0.0
    tags: Dict[str, Any] = {}
    events: List[EventTuple] = []

    def __bool__(self) -> bool:
        return False

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def end(self, end_time: Optional[float] = None) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: The shared no-op span (singleton; all instances are interchangeable).
NULL_SPAN = _NullSpan()


class Span:
    """One timed operation within a trace."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "end_time", "tags", "events")

    def __init__(self, tracer: Optional["Tracer"], trace_id: int,
                 span_id: int, parent_id: Optional[int], name: str,
                 start: float, tags: Optional[Dict[str, Any]] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags or {})
        self.events: List[EventTuple] = []

    # -- recording ----------------------------------------------------------

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time annotation (retry, backoff, breaker rejection,
        degraded read...).  An attr named ``duration`` (seconds) marks a
        *timed* event: latency-breakdown aggregation charges it as its
        own stage (see :mod:`repro.metrics.breakdown`)."""
        time = self.tracer.now() if self.tracer is not None else self.start
        self.events.append((max(time, self.start), name, attrs))

    def end(self, end_time: Optional[float] = None) -> None:
        """Finish the span (idempotent).  End never precedes start, even
        if the injected clock misbehaves."""
        if self.end_time is not None:
            return
        if end_time is None:
            end_time = self.tracer.now() if self.tracer is not None \
                else self.start
        self.end_time = max(float(end_time), self.start)
        if self.tracer is not None:
            self.tracer._finish(self)

    # -- views --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start

    def is_root(self) -> bool:
        return self.parent_id is None

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end_time,
            "tags": dict(self.tags),
            "events": [[time, name, dict(attrs)]
                       for time, name, attrs in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a detached span (no tracer) from :meth:`to_dict`."""
        span = cls(None, payload["trace"], payload["span"],
                   payload.get("parent"), payload["name"],
                   payload["start"], payload.get("tags"))
        span.end_time = payload.get("end")
        span.events = [(time, name, dict(attrs))
                       for time, name, attrs in payload.get("events", [])]
        return span

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.set_tag("error", exc_type.__name__)
        self.end()

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id}, {state})")


class Tracer:
    """Creates spans and retains finished ones, grouped by trace.

    * ``clock`` is injected (the repo convention): simulations pass the
      simulated clock, unit tests a manual one; the default never moves.
      :meth:`now` additionally clamps to be monotonically non-decreasing,
      so a misbehaving source can never produce a span that ends before
      it starts or events that run backwards.
    * Retention is bounded *by trace*: the store keeps the most recent
      ``max_traces`` traces (FIFO by trace start) and evicts old ones
      whole; spans finishing into an evicted trace are counted in
      ``stats["spans_dropped"]`` and discarded.
    * Ids are deterministic counters — two seeded runs produce identical
      traces, which is what lets benchmarks assert on them.
    * ``sample_interval`` batches per-request bookkeeping: only every
      Nth *root* span is recorded (the rest return :data:`NULL_SPAN`,
      counted in ``stats["spans_sampled_out"]``), and every child of a
      sampled-out root is free too.  ``1`` (the default) records
      everything; million-session drivers raise it so tracing overhead
      stays flat while a deterministic 1-in-N slice of full request
      timelines is still retained.
    """

    def __init__(self, clock: Optional[Clock] = None, enabled: bool = True,
                 max_traces: int = 512, sample_interval: int = 1):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.clock: Clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.max_traces = max_traces
        self.sample_interval = sample_interval
        self._roots_seen = 0
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._last_time = float("-inf")
        self._traces: "OrderedDict[int, List[Span]]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "spans_started": 0, "spans_finished": 0, "spans_dropped": 0,
            "traces_started": 0, "traces_evicted": 0,
            "spans_sampled_out": 0,
        }

    # -- clock --------------------------------------------------------------

    def now(self) -> float:
        time = float(self.clock())
        if time < self._last_time:
            return self._last_time
        self._last_time = time
        return time

    # -- span creation ------------------------------------------------------

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **tags: Any) -> Span:
        """Start a span.  With a (real) ``parent`` the span joins its
        trace; without one it becomes the root of a new trace."""
        if not self.enabled:
            return NULL_SPAN
        if parent is not None and parent:
            trace_id: int = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            if parent is not None:
                # caller is *inside* a sampled-out trace (its context is
                # the null span): stay dark instead of opening a fresh
                # root mid-request
                return NULL_SPAN
            self._roots_seen += 1
            interval = self.sample_interval
            if interval > 1 and (self._roots_seen - 1) % interval:
                self.stats["spans_sampled_out"] += 1
                return NULL_SPAN
            trace_id = next(self._trace_ids)
            parent_id = None
            self._open_trace(trace_id)
        return self._make(name, trace_id, parent_id, tags)

    def child_span(self, name: str, parent: Optional[Span],
                   **tags: Any) -> Span:
        """A span only if there is a live parent — child-only
        instrumentation sites (balancer, replica execution...) never
        create root-level noise when called outside a request."""
        if not self.enabled or parent is None or not parent:
            return NULL_SPAN
        return self.start_span(name, parent=parent, **tags)

    def start_linked(self, name: str, trace_id: int,
                     parent_id: Optional[int], **tags: Any) -> Span:
        """A span attached to an existing trace by reference — used for
        cross-node work (asynchronous writeset apply) whose parent span
        has long since finished."""
        if not self.enabled:
            return NULL_SPAN
        return self._make(name, trace_id, parent_id, tags)

    def _make(self, name: str, trace_id: int, parent_id: Optional[int],
              tags: Dict[str, Any]) -> Span:
        span = Span(self, trace_id, next(self._span_ids), parent_id, name,
                    self.now(), tags)
        self.stats["spans_started"] += 1
        return span

    # -- retention ----------------------------------------------------------

    def _open_trace(self, trace_id: int) -> None:
        self._traces[trace_id] = []
        self.stats["traces_started"] += 1
        while len(self._traces) > self.max_traces:
            _evicted_id, spans = self._traces.popitem(last=False)
            self.stats["traces_evicted"] += 1
            self.stats["spans_dropped"] += len(spans)

    def _finish(self, span: Span) -> None:
        self.stats["spans_finished"] += 1
        bucket = self._traces.get(span.trace_id)
        if bucket is None:
            # the trace was evicted (or never opened here) — drop late
            # arrivals instead of resurrecting unbounded state
            self.stats["spans_dropped"] += 1
            return
        bucket.append(span)

    # -- views --------------------------------------------------------------

    def trace(self, trace_id: int) -> List[Span]:
        """Finished spans of one retained trace (empty if evicted)."""
        return list(self._traces.get(trace_id, ()))

    def traces(self) -> List[List[Span]]:
        """All retained traces, oldest first, skipping empty ones."""
        return [list(spans) for spans in self._traces.values() if spans]

    def finished_spans(self) -> List[Span]:
        """Every retained finished span, in trace order."""
        spans: List[Span] = []
        for bucket in self._traces.values():
            spans.extend(bucket)
        return spans

    def roots(self) -> List[Span]:
        return [s for s in self.finished_spans() if s.is_root()]

    def snapshot(self) -> Dict[str, int]:
        """Counters + current retention occupancy."""
        snapshot = dict(self.stats)
        snapshot["retained_traces"] = len(self._traces)
        snapshot["retained_spans"] = sum(
            len(b) for b in self._traces.values())
        return snapshot

    def clear(self) -> None:
        """Drop retained traces (counters survive; ids keep counting)."""
        self._traces.clear()
