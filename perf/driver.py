"""The closed-loop client and the measurement primitives every workload
shares: one thread, one statement at a time, SQL text through the
public ``session.execute(sql, params)``.

A timed run is a sequence of **segments** of a fixed statement count,
each cut into :data:`SLICES` slices.  Between slices the client times a
fixed calibration kernel (:class:`Machine`); a slice's times are divided
by the machine's speed measured at its two ends, so a spell in which the
sandbox runs 1.5x slower moves no gated timing.  Latency is reported as
the median over segments and rates as the mean of the middle half of
the segments, so a stalled segment moves no metric either; counts and
memory are read over the first :data:`WINDOW` segments only — fixed work
under a fixed seed, whatever ``--seconds`` and the machine's speed let
the run complete after that.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

WINDOW = 4              # segments whose counts and memory are reported
SLICES = 8              # slices per segment, a calibration between each
MAX_SEGMENTS = 400      # a stuck clock must not make the run endless
BEGIN, COMMIT = "BEGIN", "COMMIT"


# ---------------------------------------------------------------------------
# the machine's speed
# ---------------------------------------------------------------------------

class _Box:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def bump(self, amount: int) -> int:
        self.total += amount
        return self.total


class Machine:
    """How fast this machine runs right now, as the time a fixed kernel
    takes: interpreter-bound work (calls, attribute and dict updates,
    small allocations) over rows picked at random from a table of small
    objects — what the program under test does, none of its code.

    ``speed()`` is that time over :data:`REFERENCE_NS`, the kernel's time
    on the sandbox the first ledger was recorded on when nothing else ran
    there: 1.0 there, above 1 on a slower machine or in a slow spell.
    Dividing a measured time by it gives the time at reference speed.
    """

    REFERENCE_NS = 215_000
    ROWS = 1000             # ~0.2 MB: warm again after one kernel
    STEPS = 600
    REPEATS = 5             # the fastest counts: a stall only ever adds

    def __init__(self) -> None:
        self._table = [(i, str(i), [i]) for i in range(self.ROWS)]
        self._position = 1

    def _kernel(self) -> int:
        table, size, x = self._table, self.ROWS, self._position
        counts: Dict[int, int] = {}
        box = _Box()
        kept = []
        for step in range(self.STEPS):
            x = (x * 1103515245 + 12345) % 2147483648
            row = table[x % size]
            key = row[0] & 127
            counts[key] = counts.get(key, 0) + box.bump(len(row[1]))
            if not step & 15:
                kept.append((key, row[1], [step]))
        self._position = x      # the next call touches other rows
        return len(kept)

    def kernel_ns(self) -> int:
        """Fastest of :data:`REPEATS` timed kernels.  The collector is
        held off meanwhile, so the kernel's garbage neither triggers nor
        postpones a collection the program would have paid for."""
        clock = time.perf_counter_ns
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            best = 0
            for _ in range(self.REPEATS):
                started = clock()
                self._kernel()
                elapsed = clock() - started
                if not best or elapsed < best:
                    best = elapsed
        finally:
            if was_enabled:
                gc.enable()
        return best

    def speed(self) -> float:
        return self.kernel_ns() / self.REFERENCE_NS


class Stopwatch:
    """Wall time of a stretch of work at reference speed: the stretch is
    cut into laps of at least ``lap_ns`` wherever the work calls
    :meth:`tick`, and each lap is divided by the mean of the machine's
    speed at its two ends.  Calibrating is not part of any lap."""

    def __init__(self, machine: Machine, lap_ns: int = 50_000_000):
        self.machine = machine
        self.lap_ns = lap_ns
        self.raw_ns = 0
        self.normal_ns = 0.0
        self._speed = machine.speed()
        self._started = time.perf_counter_ns()

    def tick(self) -> None:
        if time.perf_counter_ns() - self._started >= self.lap_ns:
            self._close()

    def _close(self) -> None:
        elapsed = time.perf_counter_ns() - self._started
        speed = self.machine.speed()
        self.raw_ns += elapsed
        self.normal_ns += elapsed / ((self._speed + speed) / 2)
        self._speed = speed
        self._started = time.perf_counter_ns()

    def stop(self) -> float:
        """Close the last lap; seconds at reference speed."""
        self._close()
        return self.normal_ns / 1e9


# ---------------------------------------------------------------------------
# what a run observed
# ---------------------------------------------------------------------------

class Slice:
    """One stretch of statements between two calibrations."""

    __slots__ = ("statements", "wall_ns", "cpu_s", "latencies", "speed")

    def __init__(self, statements: int, wall_ns: int, cpu_s: float,
                 latencies: List[int], speed: float):
        self.statements = statements
        self.wall_ns = wall_ns
        self.cpu_s = cpu_s
        self.latencies = latencies      # ns per statement, as measured
        self.speed = speed              # mean of the two calibrations


class Segment:
    """What one timed segment observed."""

    __slots__ = ("slices", "failed", "gc_ns")

    def __init__(self, slices: List[Slice], failed: int, gc_ns: int):
        self.slices = slices
        self.failed = failed
        self.gc_ns = gc_ns              # inside the cyclic collector

    @property
    def statements(self) -> int:
        return sum(s.statements for s in self.slices)

    @property
    def wall_ns(self) -> int:
        return sum(s.wall_ns for s in self.slices)

    @property
    def reference_wall_ns(self) -> float:
        """Wall time at reference speed, slice by slice."""
        return sum(s.wall_ns / s.speed for s in self.slices)

    @property
    def reference_cpu_s(self) -> float:
        return sum(s.cpu_s / s.speed for s in self.slices)

    def latencies(self, at_reference_speed: bool = True) -> List[float]:
        if not at_reference_speed:
            return [ns for s in self.slices for ns in s.latencies]
        return [ns / s.speed for s in self.slices for ns in s.latencies]


class Measurement:
    """A finished timed run."""

    def __init__(self) -> None:
        self.segments: List[Segment] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []         # first few, verbatim
        self.problems: List[str] = []       # failed correctness checks
        self.rss_start_mb = 0.0
        self.window_rss_mb = 0.0
        self.window_statements = 0
        self.window_counters: Dict[str, float] = {}
        self.start_counters: Dict[str, float] = {}

    @property
    def wall_ns(self) -> int:
        return sum(s.wall_ns for s in self.segments)

    def slices(self) -> List[Slice]:
        return [s for segment in self.segments for s in segment.slices]

    def note_error(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}"[:200])


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values``.  Like the median it ignores
    stalled segments; unlike it, it does not jump between two levels
    when the cyclic collector's heavy phase (a quarter of the wall clock
    for seconds at a time on the write workloads) covers about half of
    the segments."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcPauses:
    """Wall time spent inside the cyclic collector, via ``gc.callbacks``
    (the collector stays at its defaults: users pay it too)."""

    def __init__(self) -> None:
        self.total_ns = 0
        self._start = 0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.total_ns += time.perf_counter_ns() - self._start

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class SliceTimer:
    """Cuts a segment into slices: ``close(statements, latencies)`` ends
    the running slice, calibrates, and starts the next.  A span
    ``recorder`` is told the machine's speed at every calibration."""

    def __init__(self, machine: Machine, recorder=None):
        self.machine = machine
        self.recorder = recorder
        self.slices: List[Slice] = []
        self._start(machine.speed())

    def _start(self, speed: float) -> None:
        self._speed = speed
        if self.recorder is not None:
            self.recorder.speed = speed
        self._cpu = time.process_time()
        self._wall = time.perf_counter_ns()

    def close(self, statements: int, latencies: List[int]) -> None:
        wall_ns = time.perf_counter_ns() - self._wall
        cpu_s = time.process_time() - self._cpu
        speed = self.machine.speed()
        if statements:
            self.slices.append(Slice(statements, wall_ns, cpu_s, latencies,
                                     (self._speed + speed) / 2))
        self._start(speed)


def execute_segment(sessions: Sequence, stream: Sequence[tuple],
                    machine: Machine,
                    measurement: Optional[Measurement] = None,
                    recorder=None):
    """Run ``stream`` (items ``(session, sql, params, ...)``) closed
    loop.  Returns ``(Segment, outcomes)``; ``outcomes[i]`` is the result
    rows, the exception the statement raised, or ``None`` for a statement
    skipped because its transaction had already failed (a failed
    transaction is rolled back and not retried, so the stream stays
    deterministic)."""
    count = len(stream)
    per_slice = -(-count // SLICES)
    outcomes: List[object] = [None] * count
    open_txn = set()
    dead_txn = set()
    failed = 0
    clock: Callable[[], int] = time.perf_counter_ns
    tracing = recorder is not None and recorder.enabled
    gc.collect()
    with GcPauses() as pauses:
        timer = SliceTimer(machine, recorder)
        latencies: List[int] = []
        for index, item in enumerate(stream):
            if index and not index % per_slice:
                timer.close(len(latencies), latencies)
                latencies = []
            sid, sql, params = item[0], item[1], item[2]
            if dead_txn and sid in dead_txn:
                if sql == COMMIT:
                    dead_txn.discard(sid)
                continue
            session = sessions[sid]
            if tracing:
                frame = recorder.begin("client.request")
            started = clock()
            try:
                outcomes[index] = session.execute(sql, params).rows
            except Exception as exc:  # noqa: BLE001 — counted, run goes on
                latencies.append(clock() - started)
                outcomes[index] = exc
                failed += 1
                if measurement is not None:
                    measurement.note_error(exc)
                if sid in open_txn or sql == BEGIN:
                    open_txn.discard(sid)
                    if sql != COMMIT:
                        dead_txn.add(sid)
                    try:
                        session.rollback()
                    except Exception as again:  # noqa: BLE001
                        if measurement is not None:
                            measurement.note_error(again)
            else:
                latencies.append(clock() - started)
                if sql == BEGIN:
                    open_txn.add(sid)
                elif sql == COMMIT:
                    open_txn.discard(sid)
            if tracing:
                recorder.end(frame)
        timer.close(len(latencies), latencies)
    return Segment(timer.slices, failed, pauses.total_ns), outcomes
