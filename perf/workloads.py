"""The four closed-loop workloads: tables, seeded statement streams, and
the reference each stream is checked against.

Every stream is a pure function of ``(seed, segment index)`` and is
generated before the segment is timed, so the program under test only
ever receives generated inputs.  Stream items are
``(session, sql, params, kind, key)``; ``kind``/``key`` are the
benchmark's own notes for the reference model and are never sent.
"""

from __future__ import annotations

import gc
import random
from typing import Callable, Dict, List, Optional, Sequence

import stacks
from driver import (
    BEGIN, COMMIT, MAX_SEGMENTS, WINDOW, Machine, Measurement, Stopwatch,
    execute_segment, rss_mb,
)
from repro.shard import HashSharder, RangeSharder
from repro.workloads.openloop import ZipfSampler

WARMUP = 500            # statements run before timing, part of set-up
WORKLOAD_DEFAULT = "workload default"
ZIPF_SKEW = 0.99


class State:
    """A loaded entry point with open sessions and its reference model."""

    def __init__(self, front, sessions: List, model):
        self.front = front
        self.sessions = sessions
        self.model = model
        # failed checks and failed statements of the warm-up, which every
        # measurement of this state inherits
        self.problems: List[str] = []


class Workload:
    """Base: a table, a seeded stream, a reference model."""

    name = ""
    why = ""
    table: stacks.Table
    rows_full = 0           # table rows at scale 1
    segment_full = 0        # statements per timed segment at scale 1
    sessions = 1            # logical client sessions, all on one thread
    cache_capacity: Optional[int] = None    # result cache off

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.n_rows = max(64, int(self.rows_full * scale))
        self.segment = max(24, int(self.segment_full * scale))
        # built before any set-up, so its table is a constant in every
        # memory figure
        self.machine = Machine()

    # -- inputs ----------------------------------------------------------

    def rows(self, seed: int) -> List[tuple]:
        raise NotImplementedError

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        """Segment ``segment`` of the statement stream (-1 = warm-up):
        about ``count`` statements (default: one timed segment), always
        whole transactions."""
        raise NotImplementedError

    def rng(self, seed: int, segment: int) -> random.Random:
        return random.Random(seed * 1_000_003 + segment + 1)

    # -- reference -------------------------------------------------------

    def model(self, seed: int):
        """Mutable reference state the checks compare against."""
        return None

    def verify(self, model, stream, outcomes) -> List[str]:
        """Check one segment's outcomes (and advance the model)."""
        return []

    def verify_final(self, state: State) -> List[str]:
        return []

    # -- running ---------------------------------------------------------

    def setup(self, seed: int, kind: str = "composed",
              tracing: bool = False, cache=WORKLOAD_DEFAULT,
              tick: Optional[Callable[[], None]] = None) -> State:
        """Build, load, connect and warm one entry point.  ``cache`` is
        a result-cache capacity, ``None`` for off, or the workload's
        own setting."""
        if cache is WORKLOAD_DEFAULT:
            cache = self.cache_capacity
        front = stacks.build(
            kind, self.table, self.rows(seed), tracing=tracing,
            result_cache=stacks.result_cache_config(cache), tick=tick)
        state = State(front, stacks.open_sessions(front, self.sessions),
                      self.model(seed))
        warm = self.stream(seed, -1, min(WARMUP, self.segment))
        state.problems += self.replay(state, warm)
        return state

    def replay(self, state: State, stream: Sequence[tuple]) -> List[str]:
        """Run ``stream`` outside any measurement and check it."""
        _segment, outcomes = execute_segment(state.sessions, stream,
                                            self.machine)
        return self.check(state, stream, outcomes)

    def check(self, state: State, stream: Sequence[tuple],
              outcomes: Sequence[object]) -> List[str]:
        """What went wrong in an untimed replay (warm-up, ladder) of
        whole transactions: failed checks and failed statements."""
        problems = self.verify(state.model, stream, outcomes)
        lost = sum(1 for o in outcomes
                   if o is None or isinstance(o, Exception))
        if lost:
            problems.append(f"{lost} of {len(stream)} untimed statements "
                            f"failed, first: {_first_error(outcomes)}")
        return problems

    def setup_main(self, seed: int,
                   tick: Optional[Callable[[], None]] = None) -> State:
        """The stack the timed run drives."""
        return self.setup(seed, tick=tick)

    def timed_setup(self, seed: int):
        """Returns ``(state, seconds the set-up took at reference
        speed)``."""
        gc.collect()
        watch = Stopwatch(self.machine)
        state = self.setup_main(seed, tick=watch.tick)
        return state, watch.stop()

    def measure(self, state: State, seed: int, seconds: float,
                recorder=None, segments: int = 0,
                first: int = 0) -> Measurement:
        """Run whole segments, from segment ``first`` on, until
        ``seconds`` of timed wall clock have passed (never fewer than
        :data:`WINDOW`; exactly ``segments`` when given)."""
        m = Measurement()
        m.problems += state.problems
        m.rss_start_mb = rss_mb()
        m.start_counters = stacks.counters(state.front)
        budget_ns = int(seconds * 1e9)
        fixed = segments or WINDOW
        done = 0
        while done < fixed or (not segments and done < MAX_SEGMENTS
                               and m.wall_ns < budget_ns):
            self.run_segment(state, seed, first + done, m, recorder)
            done += 1
            if done == min(fixed, WINDOW):
                m.window_rss_mb = rss_mb()
                m.window_statements = sum(
                    s.statements for s in m.segments)
                m.window_counters = stacks.counters(state.front)
        m.problems += self.verify_final(state)
        return m

    def run_segment(self, state: State, seed: int, index: int,
                    m: Measurement, recorder) -> None:
        stream = self.stream(seed, index)
        segment, outcomes = execute_segment(
            state.sessions, stream, self.machine, m, recorder)
        m.segments.append(segment)
        m.attempted += len(stream)
        m.failed += segment.failed + sum(1 for o in outcomes if o is None)
        m.problems += self.verify(state.model, stream, outcomes)


def _first_error(outcomes: Sequence[object]) -> str:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"[:200]
    return "skipped after an earlier failure"


# ---------------------------------------------------------------------------
# kv workloads: point reads, point writes, the transaction mix
# ---------------------------------------------------------------------------

KV = stacks.Table(
    name="kv",
    ddl="CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad VARCHAR(64))",
    columns=("k", "v", "pad"),
    sharder=lambda: HashSharder(stacks.SHARDS),
)


class KvWorkload(Workload):
    table = KV
    rows_full = 20_000
    exact_reads = True      # no concurrent writer: a read sees the model

    def rows(self, seed: int) -> List[tuple]:
        return [(k, self.seed_value(k, seed), f"{k:064d}")
                for k in range(self.n_rows)]

    @staticmethod
    def seed_value(key: int, seed: int) -> int:
        return (key * 31 + seed) % 997

    def model(self, seed: int) -> Dict[int, int]:
        self._seed = seed
        return {k: self.seed_value(k, seed) for k in range(self.n_rows)}

    def verify(self, model, stream, outcomes) -> List[str]:
        problems: List[str] = []
        pending: Dict[int, List[int]] = {}
        for item, outcome in zip(stream, outcomes):
            sid, kind, key = item[0], item[3], item[4]
            if outcome is None or isinstance(outcome, Exception):
                pending.pop(sid, None)      # rolled back by the driver
                continue
            if kind == "read":
                value = outcome[0][0] if len(outcome) == 1 else None
                low = model[key] if self.exact_reads else \
                    self.seed_value(key, self._seed)
                if value is None or not low <= value <= model[key]:
                    problems.append(
                        f"read k={key} returned {outcome!r}, "
                        f"expected {low}..{model[key]}")
            elif kind == "update":
                if sid in pending:
                    pending[sid].append(key)
                else:
                    model[key] += 1
            elif kind == "begin":
                pending[sid] = []
            elif kind == "commit":
                for written in pending.pop(sid, ()):
                    model[written] += 1
        return problems[:5]

    def verify_final(self, state: State) -> List[str]:
        problems: List[str] = []
        session = state.front.connect(database=stacks.DATABASE)
        found = dict(session.execute("SELECT k, v FROM kv").rows)
        total = session.execute("SELECT SUM(v) FROM kv").rows[0][0]
        session.close()
        if found != state.model:
            wrong = [k for k in state.model
                     if found.get(k) != state.model[k]]
            problems.append(
                f"{len(wrong)} rows differ from the acknowledged "
                f"updates, first k={wrong[:3]}")
        if total != sum(state.model.values()):
            problems.append(
                f"SUM(v)={total}, acknowledged updates give "
                f"{sum(state.model.values())}")
        check = getattr(state.front, "check_convergence", None)
        if check is not None and not check():
            problems.append("replicas did not converge")
        return problems


class ReadPoint(KvWorkload):
    name = "read_point"
    why = ("one parameterised point SELECT, Zipf keys, result cache off: "
           "parse, analyze, route, balance, execute do the work; "
           "certify, ship and apply do none")
    segment_full = 4000
    SQL = "SELECT v FROM kv WHERE k = ?"

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.zipf = ZipfSampler(self.n_rows, ZIPF_SKEW)

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        rng = self.rng(seed, segment)
        sample = self.zipf.sample
        out = []
        for _ in range(count or self.segment):
            key = sample(rng)
            out.append((0, self.SQL, [key], "read", key))
        return out

    def verify_final(self, state: State) -> List[str]:
        return []       # nothing was written; every read was checked


class WritePoint(KvWorkload):
    name = "write_point"
    why = ("autocommit point UPDATEs on uniform keys, no conflicts: the "
           "commit path (writeset, certify, group commit, HA ship, "
           "recovery log, replica apply, autovacuum) does the work")
    segment_full = 2500
    SQL = "UPDATE kv SET v = v + 1 WHERE k = ?"

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        rng = self.rng(seed, segment)
        out = []
        for _ in range(count or self.segment):
            key = rng.randrange(self.n_rows)
            out.append((0, self.SQL, [key], "update", key))
        return out


class TxnMix(KvWorkload):
    name = "txn_mix"
    why = ("reads beside the writes that invalidate them: 4 interleaved "
           "sessions, literal SQL beyond every statement memo, small "
           "result cache on, read-only and write transactions, half 2PC")
    segment_full = 3000
    sessions = 4
    cache_capacity = 512
    exact_reads = False     # another session may have committed since

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.zipf = ZipfSampler(self.n_rows, ZIPF_SKEW)
        # a session only ever writes keys of its own class, so write
        # transactions of different sessions never conflict and no
        # operation fails (see README: certification aborts)
        self.write_ranks = ZipfSampler(self.n_rows // 8 * 2, ZIPF_SKEW)

    def _write_key(self, rng: random.Random, sid: int,
                   parity: Optional[int] = None) -> int:
        rank = self.write_ranks.sample(rng)
        if parity is not None:
            rank = (rank & ~1) | parity
        return ((rank >> 1) << 3) | (sid << 1) | (rank & 1)

    def _transaction(self, rng: random.Random, sid: int) -> List[tuple]:
        read = self.zipf.sample
        choice = rng.random()
        if choice < 0.6:
            key = read(rng)
            return [(sid, f"SELECT v FROM kv WHERE k = {key}", None,
                     "read", key)]
        out = [(sid, BEGIN, None, "begin", -1)]
        if choice < 0.8:
            for _ in range(2):
                key = read(rng)
                out.append((sid, f"SELECT v FROM kv WHERE k = {key}",
                            None, "read", key))
        else:
            key = read(rng)
            out.append((sid, f"SELECT v FROM kv WHERE k = {key}", None,
                        "read", key))
            first = self._write_key(rng, sid)
            # keys are hash-sharded on k % 2: the second write lands on
            # the other shard (2PC) for half the write transactions
            cross = rng.random() < 0.5
            parity = (first & 1) ^ 1 if cross else first & 1
            for key in (first, self._write_key(rng, sid, parity)):
                out.append((sid,
                            f"UPDATE kv SET v = v + 1 WHERE k = {key}",
                            None, "update", key))
        out.append((sid, COMMIT, None, "commit", -1))
        return out

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        rng = self.rng(seed, segment)
        share = (count or self.segment) // self.sessions
        queues = []
        for sid in range(self.sessions):
            queue: List[tuple] = []
            while len(queue) < share:
                queue.extend(self._transaction(rng, sid))
            queues.append(queue)
        # round-robin, statement by statement, whole transactions only
        out = []
        depth = max(len(q) for q in queues)
        for position in range(depth):
            for queue in queues:
                if position < len(queue):
                    out.append(queue[position])
        return out


# ---------------------------------------------------------------------------
# scan_range: range predicates, ORDER BY/LIMIT, GROUP BY, MIN/MAX
# ---------------------------------------------------------------------------

def ev_table(rows: int) -> stacks.Table:
    """``ev``, range-sharded in the middle of its key space."""
    return stacks.Table(
        name="ev",
        ddl="CREATE TABLE ev (k INT PRIMARY KEY, grp INT, v INT)",
        columns=("k", "grp", "v"),
        sharder=lambda: RangeSharder([rows // 2 - 1]),
    )


class ScanRange(Workload):
    name = "scan_range"
    why = ("read-only range aggregates, ORDER BY/LIMIT, GROUP BY and "
           "MIN/MAX on a range-sharded table: executor, expressions and "
           "scatter merge do the work; parse/route/commit cost is noise")
    rows_full = 4000
    segment_full = 60
    GROUPS = 10
    VALUES = 1000
    COUNT_SUM = "SELECT COUNT(*), SUM(v) FROM ev WHERE k BETWEEN ? AND ?"
    TOP = "SELECT k, v FROM ev WHERE k >= ? ORDER BY k LIMIT 10"
    GROUPED = ("SELECT grp, COUNT(*), AVG(v) FROM ev "
               "WHERE k BETWEEN ? AND ? GROUP BY grp")
    MIN_MAX = "SELECT MIN(k), MAX(k) FROM ev WHERE v = ?"

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.n_rows = max(self.n_rows, 500)     # the GROUP BY span fits
        self.table = ev_table(self.n_rows)

    def rows(self, seed: int) -> List[tuple]:
        return [(k, k % self.GROUPS, (k * 17 + seed) % self.VALUES)
                for k in range(self.n_rows)]

    def model(self, seed: int) -> List[tuple]:
        return self.rows(seed)

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        rng = self.rng(seed, segment)
        out = []
        for _ in range(count or self.segment):
            choice = rng.random()
            if choice < 0.4:
                low = rng.randrange(self.n_rows - 50)
                out.append((0, self.COUNT_SUM, [low, low + 49],
                            "count_sum", low))
            elif choice < 0.7:
                low = rng.randrange(self.n_rows)
                out.append((0, self.TOP, [low], "top", low))
            elif choice < 0.9:
                low = rng.randrange(self.n_rows - 400)
                out.append((0, self.GROUPED, [low, low + 399],
                            "grouped", low))
            else:
                value = rng.randrange(self.VALUES)
                out.append((0, self.MIN_MAX, [value], "min_max", value))
        return out

    def verify(self, model, stream, outcomes) -> List[str]:
        problems = []
        for item, outcome in zip(stream, outcomes):
            if outcome is None or isinstance(outcome, Exception):
                continue
            expected = self.reference(model, item[3], item[2])
            if not _same_rows(outcome, expected, item[3] == "grouped"):
                problems.append(f"{item[1]} {item[2]} returned "
                                f"{outcome!r}, expected {expected!r}")
        return problems[:5]

    @staticmethod
    def reference(rows: Sequence[tuple], kind: str,
                  params: Sequence[int]) -> List[tuple]:
        """Brute force over the seed rows."""
        if kind == "count_sum":
            hit = [v for k, _g, v in rows if params[0] <= k <= params[1]]
            return [(len(hit), sum(hit) if hit else None)]
        if kind == "top":
            hit = sorted((k, v) for k, _g, v in rows if k >= params[0])
            return hit[:10]
        if kind == "grouped":
            groups: Dict[int, List[int]] = {}
            for k, g, v in rows:
                if params[0] <= k <= params[1]:
                    groups.setdefault(g, []).append(v)
            return [(g, len(vs), sum(vs) / len(vs))
                    for g, vs in sorted(groups.items())]
        hit = [k for k, _g, v in rows if v == params[0]]
        return [(min(hit), max(hit))] if hit else [(None, None)]


def _same_rows(got, expected, unordered: bool) -> bool:
    if unordered:
        got = sorted(got)
    if len(got) != len(expected):
        return False
    for row, want in zip(got, expected):
        if len(row) != len(want):
            return False
        for a, b in zip(row, want):
            if isinstance(b, float) and a is not None:
                if abs(a - b) > 1e-9 * max(1.0, abs(b)):
                    return False
            elif a != b:
                return False
    return True


CLOSED_LOOP = (ReadPoint, WritePoint, TxnMix, ScanRange)
