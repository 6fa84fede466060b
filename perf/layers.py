"""Per-layer measurements taken from outside the program: the layer-tax
ladder and timed direct calls into public functions.

Both use inputs the workload's own seeded stream produced.  Every value
is a p50 over many calls, at reference speed (see ``driver.Machine``),
so these are stable enough to rank layers; they are diagnostics without
a regression bound.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from typing import Callable, Dict, Iterable, List, Tuple

import stacks
from driver import SLICES, execute_segment
from repro.cluster.sim import Environment
from repro.core.admission import default_gate
from repro.core.analysis import analyze
from repro.core.certifier import Certifier
from repro.core.loadbalancer import LoadBalancer, RoutingContext
from repro.core.writesets import apply_writeset
from repro.shard import plan_scatter
from repro.sqlengine import Engine
from repro.sqlengine.dialects import postgresql
from repro.sqlengine.parser import parse_script

CALLS = 2000            # direct calls timed per function
MERGE_CALLS = 500
SIM_EVENTS = 100_000


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

ROUNDS = 4              # the ladder replays its stream in this many turns


def ladder(workload, seed: int):
    """Replay segment 0 of the stream, closed loop and untraced, at the
    four entry points (result cache off, ``repro.obs`` tracers off) and
    at two variants of the composed one.  All six are built first and
    take turns, a quarter of the stream at a time, so a slow spell of
    the machine slows every rung alike.  Each rung's tax is its p50
    minus the rung below, so the four add up to ``ladder.composed_us``
    by construction.  Returns ``(metrics, failed checks)``: every
    arm's replay is checked against that arm's reference model."""
    stream = workload.stream(seed, 0)
    options = [dict(kind=kind, cache=None) for kind in stacks.ENTRY_POINTS]
    options.append(dict(kind="composed", cache=None, tracing=True))
    options.append(dict(kind="composed", cache=1))
    arms = []
    problems: List[str] = []
    try:
        for option in options:
            arms.append(workload.setup(seed, **option))
            # six loaded stacks are alive at once; keep the collector
            # from rescanning the finished ones while the next loads
            # (the ladder reports medians, which no collection moves)
            gc.freeze()
        latencies: List[List[float]] = [[] for _ in arms]
        outcomes: List[List[object]] = [[] for _ in arms]
        step = -(-len(stream) // ROUNDS)
        for start in range(0, len(stream), step):
            for arm, samples, seen in zip(arms, latencies, outcomes):
                segment, results = execute_segment(
                    arm.sessions, stream[start:start + step],
                    workload.machine)
                samples.extend(segment.latencies())
                seen.extend(results)
    finally:
        gc.unfreeze()
    # a turn may end inside a transaction, so each arm is checked once,
    # over the whole stream
    for option, arm, seen in zip(options, arms, outcomes):
        problems += [f"ladder arm {option}: {problem}" for problem
                     in arm.problems + workload.check(arm, stream, seen)]
    engine, middleware, sharded, composed, traced, all_miss = (
        statistics.median(samples) / 1e3 for samples in latencies)
    return {
        "sqlengine.exec_us": engine,
        "core.mw_tax_us": middleware - engine,
        "shard.router_tax_us": sharded - middleware,
        "ha.pair_tax_us": composed - sharded,
        "ladder.composed_us": composed,
        "obs.tracing_tax_us": traced - composed,
        "obs.tracing_overhead_frac": stacks.ratio(traced - composed,
                                                  composed),
        "cache.miss_tax_us": all_miss - composed,
    }, problems


# ---------------------------------------------------------------------------
# direct calls
# ---------------------------------------------------------------------------

def _p50_us(machine, call: Callable[[object], object],
            inputs: Iterable[object]) -> float:
    """Median µs of ``call(x)`` over ``inputs``, at reference speed: the
    calls are timed in :data:`SLICES` slices, each divided by the mean
    of the machine's speed at its two ends, as the client's are."""
    clock = time.perf_counter_ns
    inputs = list(inputs)
    per_slice = -(-len(inputs) // SLICES)
    samples: List[float] = []
    after = machine.speed()
    for start in range(0, len(inputs), per_slice):
        before, raw = after, []
        for value in inputs[start:start + per_slice]:
            started = clock()
            call(value)
            raw.append(clock() - started)
        after = machine.speed()
        speed = (before + after) / 2
        samples += [ns / speed for ns in raw]
    return statistics.median(samples) / 1e3


def log_marks(front) -> Tuple[int, int]:
    """Lengths of the first group's certifier and recovery logs: what
    set-up put there, so that the direct calls replay only what the run
    itself committed."""
    group = stacks.middlewares(front)[0]
    return group.certifier.log_length(), len(group.recovery_log.entries)


def direct_calls(workload, state, seed: int, marks: Tuple[int, int],
                 scatter_reads: float) -> Dict[str, float]:
    """Time public functions of single layers on inputs taken from the
    stream and from the logs the finished run left behind ``state``.
    A function the workload never reached has no inputs here and is left
    out: certify, apply and vacuum without a commit, merge without a
    scatter read, admission and the simulation kernel outside simulated
    time."""
    front = state.front
    table = workload.table
    stream = workload.stream(seed, 0)[:CALLS]
    texts = [item[1] for item in stream]
    group = stacks.middlewares(front)[0]
    p50_us = functools.partial(_p50_us, workload.machine)
    out: Dict[str, float] = {}

    out["sqlengine.parse_us"] = p50_us(parse_script, texts)
    # a fresh engine's LRU sees the texts in stream order: hits where
    # the workload repeats a text, parses where it does not
    out["sqlengine.parse_lru_us"] = p50_us(Engine("lru").parse, texts)
    parsed = [parse_script(text)[0] for text in texts]
    out["core.analyze_us"] = p50_us(analyze, parsed)

    balancer = LoadBalancer()
    context = RoutingContext([table.name], session_id=1)
    out["core.balance_us"] = p50_us(
        lambda _n: balancer.choose(group.replicas, context), range(CALLS))
    shard_of = front.map.shard_of
    out["shard.map_lookup_us"] = p50_us(
        lambda key: shard_of(table.name, key), range(CALLS))

    certified, logged = marks
    key_sets = [keys for _seq, keys
                in group.certifier.export_log()][certified:][:CALLS]
    if key_sets:
        certifier = Certifier()
        out["core.certify_us"] = p50_us(
            lambda keys: certifier.certify(certifier.current_seq, keys),
            key_sets)
        scratch = Engine("scratch", dialect=postgresql())
        scratch.create_database(stacks.DATABASE)
        scratch.connect(database=stacks.DATABASE).execute(table.ddl)
        writesets = [e.payload for e in group.recovery_log.entries[logged:]
                     if e.kind == "writeset"][:CALLS]
        out["core.apply_us"] = p50_us(
            lambda payload: apply_writeset(scratch, payload), writesets)
        # the foreground stall autovacuum causes: one explicit vacuum of
        # a replica the run has been writing to
        replica = group.replicas[-1].engine
        out["sqlengine.vacuum_ms"] = p50_us(
            lambda _n: replica.vacuum(), range(1)) / 1e3

    scattered = _scatter_inputs(front, stream) if scatter_reads else []
    if scattered:
        out["shard.merge_us"] = p50_us(
            lambda item: plan_scatter(*item[0]).merge(item[1]),
            scattered * -(-MERGE_CALLS // len(scattered)))

    if hasattr(state, "gate"):
        now = [0.0]
        gate = default_gate(clock=lambda: now[0])

        def admit(_n) -> None:
            now[0] += 0.01
            ticket, _reason = gate.try_admit("read")
            ticket.finish(True)
        out["core.admit_us"] = p50_us(admit, range(CALLS))
        events = max(1000, int(SIM_EVENTS * min(1.0, workload.scale)))
        out["cluster.sim_event_us"] = p50_us(
            _run_sim_events, [events]) / events
    return out


def _scatter_inputs(front, stream) -> List[tuple]:
    """For each statement of ``stream`` the router scatters (its
    ``scatter_reads`` counter says so), the arguments of
    ``plan_scatter`` and the per-shard partial results, captured the way
    the router gets them: the plan's statement on each group.  A
    rewritten plan statement has no SQL text, so this one capture goes
    through ``execute_one_parsed``, as the router's does."""
    probe = front.connect(database=stacks.DATABASE)
    sessions = [group.connect(database=stacks.DATABASE)
                for group in stacks.middlewares(front)]
    captured = []
    try:
        for item in stream:
            sql, params = item[1], item[2] or []
            seen = front.stats["scatter_reads"]
            probe.execute(sql, params)
            if front.stats["scatter_reads"] == seen:
                continue
            statement = parse_script(sql)[0]
            plan = plan_scatter(statement, sql, params)
            captured.append(((statement, sql, params), [
                session.execute_one_parsed(plan.statement, plan.sql_text,
                                           params)
                for session in sessions]))
    finally:
        probe.close()
        for session in sessions:
            session.close()
    return captured


def _run_sim_events(events: int) -> None:
    """The simulation kernel alone: one process, ``events`` timeouts."""
    env = Environment()

    def ticker():
        for _ in range(events):
            yield env.timeout(0.001)
    env.process(ticker(), name="perf-ticker")
    env.run()
