"""``openloop_sim``: the composed cluster under open-loop session
arrivals in simulated time.

Requests arrive on a schedule (``SessionArrivalDriver``, Poisson session
arrivals at a fixed rate through ``default_gate``), so this is the one
workload where ``cluster/sim.py``, ``bench/simdriver.py`` and
``core/admission.py`` work.  The timed run is steady load below
saturation: wall-clock cost per simulated statement is what it measures.
The traced run adds the drills whose simulated numbers repeat exactly
under a seed: a ladder of three fixed rates and a leader kill.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional

import stacks
from driver import GcPauses, Measurement, Segment, SliceTimer
from repro.bench.chaos import GroupKillTrack
from repro.bench.simdriver import SessionArrivalDriver, TimedShardedCluster
from repro.cluster.sim import Environment
from repro.core.admission import default_gate
from repro.core.errors import MiddlewareDown
from repro.shard import HashSharder
from repro.workloads.openloop import ConstantRate, OpenLoopWorkload
from workloads import WARMUP, State, Workload

ROWS = 2000
STEADY_RATE = 800.0         # sessions/s of the timed run
SEGMENT_SIM_S = 4.0         # simulated seconds per timed segment
STEP_SIM_S = 0.1            # one latency sample per step
STEPS_PER_SLICE = 5         # a calibration after every fifth step
DRAIN_SIM_S = 0.5           # arrivals stopped, in-flight work finishes
# about WARMUP transactions (2 per session) before the timed run
WARM_SIM_S = WARMUP / (2.0 * STEADY_RATE)
DEADLINE = 0.75             # a later reply counts as missed
LADDER_RATES = (400.0, 800.0, 1600.0)
DRILL_SIM_S = 6.0
LATENCY_LIMIT_S = 0.050     # p99 limit a rate must meet
GOODPUT_LIMIT = 0.99
KILL_RATE = 400.0
KILL_GROUP = 1
KILL_AT = 1.5
DETECTION_S = 0.3
PROBE_EVERY_S = 0.010

SESSIONS_KV = stacks.Table(
    name="sessions_kv",
    ddl=("CREATE TABLE sessions_kv "
         "(k INT PRIMARY KEY, v INT, pad VARCHAR(40))"),
    columns=("k", "v", "pad"),
    sharder=lambda: HashSharder(stacks.SHARDS),
)


class SimState(State):
    """A composed cluster wired into a simulation environment."""

    def __init__(self, front, env, timed, gate):
        super().__init__(front, [], None)
        self.env = env
        self.timed = timed
        self.gate = gate
        self.acked_updates = 0


class OpenLoopSim(Workload):
    name = "openloop_sim"
    why = ("open loop in simulated time: sessions arrive at a fixed rate "
           "through the admission gate; the sim kernel, timed driver, "
           "admission and (traced run) HA promotion do the work")
    table = SESSIONS_KV
    rows_full = ROWS
    REPLAY = 3000           # statements of the closed-loop replay

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)     # scale also thins the arrivals
        self.replay_count = max(24, int(self.REPLAY * scale))
        self.load = OpenLoopWorkload(
            rows=self.n_rows, seed_rows=self.n_rows, read_fraction=0.8,
            mean_session_length=2.0, mean_think_time=0.01)

    def rate(self, sessions_per_s: float) -> float:
        return sessions_per_s * self.scale

    # -- inputs (the closed-loop replay used by ladder and direct calls) --

    def rows(self, seed: int) -> List[tuple]:
        return [(k, 0, f"pad{k}") for k in range(self.n_rows)]

    def stream(self, seed: int, segment: int,
               count: Optional[int] = None) -> List[tuple]:
        rng = self.rng(seed, segment)
        out = []
        for _ in range(count or self.replay_count):
            spec = self.load.next_transaction(rng)
            sql, params = spec.statements[0]
            out.append((0, sql, params or None, spec.kind, -1))
        return out

    # -- the simulated stack ------------------------------------------------

    def setup_main(self, seed: int,
                   tick: Optional[Callable[[], None]] = None) -> State:
        state = self._stack(seed, tick)
        warm = self._driver(state, self.rate(STEADY_RATE), seed * 7919)
        warm.start(WARM_SIM_S)
        state.env.run(until=WARM_SIM_S + DRAIN_SIM_S)
        state.acked_updates += warm.metrics.write_latency.count()
        missed = _missed(warm)
        if missed:
            state.problems.append(
                f"{missed} warm-up transactions were shed, late or failed")
        return state

    def _stack(self, seed: int,
               tick: Optional[Callable[[], None]] = None) -> SimState:
        env = Environment()
        front = stacks.build("composed", self.table, self.rows(seed),
                             env=env, tick=tick)
        timed = TimedShardedCluster(env, front)
        gate = default_gate(clock=lambda: env.now)
        return SimState(front, env, timed, gate)

    def _driver(self, state: SimState, rate: float,
                seed: int) -> SessionArrivalDriver:
        return SessionArrivalDriver(
            state.timed, self.load, ConstantRate(rate), seed=seed,
            admission=state.gate, txn_deadline=DEADLINE)

    # -- the timed run --------------------------------------------------------

    def run_segment(self, state: SimState, seed: int, index: int,
                    m: Measurement, recorder) -> None:
        """One steady-rate driver for SEGMENT_SIM_S simulated seconds,
        run step by step; each step gives one sample of wall time per
        simulated transaction, each slice of steps one calibration."""
        env = state.env
        driver = self._driver(state, self.rate(STEADY_RATE),
                              seed * 1000 + index)
        tracing = recorder is not None and recorder.enabled
        clock = time.perf_counter_ns
        gc.collect()
        end = env.now + SEGMENT_SIM_S + DRAIN_SIM_S
        driver.start(SEGMENT_SIM_S)
        with GcPauses() as pauses:
            timer = SliceTimer(self.machine, recorder)
            latencies: List[int] = []
            done = in_slice = steps = 0
            while env.now < end:
                until = min(env.now + STEP_SIM_S, end)
                if tracing:
                    frame = recorder.begin("client.sim_run")
                started = clock()
                env.run(until=until)
                elapsed = clock() - started
                if tracing:
                    recorder.end(frame)
                finished = _finished(driver)
                if finished > done:
                    latencies.append(elapsed // (finished - done))
                    in_slice += finished - done
                    done = finished
                steps += 1
                if not steps % STEPS_PER_SLICE:
                    timer.close(in_slice, latencies)
                    latencies, in_slice = [], 0
            timer.close(in_slice, latencies)
        missed = _missed(driver)
        for kind in driver.metrics.errors:
            m.note_error(RuntimeError(f"simulated client saw {kind}"))
        m.segments.append(Segment(timer.slices, missed, pauses.total_ns))
        m.attempted += done + driver.shed_txns
        m.failed += missed
        state.acked_updates += driver.metrics.write_latency.count()

    def verify_final(self, state: SimState) -> List[str]:
        return _acked_updates_survive(state.front, state.acked_updates)

    # -- the drills (traced run only) --------------------------------------

    def drills(self, seed: int) -> Dict[str, object]:
        """The rate ladder and the leader kill.  Returns the ``sim.*``
        and ``core.shed_*`` values plus ``problems``; sheds, late and
        lost requests here are the measurement, not failures of the
        benchmark."""
        out: Dict[str, object] = {"problems": []}
        max_rate = 0.0
        for rate in LADDER_RATES:
            run = self._rate_run(seed, rate)
            if (run["p99_s"] <= LATENCY_LIMIT_S
                    and run["goodput_frac"] >= GOODPUT_LIMIT
                    and not run["backlog_grows"]):
                max_rate = max(max_rate, rate)
            if rate == LADDER_RATES[1]:
                out["sim.txn_ms_p50"] = run["p50_s"] * 1e3
                out["sim.txn_ms_p99"] = run["p99_s"] * 1e3
                out["sim.txn_samples"] = run["samples"]
            if rate == LADDER_RATES[-1]:
                out["sim.goodput_frac"] = run["goodput_frac"]
                for metric, reason in (
                        ("core.shed_rate_limit", "rate_limit"),
                        ("core.shed_bulkhead", "bulkhead_full"),
                        ("core.shed_queue_depth", "queue_depth")):
                    out[metric] = run["shed"].get(reason, 0)
            out["problems"] += run["problems"]
        out["sim.max_rate"] = max_rate
        kill = self._kill_run(seed)
        out["sim.outage_s"] = kill["outage_s"]
        out["ha.promotions"] = kill["promotions"]
        out["shard.failover_reroutes"] = kill["failover_reroutes"]
        out["problems"] += kill["problems"]
        return out

    def _rate_run(self, seed: int, rate: float) -> Dict[str, object]:
        state = self._stack(seed)
        env = state.env
        driver = self._driver(state, self.rate(rate), seed)
        driver.start(DRILL_SIM_S)
        env.run(until=DRILL_SIM_S / 2)
        early_peak = state.gate.snapshot()["peak_pending"]
        env.run(until=DRILL_SIM_S)
        in_flight = state.gate.snapshot()["pending"]
        env.run(until=DRILL_SIM_S + DRAIN_SIM_S)
        latency = driver.metrics.latency
        arrived = driver.txns_issued + driver.shed_txns
        shed: Dict[str, int] = {}
        for reasons in state.gate.snapshot()["rejected"].values():
            for reason, count in reasons.items():
                shed[reason] = shed.get(reason, 0) + count
        state.acked_updates = driver.metrics.write_latency.count()
        return {
            "p50_s": latency.percentile(50.0),
            "p99_s": latency.percentile(99.0),
            "samples": latency.count(),
            "goodput_frac": stacks.ratio(driver.goodput, arrived),
            "backlog_grows": in_flight > 2 * early_peak + 8,
            "shed": shed,
            "problems": _acked_updates_survive(state.front,
                                               state.acked_updates),
        }

    def _kill_run(self, seed: int) -> Dict[str, object]:
        state = self._stack(seed)
        env, front = state.env, state.front
        driver = self._driver(state, self.rate(KILL_RATE), seed)
        track = GroupKillTrack(env, front, index=KILL_GROUP,
                               kill_times=[KILL_AT],
                               detection_delay=DETECTION_S)
        served: List[float] = []
        env.process(_probe(env, front, served), name="perf-probe")
        env.process(track.process(), name="perf-kill")
        driver.start(DRILL_SIM_S)
        env.run(until=DRILL_SIM_S + DRAIN_SIM_S)
        after = [t for t in served if t > KILL_AT]
        problems = _acked_updates_survive(
            front, driver.metrics.write_latency.count())
        if len(track.promotions) != 1 \
                or front.stats["group_promotions"] != 1:
            problems.append(
                f"expected exactly one promotion, saw {track.promotions}")
        if not after:
            problems.append("no probe was served after the kill")
        return {
            "outage_s": (after[0] - KILL_AT) if after else DRILL_SIM_S,
            "promotions": front.stats["group_promotions"],
            "failover_reroutes": front.stats["failover_reroutes"],
            "problems": problems,
        }


def _missed(driver: SessionArrivalDriver) -> int:
    """Transactions shed, answered after the deadline, or failed."""
    return (driver.shed_txns + driver.deadline_misses
            + sum(driver.metrics.errors.values()))


def _finished(driver: SessionArrivalDriver) -> int:
    return (driver.metrics.latency.count()
            + sum(driver.metrics.errors.values()))


def _probe(env, front, served: List[float]):
    """Benchmark-owned availability probe: one key of the killed group,
    every PROBE_EVERY_S; records when a read was served."""
    session = front.connect(database=stacks.DATABASE)
    key = next(k for k in range(stacks.SHARDS)
               if front.map.shard_of(SESSIONS_KV.name, k) == KILL_GROUP)
    sql = f"SELECT v FROM {SESSIONS_KV.name} WHERE k = {key}"
    while True:
        try:
            if session.execute(sql).rows:
                served.append(env.now)
        except MiddlewareDown:
            pass
        yield env.timeout(PROBE_EVERY_S)


def _acked_updates_survive(front, acked: int) -> List[str]:
    """Every row starts at v = 0 and every acknowledged update adds 1 to
    exactly one row (liveness and fencing are checked before any state
    changes), so SUM(v) must equal the acknowledged count."""
    session = front.connect(database=stacks.DATABASE)
    total = session.execute(
        f"SELECT SUM(v) FROM {SESSIONS_KV.name}").rows[0][0] or 0
    session.close()
    problems = []
    if total != acked:
        problems.append(
            f"{acked} updates acknowledged but SUM(v) is {total}")
    if not front.check_convergence():
        problems.append("replicas did not converge")
    return problems

