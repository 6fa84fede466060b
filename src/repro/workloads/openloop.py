"""Open-loop session-arrival workload tier (paper sections 3.4 / 5.1).

The paper's evaluation critique is that closed-loop client pools at
"scaled load" hide overload behaviour: a closed loop slows down with the
system, an open loop does not.  This module provides the real thing at
the scale the critique implies — a *session arrival process* (not a
fixed client pool) with:

* heavy-tailed Zipf key popularity via an exact inverse-CDF sampler
  (:class:`ZipfSampler` — the rejection sampler in
  :func:`repro.workloads.generator.zipf_choice` is fine for thousands
  of draws, not millions);
* time-varying arrival rates (:class:`DiurnalRate`) with flash-crowd
  bursts layered on top (:class:`FlashCrowd`);
* 10^5–10^6 simulated sessions, each a short transaction sequence with
  think gaps, generated lazily so memory stays flat.

Arrivals are drawn from a non-homogeneous Poisson process by thinning
(:func:`arrival_times`), so any :class:`RateCurve` shape is exact.  The
sessions run in the timed client loop,
:class:`repro.bench.simdriver.ClientLoop`; its session arrival process
is :class:`repro.bench.simdriver.SessionArrivalDriver`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, List

from .generator import TxnSpec, Workload


# ---------------------------------------------------------------------------
# key popularity
# ---------------------------------------------------------------------------

class ZipfSampler:
    """Exact Zipf(skew) sampler over ``[0, population)`` by inverse CDF.

    The cumulative weights are precomputed once (O(n) floats); each draw
    is one uniform variate plus a binary search, so a million-session
    run costs microseconds per key instead of the rejection loop's
    unbounded retries at high skew.
    """

    __slots__ = ("population", "skew", "_cdf", "_total")

    def __init__(self, population: int, skew: float = 1.1):
        if population <= 0:
            raise ValueError("population must be positive")
        self.population = population
        self.skew = skew
        weights = (1.0 / (rank + 1) ** skew for rank in range(population))
        self._cdf = list(accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total)

    def hot_fraction(self, top: int) -> float:
        """Share of draws landing in the ``top`` most popular keys."""
        top = min(top, self.population)
        return self._cdf[top - 1] / self._total


# ---------------------------------------------------------------------------
# arrival-rate curves
# ---------------------------------------------------------------------------

class RateCurve:
    """Arrival rate (sessions/second) as a function of time."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    def max_rate(self, horizon: float) -> float:
        """An upper bound on ``rate`` over ``[0, horizon]`` — the
        thinning envelope.  Subclasses return a tight bound."""
        raise NotImplementedError


class ConstantRate(RateCurve):
    __slots__ = ("base",)

    def __init__(self, base: float):
        self.base = float(base)

    def rate(self, t: float) -> float:
        return self.base

    def max_rate(self, horizon: float) -> float:
        return self.base


class DiurnalRate(RateCurve):
    """A day/night sinusoid: ``base * (1 + amplitude*sin(...))``, peak at
    ``period * 0.25`` past ``phase``.  With amplitude 1 the trough is
    zero traffic and the peak is double the base — the daily swing real
    session traffic shows."""

    __slots__ = ("base", "amplitude", "period", "phase")

    def __init__(self, base: float, amplitude: float = 0.5,
                 period: float = 86400.0, phase: float = 0.0):
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        self.base = float(base)
        self.amplitude = amplitude
        self.period = period
        self.phase = phase

    def rate(self, t: float) -> float:
        cycle = math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return self.base * (1.0 + self.amplitude * cycle)

    def max_rate(self, horizon: float) -> float:
        return self.base * (1.0 + self.amplitude)


class FlashCrowd(RateCurve):
    """A multiplicative burst over an underlying curve: rate is scaled by
    ``multiplier`` during ``[start, start + duration)``, with linear ramp
    up/down over ``ramp`` seconds so the crowd arrives like a crowd, not
    a step function."""

    __slots__ = ("underlying", "start", "duration", "multiplier", "ramp")

    def __init__(self, underlying: RateCurve, start: float, duration: float,
                 multiplier: float = 2.0, ramp: float = 0.0):
        if multiplier < 1.0:
            raise ValueError("flash-crowd multiplier must be >= 1")
        self.underlying = underlying
        self.start = start
        self.duration = duration
        self.multiplier = multiplier
        self.ramp = max(0.0, ramp)

    def _boost(self, t: float) -> float:
        end = self.start + self.duration
        if t < self.start or t >= end:
            return 1.0
        if self.ramp > 0.0:
            into = t - self.start
            left = end - t
            edge = min(into, left)
            if edge < self.ramp:
                frac = edge / self.ramp
                return 1.0 + (self.multiplier - 1.0) * frac
        return self.multiplier

    def rate(self, t: float) -> float:
        return self.underlying.rate(t) * self._boost(t)

    def max_rate(self, horizon: float) -> float:
        return self.underlying.max_rate(horizon) * self.multiplier


def arrival_times(curve: RateCurve, horizon: float, rng: random.Random,
                  limit: int = 0) -> Iterator[float]:
    """Arrival instants of a non-homogeneous Poisson process with
    intensity ``curve.rate`` over ``[0, horizon)``, by thinning: draw
    candidates at the envelope rate, keep each with probability
    ``rate(t)/envelope``.  Lazy, O(1) memory, exact for any curve.

    ``limit`` > 0 caps the number of arrivals (a hard session budget).
    """
    envelope = curve.max_rate(horizon)
    if envelope <= 0:
        return
    t = 0.0
    emitted = 0
    while True:
        t += rng.expovariate(envelope)
        if t >= horizon:
            return
        if rng.random() * envelope <= curve.rate(t):
            yield t
            emitted += 1
            if limit and emitted >= limit:
                return


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

class OpenLoopWorkload(Workload):
    """Single-table CRUD with exact-Zipf key popularity, shaped for the
    session-arrival driver: each *session* runs ``session_length`` short
    transactions separated by ``think_time`` gaps.

    ``rows`` is the keyspace; setup inserts ``seed_rows`` of them (the
    working set the benchmark actually touches, since Zipf mass
    concentrates at low ranks) so loading stays cheap at million-key
    scale.  Reads and writes against unseeded keys are still valid SQL —
    reads return empty, updates match zero rows.
    """

    name = "openloop"

    def __init__(self, rows: int = 100_000, seed_rows: int = 2000,
                 read_fraction: float = 0.9, skew: float = 1.1,
                 table: str = "sessions_kv",
                 mean_session_length: float = 2.0,
                 max_session_length: int = 8,
                 mean_think_time: float = 0.05):
        self.rows = rows
        self.seed_rows = min(seed_rows, rows)
        self.read_fraction = read_fraction
        self.table = table
        self.mean_session_length = mean_session_length
        self.max_session_length = max_session_length
        self.mean_think_time = mean_think_time
        self.sampler = ZipfSampler(rows, skew)

    def setup_sql(self) -> List[str]:
        statements = [
            f"""CREATE TABLE {self.table} (
                k INT PRIMARY KEY, v INT, pad VARCHAR(40))"""
        ]
        for key in range(self.seed_rows):
            statements.append(
                f"INSERT INTO {self.table} (k, v, pad) "
                f"VALUES ({key}, 0, 'pad{key}')")
        return statements

    def read_fraction_estimate(self) -> float:
        return self.read_fraction

    # -- per-session shape ---------------------------------------------

    def session_length(self, rng: random.Random) -> int:
        """Transactions per session: geometric with the configured mean,
        capped so no session outlives the run."""
        p = 1.0 / max(1.0, self.mean_session_length)
        length = 1
        while (length < self.max_session_length
               and rng.random() > p):
            length += 1
        return length

    def think_time(self, rng: random.Random) -> float:
        if self.mean_think_time <= 0:
            return 0.0
        return rng.expovariate(1.0 / self.mean_think_time)

    # -- per-transaction SQL -------------------------------------------

    def next_transaction(self, rng: random.Random) -> TxnSpec:
        key = self.sampler.sample(rng)
        if rng.random() < self.read_fraction:
            sql = f"SELECT v FROM {self.table} WHERE k = {key}"
            return TxnSpec([(sql, [])], True, [self.table],
                           kind="point_read")
        sql = f"UPDATE {self.table} SET v = v + 1 WHERE k = {key}"
        return TxnSpec([(sql, [])], False, [self.table], kind="point_write")
