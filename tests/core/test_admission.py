"""Admission gate state machines: token buckets, bulkheads, shedding.

The load-bearing property — "an admitted-then-acked commit is never
shed" — is checked two ways: directly on random operation sequences
(hypothesis drives the gate through admissions, acks, finishes, and
clock advances), and via the gate's own ``acked_then_shed`` audit
counter, which exists so the invariant is observable from outside.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, ResiliencePolicy,
)
from repro.core.admission import (
    ACKED,
    ADMITTED,
    DONE,
    FAILED,
    REJECT_BULKHEAD,
    REJECT_QUEUE,
    REJECT_RATE,
    REJECT_UNKNOWN_CLASS,
    AdmissionGate,
    BulkheadLane,
    TokenBucket,
    default_gate,
)
from repro.core.errors import MiddlewareError, Overloaded

from tests.conftest import make_replicas


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.05)  # 0.5 tokens accrued
        assert bucket.try_take(0.1)       # 1.0 token accrued
        assert not bucket.try_take(0.1)

    def test_burst_is_the_ceiling(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.available(1000.0) == 2.0

    def test_time_going_backwards_does_not_mint_tokens(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_take(5.0)
        assert not bucket.try_take(0.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestBulkheadLane:
    def test_bounds_in_flight(self):
        lane = BulkheadLane("read", capacity=2)
        assert lane.try_enter()
        assert lane.try_enter()
        assert not lane.try_enter()
        lane.leave()
        assert lane.try_enter()
        assert lane.peak_in_flight == 2

    def test_leave_without_enter_raises(self):
        lane = BulkheadLane("read", capacity=1)
        with pytest.raises(RuntimeError):
            lane.leave()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BulkheadLane("read", capacity=0)


class TestAdmissionGate:
    def _gate(self, **kwargs) -> tuple:
        clock = ManualClock()
        gate = AdmissionGate(clock, **kwargs)
        return clock, gate

    def test_unknown_class_is_labeled(self):
        _clock, gate = self._gate()
        ticket, reason = gate.try_admit("mystery")
        assert ticket is None
        assert reason == REJECT_UNKNOWN_CLASS
        assert gate.rejected["mystery"][REJECT_UNKNOWN_CLASS] == 1

    def test_rate_limit_is_labeled(self):
        clock, gate = self._gate()
        gate.add_class("read", rate=10.0, burst=1.0, lane_capacity=100)
        ticket, _ = gate.try_admit("read")
        assert ticket is not None
        ticket2, reason = gate.try_admit("read")
        assert ticket2 is None and reason == REJECT_RATE
        clock.now = 1.0  # refill
        ticket3, _ = gate.try_admit("read")
        assert ticket3 is not None

    def test_bulkhead_is_labeled_and_isolated_per_class(self):
        clock, gate = self._gate()
        gate.add_class("read", rate=1000.0, lane_capacity=1)
        gate.add_class("commit", rate=1000.0, lane_capacity=1)
        read_ticket, _ = gate.try_admit("read")
        assert read_ticket is not None
        blocked, reason = gate.try_admit("read")
        assert blocked is None and reason == REJECT_BULKHEAD
        # a full read lane must not block commits (bulkhead isolation)
        commit_ticket, _ = gate.try_admit("commit")
        assert commit_ticket is not None

    def test_queue_depth_watermark_sheds_first(self):
        _clock, gate = self._gate(max_pending=1)
        gate.add_class("read", rate=1000.0, lane_capacity=100)
        first, _ = gate.try_admit("read")
        assert first is not None
        _ticket, reason = gate.try_admit("read")
        assert reason == REJECT_QUEUE
        first.finish(ok=True)
        assert gate.pending == 0
        again, _ = gate.try_admit("read")
        assert again is not None

    def test_admit_raises_with_label(self):
        _clock, gate = self._gate()
        with pytest.raises(Overloaded) as excinfo:
            gate.admit("mystery")
        assert excinfo.value.reason == REJECT_UNKNOWN_CLASS
        assert excinfo.value.kind == "mystery"
        assert isinstance(excinfo.value, MiddlewareError)
        assert excinfo.value.retry == "retry-safe"

    def test_ticket_lifecycle(self):
        _clock, gate = self._gate()
        gate.add_class("commit", rate=100.0, lane_capacity=4)
        ticket = gate.admit("commit")
        assert ticket.state == ADMITTED
        ticket.ack()
        assert ticket.state == ACKED
        ticket.ack()  # idempotent while acked
        ticket.finish(ok=True)
        assert ticket.state == DONE
        with pytest.raises(RuntimeError):
            ticket.finish(ok=True)
        with pytest.raises(RuntimeError):
            ticket.ack()
        assert gate.finished_ok == 1
        assert gate.acked["commit"] == 1

    def test_failed_unacked_ticket_is_not_lost_work(self):
        _clock, gate = self._gate()
        gate.add_class("commit", rate=100.0, lane_capacity=4)
        ticket = gate.admit("commit")
        ticket.finish(ok=False)
        assert ticket.state == FAILED
        assert gate.finished_failed == 1
        assert gate.acked_then_shed == 0

    def test_acked_then_failed_is_flagged(self):
        _clock, gate = self._gate()
        gate.add_class("commit", rate=100.0, lane_capacity=4)
        ticket = gate.admit("commit")
        ticket.ack()
        ticket.finish(ok=False)
        assert gate.acked_then_shed == 1  # audit counter catches it

    def test_class_watermark_sheds_that_class_first(self):
        _clock, gate = self._gate(max_pending=3)
        gate.add_class("read", rate=None, lane_capacity=3)
        gate.add_class("commit", rate=None, lane_capacity=3, watermark=1)
        assert not gate.saturated
        first, _ = gate.try_admit("commit")
        assert first is not None and gate.saturated
        assert gate.try_admit("commit") == (None, REJECT_QUEUE)
        # no bucket: nothing but depth and the lane ever refuses a read
        assert gate.try_admit("read")[0] is not None
        assert gate.try_admit("read")[0] is not None
        assert gate.try_admit("read") == (None, REJECT_QUEUE)
        first.finish()
        assert gate.pending == 2 and gate.saturated

    def test_settled_tickets_leave_nothing_behind(self):
        """Bounded growth: the gate keeps counters, never a per-ticket
        record — 10 000 acked commits later it holds what it held."""
        _clock, gate = self._gate(max_pending=4)
        gate.add_class("commit", rate=1e9, lane_capacity=4)

        def footprint():
            return sum(len(value) for value in vars(gate).values()
                       if isinstance(value, (set, list, dict)))

        before = footprint()
        for _ in range(10_000):
            ticket = gate.admit("commit")
            ticket.ack()
            ticket.finish()
        assert footprint() == before
        assert gate.acked["commit"] == gate.finished_ok == 10_000
        assert gate.pending == 0 and gate.acked_then_shed == 0

    def test_snapshot_shape(self):
        clock = ManualClock()
        gate = default_gate(clock)
        ticket = gate.admit("read")
        ticket.finish(ok=True)
        snap = gate.snapshot()
        assert snap["admitted"]["read"] == 1
        assert snap["finished_ok"] == 1
        assert snap["acked_then_shed"] == 0
        assert snap["lanes"]["read"]["peak_in_flight"] == 1
        assert gate.total_admitted() == 1
        assert gate.total_rejected() == 0


# -- the property -----------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.sampled_from(["read", "commit"])),
        st.tuples(st.just("ack"), st.integers(0, 30)),
        st.tuples(st.just("finish_ok"), st.integers(0, 30)),
        st.tuples(st.just("finish_fail"), st.integers(0, 30)),
        st.tuples(st.just("tick"), st.floats(0.001, 0.5)),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_admitted_then_acked_commits_are_never_shed(ops):
    """Drive the gate through an arbitrary interleaving of admissions,
    acks, finishes and clock advances; at no point may an acked ticket be
    counted as shed, and gate accounting must balance."""
    clock = ManualClock()
    gate = AdmissionGate(clock, max_pending=8)
    gate.add_class("read", rate=50.0, burst=4.0, lane_capacity=4)
    gate.add_class("commit", rate=20.0, burst=2.0, lane_capacity=2)
    live = []   # tickets not yet finished
    acked = []  # ticket ids acked at any point
    # the only way acked work can be "lost" is a caller explicitly
    # failing an acked ticket — the gate itself has no shed API — and
    # the audit counter must catch exactly those calls, nothing else
    expected_lost = 0
    for op, arg in ops:
        if op == "admit":
            ticket, reason = gate.try_admit(arg)
            if ticket is not None:
                live.append(ticket)
            else:
                assert reason in (REJECT_RATE, REJECT_BULKHEAD,
                                  REJECT_QUEUE)
        elif op == "tick":
            clock.now += arg
        elif live:
            ticket = live[arg % len(live)]
            if op == "ack":
                ticket.ack()
                acked.append(ticket.ticket_id)
            else:
                live.remove(ticket)
                if op == "finish_fail" and ticket.state == ACKED:
                    expected_lost += 1
                ticket.finish(ok=(op == "finish_ok"))
        # the invariant holds at every intermediate step, not just at
        # the end: the gate never sheds acked work on its own
        assert gate.acked_then_shed == expected_lost

    # accounting balances: everything admitted is live or finished
    assert gate.total_admitted() == \
        len(live) + gate.finished_ok + gate.finished_failed
    assert gate.pending == len(live)
    # acked tickets are all accounted for in the gate's per-class counts
    assert sum(gate.acked.values()) == len(set(acked))
    # rejections never consumed a lane slot
    for policy in gate.classes.values():
        assert 0 <= policy.lane.in_flight <= policy.lane.capacity


# -- same decisions as the controller this gate replaced --------------------

class _ReferenceController:
    """The deleted ``resilience.AdmissionController``, kept here as the
    reference arm: one shared in-flight pool, writes shed at a
    watermark, reads at the cap, saturated at the watermark."""

    def __init__(self, max_inflight: int, write_shed_fraction: float):
        self.max_inflight = max_inflight
        self.write_watermark = max(1, int(max_inflight * write_shed_fraction))
        self.inflight = 0

    def try_acquire(self, is_write: bool) -> bool:
        limit = self.write_watermark if is_write else self.max_inflight
        if self.inflight >= limit:
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        if self.inflight > 0:
            self.inflight -= 1

    @property
    def saturated(self) -> bool:
        return self.inflight >= self.write_watermark


@pytest.mark.parametrize("max_inflight,fraction", [
    (4, 0.5), (2, 0.5), (1, 0.75), (48, 0.75), (7, 0.1), (5, 1.0)])
def test_resilience_gate_decides_as_the_controller_did(max_inflight,
                                                       fraction):
    """10 000 seeded acquire(read|write) / release steps: the gate the
    resilience layer builds from (max_inflight, write_shed_fraction)
    admits, sheds and reports saturation exactly as the controller."""
    middleware = ReplicationMiddleware(
        make_replicas(1), MiddlewareConfig(resilience=ResiliencePolicy(
            max_inflight=max_inflight, write_shed_fraction=fraction)))
    gate = middleware.resilience.admission
    reference = _ReferenceController(max_inflight, fraction)
    rng = random.Random(max_inflight * 1009 + int(fraction * 100))
    tickets = []
    for _step in range(10_000):
        op = rng.choice(("read", "write", "release", "release"))
        if op == "release":
            reference.release()
            if tickets:
                tickets.pop(rng.randrange(len(tickets))).finish()
        else:
            ticket, reason = gate.try_admit(
                "commit" if op == "write" else "read")
            assert (ticket is not None) == \
                reference.try_acquire(op == "write")
            if ticket is not None:
                tickets.append(ticket)
            else:
                assert reason == REJECT_QUEUE
        assert gate.pending == reference.inflight
        assert gate.saturated == reference.saturated
    assert gate.total_rejected() > 0 and gate.total_admitted() > 0
