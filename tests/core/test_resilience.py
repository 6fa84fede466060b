"""Request-resilience layer tests: deadlines, retry policies, circuit
breakers, admission control and the coordinator wired through a cluster
(sections 4.3.3 and 5.1 — the middleware's degraded modes)."""

import pytest

from repro.core import (
    BreakerState, CircuitBreaker, Deadline,
    FailoverManager, MiddlewareConfig, Monitor, Overloaded,
    ReplicationMiddleware, RequestTimeout, ResiliencePolicy, RetryExhausted,
    RetryPolicy, protocol_by_name,
)

from repro.core.admission import REJECT_QUEUE

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


class ManualClock:
    """An injectable clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def resilient_cluster(n=3, policy=None, consistency="gsi",
                      propagation="sync", monitor=None):
    replicas = make_replicas(n, schema=KV_SCHEMA)
    policy = policy or ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4, jitter=0.0))
    mw = ReplicationMiddleware(
        replicas,
        MiddlewareConfig(replication="writeset", propagation=propagation,
                         consistency=protocol_by_name(consistency),
                         resilience=policy),
        monitor=monitor)
    seed_kv(mw, rows=5)
    mw.pump()
    return mw


def kill(replica):
    replica.engine.crash()
    replica.mark_failed()


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_expiry_against_injected_clock(self):
        clock = ManualClock()
        deadline = Deadline(clock, budget=2.0)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(2.0)
        deadline.check()  # no raise
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(RequestTimeout):
            deadline.check("query")


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0,
                             max_backoff=0.5, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(base_backoff=0.1, jitter=0.25, seed=7)
        b = RetryPolicy(base_backoff=0.1, jitter=0.25, seed=7)
        other = RetryPolicy(base_backoff=0.1, jitter=0.25, seed=8)
        schedule = [a.backoff(n, key=42) for n in range(1, 6)]
        assert schedule == [b.backoff(n, key=42) for n in range(1, 6)]
        assert schedule != [other.backoff(n, key=42) for n in range(1, 6)]
        for attempt in range(1, 6):
            raw = min(0.1 * 2.0 ** (attempt - 1), a.max_backoff)
            value = a.backoff(attempt, key=42)
            assert raw * 0.75 <= value <= raw * 1.25

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.spent(1)
        assert not policy.spent(2)
        assert policy.spent(3)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def make(self, **kw):
        clock = ManualClock()
        breaker = CircuitBreaker("r0", clock=clock, failure_threshold=3,
                                 recovery_time=5.0, half_open_probes=1, **kw)
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats["trips"] == 1

    def test_success_resets_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_until_recovery_window(self):
        breaker, clock = self.make()
        breaker.force_open()
        assert not breaker.allow()
        assert breaker.stats["rejections"] == 1
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)  # recovery_time elapsed
        assert breaker.allow()  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_bounds_probes(self):
        breaker, clock = self.make()
        breaker.force_open()
        clock.advance(5.0)
        assert breaker.allow()       # probe 1 admitted
        assert not breaker.allow()   # probe budget spent
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats["closes"] == 1
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_clock(self):
        breaker, clock = self.make()
        breaker.force_open()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()     # the probe died
        assert breaker.state is BreakerState.OPEN
        clock.advance(3.0)           # recovery clock restarted at t=5
        assert not breaker.allow()
        clock.advance(2.5)
        assert breaker.allow()

    def test_transition_listener_fires(self):
        breaker, _ = self.make()
        seen = []
        breaker.on_transition(lambda b: seen.append(b.state))
        breaker.force_open()
        breaker.record_success()
        assert seen == [BreakerState.OPEN, BreakerState.CLOSED]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmissionController:
    """What the deleted ``AdmissionController``'s tests checked, with the
    same numbers, on the gate the resilience layer builds from the same
    two policy values."""

    @staticmethod
    def gate(**bounds):
        return resilient_cluster(n=2, policy=ResiliencePolicy(
            retry=RetryPolicy(jitter=0.0), **bounds)).resilience.admission

    def test_write_first_shedding(self):
        admission = self.gate(max_inflight=4, write_shed_fraction=0.5)
        assert admission.classes["commit"].pending_limit == 2
        assert admission.try_admit("commit")[0] is not None
        assert admission.try_admit("commit")[0] is not None
        # writes shed at the watermark, reads keep flowing to the hard cap
        assert admission.try_admit("commit") == (None, REJECT_QUEUE)
        assert admission.rejected["commit"] == {REJECT_QUEUE: 1}
        assert admission.saturated
        assert admission.try_admit("read")[0] is not None
        assert admission.try_admit("read")[0] is not None
        assert admission.try_admit("read") == (None, REJECT_QUEUE)
        assert admission.rejected["read"] == {REJECT_QUEUE: 1}
        assert admission.peak_pending == 4

    def test_release_reopens_admission(self):
        admission = self.gate(max_inflight=1)
        ticket = admission.admit("read")
        with pytest.raises(Overloaded) as excinfo:
            admission.admit("read")
        assert (excinfo.value.kind, excinfo.value.reason) == \
            ("read", REJECT_QUEUE)
        ticket.finish()
        admission.admit("read")  # no raise
        assert admission.pending == 1


# ---------------------------------------------------------------------------
# the coordinator wired through a live cluster
# ---------------------------------------------------------------------------

class TestResilientCluster:
    def test_write_retry_rides_out_promotion(self):
        """An autocommit write against a dead master is retried until the
        failure detector promotes a survivor — the client never sees the
        outage (section 4.3.3 made transparent)."""
        mw = resilient_cluster(n=2, consistency="rsi-pc")
        manager = FailoverManager(mw)
        kill(mw.replicas[0])

        def promote_on_retry(event):
            if event.kind == "retry" and mw.master.name == "r0":
                manager.handle_replica_failure("r0")

        mw.monitor.on_event(promote_on_retry)
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 7 WHERE k = 0")
        assert session.execute("SELECT v FROM kv WHERE k = 0").scalar() == 7
        session.close()
        assert mw.master.name == "r1"
        assert mw.resilience.stats["retries"] >= 1
        # backoff time was accumulated for the timed layer, not slept
        assert session.pending_backoff > 0
        assert mw.resilience.consume_backoff(session) > 0
        assert session.pending_backoff == 0.0

    def test_a_retry_owes_its_backoff_to_its_own_session(self):
        """A retry's backoff is charged to the retrying session's own
        request, never to another session's: a chaos probe's retries
        must not delay a client request."""
        mw = resilient_cluster(n=2, consistency="rsi-pc")
        manager = FailoverManager(mw)
        kill(mw.replicas[0])

        def promote_on_retry(event):
            if event.kind == "retry" and mw.master.name == "r0":
                manager.handle_replica_failure("r0")

        mw.monitor.on_event(promote_on_retry)
        probe = mw.connect(database="shop")
        other = mw.connect(database="shop")
        probe.execute("UPDATE kv SET v = 7 WHERE k = 0")
        assert other.execute("SELECT v FROM kv WHERE k = 1").scalar() == 0
        assert mw.resilience.stats["retries"] >= 1
        assert mw.resilience.consume_backoff(other) == 0.0
        assert mw.resilience.consume_backoff(probe) > 0
        probe.close()
        other.close()

    def test_midtxn_replay_on_survivor(self):
        """The local replica dies mid-transaction: logged statements are
        replayed on a survivor and the transaction commits."""
        mw = resilient_cluster(n=3)
        session = mw.connect(database="shop")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 5 WHERE k = 0")
        kill(mw.replica_by_name(session.txn.local_replica))
        session.execute("UPDATE kv SET v = 6 WHERE k = 1")
        session.execute("COMMIT")
        assert session.execute("SELECT v FROM kv WHERE k = 0").scalar() == 5
        assert session.execute("SELECT v FROM kv WHERE k = 1").scalar() == 6
        session.close()
        assert mw.resilience.stats["replays"] == 1
        assert mw.monitor.count("txn_replayed") == 1

    def test_ambiguous_commit_never_retried(self):
        """A commit that fails with a connection-class error has an
        ambiguous outcome: the layer refuses to retry it (section 4.3.3)
        and flags the error so outer retry layers refuse too."""
        mw = resilient_cluster(n=3)
        session = mw.connect(database="shop")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 8 WHERE k = 2")
        kill(mw.replica_by_name(session.txn.local_replica))
        with pytest.raises(RetryExhausted) as excinfo:
            session.execute("COMMIT")
        assert excinfo.value.ambiguous and excinfo.value.retry == "fatal"
        assert not session.in_transaction  # torn down, session reusable
        assert mw.resilience.stats["retry_exhausted"] == 1
        assert session.execute("SELECT v FROM kv WHERE k = 2").scalar() == 0
        session.close()

    def test_commit_replay_when_opted_in(self):
        """retry_commits=True: the snapshot is replayed on a survivor and
        applied exactly once."""
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=4, jitter=0.0, retry_commits=True))
        mw = resilient_cluster(n=3, policy=policy)
        session = mw.connect(database="shop")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 3")
        kill(mw.replica_by_name(session.txn.local_replica))
        session.execute("COMMIT")  # replayed, no error
        assert session.execute("SELECT v FROM kv WHERE k = 3").scalar() == 1
        session.close()
        assert mw.resilience.stats["replays"] == 1

    def test_breaker_ejects_replica_from_read_candidacy(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, jitter=0.0),
            breaker_recovery_time=1000.0)
        mw = resilient_cluster(n=3, policy=policy)
        mw.resilience.breaker("r1").force_open()
        ejected = mw.replica_by_name("r1")
        before = ejected.stats["served_reads"]
        session = mw.connect(database="shop")
        for _ in range(6):
            session.execute("SELECT v FROM kv WHERE k = 0")
        assert ejected.stats["served_reads"] == before
        # every breaker open -> no candidate survives the health veto;
        # the retry budget drains and the client sees RetryExhausted
        mw.resilience.breaker("r0").force_open()
        mw.resilience.breaker("r2").force_open()
        with pytest.raises(RetryExhausted):
            session.execute("SELECT v FROM kv WHERE k = 0")
        session.close()
        assert mw.resilience.breakers["r1"].stats["rejections"] > 0

    def test_replica_failure_trips_breaker_failback_closes_it(self):
        mw = resilient_cluster(n=3)
        kill(mw.replica_by_name("r2"))
        assert mw.resilience.breakers["r2"].state is BreakerState.OPEN
        FailoverManager(mw).failback("r2")
        # failback's verified resync outranks the breaker's probe evidence
        assert mw.resilience.breakers["r2"].state is BreakerState.CLOSED

    def test_admission_sheds_through_execute(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(jitter=0.0), max_inflight=2,
            write_shed_fraction=0.5)
        mw = resilient_cluster(n=2, policy=policy)
        session = mw.connect(database="shop")
        admission = mw.resilience.admission
        held = [admission.admit("read")]  # a concurrent request's ticket
        with pytest.raises(Overloaded) as excinfo:
            session.execute("UPDATE kv SET v = 1 WHERE k = 0")  # watermark
        assert (excinfo.value.kind, excinfo.value.reason) == \
            ("commit", REJECT_QUEUE)
        result = session.execute("SELECT v FROM kv WHERE k = 0")
        assert result.scalar() == 0
        held.append(admission.admit("read"))  # now at the hard cap
        with pytest.raises(Overloaded):
            session.execute("SELECT v FROM kv WHERE k = 0")
        # a driver that already holds a ticket bypasses re-admission
        session._admission_held = True
        assert session.execute("SELECT v FROM kv WHERE k = 0").scalar() == 0
        session.close()
        for ticket in held:
            ticket.finish()
        assert admission.pending == 0
        assert admission.snapshot()["rejected"] == {
            "read": {REJECT_QUEUE: 1}, "commit": {REJECT_QUEUE: 1}}

    def test_degraded_stale_read_when_master_down(self):
        """Master down + every slave lagging: a bounded-staleness read is
        served instead of queueing behind a freshness wait."""
        mw = resilient_cluster(n=2, consistency="rsi-pc",
                               propagation="async")
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 7 WHERE k = 0")
        kill(mw.replicas[0])  # the master dies before r1 applies the update
        waits_before = mw.stats["freshness_waits"]
        value = session.execute("SELECT v FROM kv WHERE k = 0").scalar()
        assert value == 0  # stale by design
        assert mw.resilience.stats["degraded_reads"] == 1
        assert mw.stats["freshness_waits"] == waits_before
        assert mw.monitor.count("degraded_read") == 1
        session.close()

    def test_deadline_bounds_the_retry_storm(self):
        """With the master dead and nobody promoting, the deadline turns an
        unbounded retry into a prompt RequestTimeout."""
        clock = ManualClock()
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=10, base_backoff=1.0, jitter=0.0),
            request_timeout=0.5)
        mw = resilient_cluster(n=2, consistency="rsi-pc", policy=policy,
                               monitor=Monitor(time_source=clock))
        kill(mw.replicas[0])
        session = mw.connect(database="shop")
        with pytest.raises(RequestTimeout):
            session.execute("UPDATE kv SET v = 9 WHERE k = 0")
        assert mw.resilience.stats["timeouts"] == 1
        assert session.deadline is None  # implicit deadline cleaned up
        session.close()

    def test_execute_releases_admission_and_deadline(self):
        policy = ResiliencePolicy(retry=RetryPolicy(jitter=0.0),
                                  request_timeout=10.0)
        mw = resilient_cluster(n=2, policy=policy)
        session = mw.connect(database="shop")
        session.execute("SELECT v FROM kv WHERE k = 0")
        assert session.deadline is None
        assert mw.resilience.admission.pending == 0
        assert mw.resilience.admission.total_admitted() > 0
        session.close()
