"""Load balancer and certifier unit tests."""

import pytest

from repro.core import (
    BalancingLevel, Certifier, CertifierDown, LeastPendingPolicy,
    LoadBalancer, MemoryAwarePolicy, NoReplicaAvailable, RandomPolicy,
    Replica, RoundRobinPolicy, RoutingContext, WeightedPolicy,
)
from repro.sqlengine import Engine


def make_replica(name, weight=1.0):
    engine = Engine(name)
    engine.create_database("shop")
    return Replica(name, engine, weight=weight)


@pytest.fixture
def replicas():
    return [make_replica(f"r{i}") for i in range(3)]


class TestPolicies:
    def test_round_robin_cycles(self, replicas):
        policy = RoundRobinPolicy()
        context = RoutingContext()
        picks = [policy.choose(replicas, context).name for _ in range(6)]
        assert picks == ["r0", "r1", "r2", "r0", "r1", "r2"]

    def test_random_deterministic_with_seed(self, replicas):
        context = RoutingContext()
        a = [RandomPolicy(seed=5).choose(replicas, context).name
             for _ in range(10)]
        b = [RandomPolicy(seed=5).choose(replicas, context).name
             for _ in range(10)]
        assert a == b

    def test_weighted_respects_weights(self):
        heavy = make_replica("heavy", weight=10.0)
        light = make_replica("light", weight=1.0)
        policy = WeightedPolicy(seed=3)
        context = RoutingContext()
        picks = [policy.choose([heavy, light], context).name
                 for _ in range(200)]
        assert picks.count("heavy") > picks.count("light") * 3

    def test_lprf_picks_least_loaded(self, replicas):
        from repro.core import ApplyItem, ApplyUnit
        replicas[0].enqueue(ApplyItem([ApplyUnit(1, [])]))
        replicas[0].enqueue(ApplyItem([ApplyUnit(2, [])]))
        replicas[1].enqueue(ApplyItem([ApplyUnit(1, [])]))
        policy = LeastPendingPolicy()
        assert policy.choose(replicas, RoutingContext()).name == "r2"

    def test_memory_aware_prefers_hot_replica(self, replicas):
        policy = MemoryAwarePolicy()
        context_a = RoutingContext(tables=["shop.tenant_1"])
        first = policy.choose(replicas, context_a)
        # same tables again: must go back to the replica that is now hot
        again = policy.choose(replicas, context_a)
        assert again.name == first.name
        # different tables go elsewhere (spread working sets)
        context_b = RoutingContext(tables=["shop.tenant_2"])
        other = policy.choose(replicas, context_b)
        assert other.name != first.name or len(replicas) == 1


class TestLoadBalancer:
    def test_skips_failed_replicas(self, replicas):
        balancer = LoadBalancer(RoundRobinPolicy())
        replicas[0].mark_failed()
        picks = {balancer.choose(replicas, RoutingContext()).name
                 for _ in range(6)}
        assert "r0" not in picks

    def test_no_replica_available(self, replicas):
        balancer = LoadBalancer()
        for replica in replicas:
            replica.mark_failed()
        with pytest.raises(NoReplicaAvailable):
            balancer.choose(replicas, RoutingContext())

    def test_connection_level_sticky(self, replicas):
        balancer = LoadBalancer(RoundRobinPolicy(),
                                BalancingLevel.CONNECTION)
        context = RoutingContext(session_id=7)
        picks = {balancer.choose(replicas, context).name for _ in range(5)}
        assert len(picks) == 1

    def test_transaction_level_unsticks_at_commit(self, replicas):
        balancer = LoadBalancer(RoundRobinPolicy(),
                                BalancingLevel.TRANSACTION)
        context = RoutingContext(session_id=7)
        first = balancer.choose(replicas, context).name
        assert balancer.choose(replicas, context).name == first
        balancer.end_transaction(7)
        second = balancer.choose(replicas, context).name
        assert second != first

    def test_failover_forgets_sticky(self, replicas):
        balancer = LoadBalancer(RoundRobinPolicy(),
                                BalancingLevel.CONNECTION)
        context = RoutingContext(session_id=1)
        first = balancer.choose(replicas, context).name
        balancer.forget_replica(first)
        for replica in replicas:
            if replica.name == first:
                replica.mark_failed()
        assert balancer.choose(replicas, context).name != first

    def test_query_level_spreads(self, replicas):
        balancer = LoadBalancer(RoundRobinPolicy(), BalancingLevel.QUERY)
        context = RoutingContext(session_id=7)
        picks = {balancer.choose(replicas, context).name for _ in range(3)}
        assert len(picks) == 3


class TestCertifier:
    def test_assigns_increasing_seq(self):
        certifier = Certifier()
        outcome1 = certifier.certify(0, frozenset({("d", "t", (1,))}))
        outcome2 = certifier.certify(0, frozenset({("d", "t", (2,))}))
        assert outcome1.ok and outcome2.ok
        assert outcome2.seq == outcome1.seq + 1

    def test_first_committer_wins(self):
        certifier = Certifier()
        keys = frozenset({("d", "t", (1,))})
        first = certifier.certify(0, keys)
        second = certifier.certify(0, keys)  # same snapshot -> conflict
        assert first.ok and not second.ok
        assert second.conflict_seq == first.seq

    def test_non_overlapping_keys_pass(self):
        certifier = Certifier()
        certifier.certify(0, frozenset({("d", "t", (1,))}))
        outcome = certifier.certify(0, frozenset({("d", "t", (2,))}))
        assert outcome.ok

    def test_later_snapshot_sees_no_conflict(self):
        certifier = Certifier()
        keys = frozenset({("d", "t", (1,))})
        first = certifier.certify(0, keys)
        outcome = certifier.certify(first.seq, keys)
        assert outcome.ok

    def test_table_level_footprint_conflicts_with_rows(self):
        certifier = Certifier()
        certifier.certify(0, frozenset({("d", "t", (1,))}))
        outcome = certifier.certify(0, frozenset({("d", "t", None)}))
        assert not outcome.ok

    def test_first_committer_wins_disabled(self):
        certifier = Certifier(first_committer_wins=False)
        keys = frozenset({("d", "t", (1,))})
        assert certifier.certify(0, keys).ok
        assert certifier.certify(0, keys).ok  # lost update allowed

    def test_centralized_failure_loses_state(self):
        certifier = Certifier(replicated=False)
        certifier.certify(0, frozenset({("d", "t", (1,))}))
        certifier.fail()
        with pytest.raises(CertifierDown):
            certifier.certify(0, frozenset())
        certifier.recover(rebuild_from_replicas=1)
        # log was lost: the old conflict is no longer detectable
        outcome = certifier.certify(0, frozenset({("d", "t", (1,))}))
        assert outcome.ok

    def test_replicated_certifier_survives(self):
        certifier = Certifier(replicated=True)
        keys = frozenset({("d", "t", (1,))})
        certifier.certify(0, keys)
        certifier.fail()
        certifier.recover()
        outcome = certifier.certify(0, keys)
        assert not outcome.ok  # standby log preserved the conflict

    def test_prune(self):
        certifier = Certifier()
        for key in range(10):
            certifier.certify(0, frozenset({("d", "t", (key,))}))
        removed = certifier.prune(5)
        assert removed == 5
        assert certifier.log_length() == 5
