"""``repro.core`` — the replication middleware (the paper's subject).

Entry point: build :class:`~repro.core.replica.Replica` objects around
engines, configure a :class:`~repro.core.middleware.MiddlewareConfig`, and
create a :class:`~repro.core.middleware.ReplicationMiddleware`.  Sessions
obtained from :meth:`ReplicationMiddleware.connect` speak plain SQL.
"""

from .admission import (
    AdmissionGate, BulkheadLane, TokenBucket, default_gate,
)
from .analysis import StatementInfo, analyze, rewrite_nondeterministic
from .autonomic import (
    AutonomicDecision, AutonomicProvisioner, SyncPrediction,
    SyncTimePredictor,
)
from .backup import BackupCoordinator, ClusterBackup
from .certifier import CertificationOutcome, Certifier
from .consistency import (
    ClusterView, ConsistencyProtocol, EventualConsistency,
    GeneralizedSnapshotIsolation, OneCopySerializability, PROTOCOLS,
    PrefixConsistentSnapshotIsolation, ReadCommitted,
    ReplicatedSnapshotIsolationPrimaryCopy, SessionView,
    StrongSessionSnapshotIsolation, StrongSnapshotIsolation,
    protocol_by_name,
)
from .costmodel import CostModel, default_cost_model
from .errors import (
    CertifierDown, CircuitOpen, ClusterDivergence, LogTruncatedError,
    MiddlewareDown, MiddlewareError, NoReplicaAvailable, Overloaded,
    QuorumLost, ReplicaUnavailable, RequestTimeout, RetryExhausted,
    UnsupportedStatementError, retry_label,
)
from .applysched import ApplyUnit, conflict_groups, lane_makespan
from .failover import FailoverManager, FailoverReport, VirtualIP, promote_and_switch
from .groupcommit import CommitRequest, GroupCommitCoordinator
from .interception import (
    DESIGNS, DriverInterception, EngineInterception, InterceptionDesign,
    ProtocolProxyInterception, design_by_name,
)
from .loadbalancer import (
    BalancingLevel, LeastPendingPolicy, LoadBalancer, MemoryAwarePolicy,
    POLICIES, Policy, RandomPolicy, RoundRobinPolicy,
    RoutingContext, WeightedPolicy,
)
from .management import ClusterManager, ManagementReport
from .middleware import MiddlewareConfig, MiddlewareSession, ReplicationMiddleware
from .monitoring import Monitor, MonitorEvent
from .quorum import QuorumGuard, ReconciliationReport, Reconciler, RowDifference
from .recoverylog import RecoveryLog, RecoveryLogEntry
from .replica import ApplyItem, Replica, ReplicaState
from .resilience import (
    BreakerState, CircuitBreaker, Deadline,
    ResilienceCoordinator, ResiliencePolicy, RetryPolicy,
)
from .sessions import ConnectionPool, MultiPool, TransactionContext
from .wan import Site, WanSession, WanSystem
from .writesets import (
    ApplyReport, TriggerBasedExtractor, apply_writeset, conflict_keys,
    extract_writeset_engine,
)

__all__ = [
    "AdmissionGate",
    "ApplyItem", "ApplyReport", "ApplyUnit", "BulkheadLane", "TokenBucket",
    "default_gate",
    "AutonomicDecision",
    "AutonomicProvisioner", "SyncPrediction", "SyncTimePredictor", "BackupCoordinator", "BalancingLevel",
    "BreakerState", "CertificationOutcome", "Certifier", "CertifierDown",
    "CircuitBreaker", "CircuitOpen", "ClusterBackup",
    "ClusterDivergence", "ClusterManager", "ClusterView", "CommitRequest",
    "ConnectionPool",
    "ConsistencyProtocol", "CostModel", "DESIGNS", "Deadline",
    "DriverInterception",
    "EngineInterception", "EventualConsistency", "FailoverManager",
    "FailoverReport", "GeneralizedSnapshotIsolation",
    "GroupCommitCoordinator",
    "InterceptionDesign", "LeastPendingPolicy",
    "LoadBalancer", "LogTruncatedError", "ManagementReport",
    "MemoryAwarePolicy",
    "MiddlewareConfig", "MiddlewareDown", "MiddlewareError",
    "MiddlewareSession", "Monitor", "MonitorEvent", "MultiPool",
    "NoReplicaAvailable", "OneCopySerializability", "Overloaded",
    "POLICIES", "PROTOCOLS",
    "Policy", "PrefixConsistentSnapshotIsolation",
    "ProtocolProxyInterception", "QuorumGuard", "QuorumLost", "RandomPolicy",
    "ReadCommitted", "ReconciliationReport",
    "Reconciler", "RecoveryLog", "RecoveryLogEntry", "Replica",
    "ReplicaState", "ReplicaUnavailable",
    "ReplicatedSnapshotIsolationPrimaryCopy", "ReplicationMiddleware",
    "RequestTimeout", "ResilienceCoordinator", "ResiliencePolicy",
    "RetryExhausted", "RetryPolicy",
    "RoundRobinPolicy", "RoutingContext", "RowDifference", "SessionView",
    "Site", "StatementInfo", "StrongSessionSnapshotIsolation",
    "StrongSnapshotIsolation", "TransactionContext",
    "TriggerBasedExtractor", "UnsupportedStatementError", "VirtualIP",
    "WanSession", "WanSystem", "WeightedPolicy", "analyze", "apply_writeset",
    "conflict_groups", "conflict_keys", "default_cost_model", "design_by_name",
    "extract_writeset_engine", "lane_makespan", "promote_and_switch",
    "protocol_by_name", "retry_label",
    "rewrite_nondeterministic",
]
