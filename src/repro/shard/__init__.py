"""Horizontal shard tier: middleware-owned shard maps, cross-shard 2PC
commits, and online no-quiesce resharding (see ``docs/SHARDING.md``).
"""

from .merge import ScatterPlan, plan_scatter
from .reshard import OnlineReshard, ReshardError
from .router import ForwardingRule, ShardedCluster, ShardedSession
from .shardmap import (HashSharder, MapLogRecord, RangeSharder, ShardMap,
                       ShardMapLog, ShardSpec, Sharder, stable_hash)
from .twopc import TwoPCCoordinator

__all__ = [
    "ScatterPlan", "plan_scatter",
    "OnlineReshard", "ReshardError",
    "ForwardingRule", "ShardedCluster", "ShardedSession",
    "HashSharder", "MapLogRecord", "RangeSharder", "ShardMap",
    "ShardMapLog", "ShardSpec", "Sharder", "stable_hash",
    "TwoPCCoordinator",
]
