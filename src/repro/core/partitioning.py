"""Data partitioning across replica groups (Figure 2 of the paper).

"Data is logically split into different partitions, each one being
replicated ...  The benefits of this approach are similar to RAID-0 for
disks: updates can be done in parallel to partitioned data segments.  Read
latency can also be improved by exploiting intra-query parallelism."

A :class:`PartitionedCluster` owns N partition groups (each its own
:class:`ReplicationMiddleware`).  Tables registered with a partitioner
route by key; unregistered ("global") tables are broadcast to every group.
Queries whose WHERE clause pins the partition key go to one group; others
scatter-gather, with the basic aggregate merges (COUNT/SUM) done at the
middleware — the distributed-joins limitation of section 5.1 is surfaced
as an explicit error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..sqlengine import ast_nodes as ast
from ..sqlengine.executor import Result
from ..sqlengine.parser import parse_script
from .analysis import analyze
from .errors import MiddlewareError, UnsupportedStatementError
from .keyplan import compile_where_plan, literal_value
from .middleware import ReplicationMiddleware


class Partitioner:
    """Maps a partition-key value to a partition index."""

    kind = "base"

    def __init__(self, partitions: int):
        self.partitions = partitions

    def partition_for(self, value: Any) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    kind = "hash"

    def partition_for(self, value: Any) -> int:
        # stable across runs (no PYTHONHASHSEED dependence for ints/strs)
        if isinstance(value, int):
            return value % self.partitions
        if isinstance(value, str):
            acc = 0
            for ch in value:
                acc = (acc * 131 + ord(ch)) % 1000000007
            return acc % self.partitions
        return abs(hash(value)) % self.partitions


class RangePartitioner(Partitioner):
    """``bounds`` are the inclusive upper bounds of the first N-1
    partitions: bounds=[100, 200] -> [..100], (100..200], (200..]."""

    kind = "range"

    def __init__(self, bounds: Sequence[Any]):
        super().__init__(len(bounds) + 1)
        self.bounds = list(bounds)

    def partition_for(self, value: Any) -> int:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)


class ListPartitioner(Partitioner):
    """Explicit value lists per partition, e.g. geographic regions."""

    kind = "list"

    def __init__(self, value_lists: Sequence[Sequence[Any]]):
        super().__init__(len(value_lists))
        self._map: Dict[Any, int] = {}
        for index, values in enumerate(value_lists):
            for value in values:
                self._map[value] = index

    def partition_for(self, value: Any) -> int:
        if value not in self._map:
            raise MiddlewareError(
                f"value {value!r} not assigned to any list partition")
        return self._map[value]


class PartitionedTable:
    __slots__ = ("table", "key_column", "partitioner")

    def __init__(self, table: str, key_column: str, partitioner: Partitioner):
        self.table = table.lower()
        self.key_column = key_column.lower()
        self.partitioner = partitioner


class PartitionedCluster:
    """Figure 2: partitions, each replicated by its own middleware."""

    def __init__(self, groups: Sequence[ReplicationMiddleware],
                 name: str = "partitioned"):
        if not groups:
            raise ValueError("need at least one partition group")
        self.name = name
        self.groups: List[ReplicationMiddleware] = list(groups)
        self.tables: Dict[str, PartitionedTable] = {}
        self.stats = {"single_partition": 0, "scatter_gather": 0,
                      "broadcast_writes": 0}

    def register_table(self, table: str, key_column: str,
                       partitioner: Partitioner) -> None:
        if partitioner.partitions != len(self.groups):
            raise ValueError(
                f"partitioner has {partitioner.partitions} partitions but "
                f"cluster has {len(self.groups)} groups")
        self.tables[table.lower()] = PartitionedTable(
            table, key_column, partitioner)

    def connect(self, user: str = "admin", password: str = "",
                database: Optional[str] = None) -> "PartitionedSession":
        sessions = [g.connect(user, password, database) for g in self.groups]
        return PartitionedSession(self, sessions)

    def pump(self) -> int:
        return sum(g.pump() for g in self.groups)

    def check_convergence(self) -> bool:
        return all(g.check_convergence() for g in self.groups)


class PartitionedSession:
    """A client session over the partitioned cluster."""

    def __init__(self, cluster: PartitionedCluster, sessions):
        self.cluster = cluster
        self.sessions = sessions
        self.closed = False

    def execute(self, sql: str, params: Optional[List[Any]] = None) -> Result:
        result = Result()
        for statement in parse_script(sql):
            result = self._execute_one(statement, sql, list(params or []))
        return result

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.closed = True

    def __enter__(self) -> "PartitionedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _execute_one(self, statement: ast.Statement, sql_text: str,
                     params: List[Any]) -> Result:
        info = analyze(statement)
        table, spec = self._partitioned_table_of(info)

        if info.is_ddl or spec is None:
            # global table or DDL: all groups must see it
            if info.is_write or info.is_ddl:
                self.cluster.stats["broadcast_writes"] += 1
                result = Result()
                for session in self.sessions:
                    result = session.execute(sql_text, params)
                return result
            # read of a global table: any one group
            return self.sessions[0].execute(sql_text, params)

        targets = self._route(statement, spec, params)
        if targets is None:
            if info.is_write:
                raise UnsupportedStatementError(
                    f"write to partitioned table {spec.table!r} without a "
                    "partition-key predicate would need cross-partition "
                    "coordination (section 5.1: open problem)")
            self.cluster.stats["scatter_gather"] += 1
            return self._scatter_gather(statement, sql_text, params,
                                        self.sessions)
        if len(targets) == 1:
            self.cluster.stats["single_partition"] += 1
            return self.sessions[targets[0]].execute(sql_text, params)
        if info.is_write:
            raise UnsupportedStatementError(
                "a single write statement may not span partitions")
        self.cluster.stats["scatter_gather"] += 1
        return self._scatter_gather(statement, sql_text, params,
                                    [self.sessions[t] for t in targets])

    def _partitioned_table_of(self, info):
        for table in info.all_tables():
            short = table.split(".")[-1]
            if short in self.cluster.tables:
                return short, self.cluster.tables[short]
        return None, None

    # -- routing -------------------------------------------------------------

    def _route(self, statement: ast.Statement, spec: PartitionedTable,
               params: List[Any]) -> Optional[List[int]]:
        """Partition indices this statement pins, or None for 'all'."""
        if isinstance(statement, ast.InsertStatement):
            return self._route_insert(statement, spec, params)
        plan = compile_where_plan(statement, spec.table, spec.key_column)
        values = plan(params) if plan is not None else None
        if values is None:
            return None
        indices = sorted({
            spec.partitioner.partition_for(value) for value in values})
        return indices

    def _route_insert(self, statement: ast.InsertStatement,
                      spec: PartitionedTable,
                      params: List[Any]) -> Optional[List[int]]:
        if statement.columns is None or statement.rows is None:
            return None
        lowered = [c.lower() for c in statement.columns]
        if spec.key_column not in lowered:
            return None
        key_index = lowered.index(spec.key_column)
        indices = set()
        for row in statement.rows:
            expr = row[key_index]
            value = literal_value(expr, params)
            if value is None:
                return None
            indices.add(spec.partitioner.partition_for(value))
        return sorted(indices)

    # -- scatter-gather ----------------------------------------------------------

    @staticmethod
    def _scatter_gather(statement: ast.Statement, sql_text: str,
                        params: List[Any], sessions) -> Result:
        """Execute on every target group and merge through the shared
        scatter planner (``repro.shard.merge``) — the same code path the
        shard tier's router uses, so AVG is rewritten to SUM + COUNT and
        LIMIT/OFFSET are re-applied after the cross-partition ORDER BY
        re-sort instead of being (wrongly) trusted per partition."""
        # function-level import: repro.core.__init__ imports this module
        # eagerly, and repro.shard imports repro.core
        from ..shard.merge import plan_scatter
        plan = plan_scatter(statement, sql_text, params)
        results = [
            session.execute_one_parsed(plan.statement, plan.sql_text,
                                       params)
            for session in sessions
        ]
        return plan.merge(results)
