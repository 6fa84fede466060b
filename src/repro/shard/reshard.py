"""Online shard split / merge / rebalance — no quiesce.

A reshard moves one set of keys (a range segment, or an explicit key
set) from a source group to a destination group while writes keep
flowing.  The protocol is the E12 recovery-log join wrapped in a
dual-write window, phase by phase:

1. **snapshot + join point** (:meth:`OnlineReshard.start`, atomic):
   record the source certifier's current seq and read the moving rows
   from a source replica in the same instant — every later change is,
   by construction, in the source recovery log after the join point —
   and install the move's :class:`~repro.shard.router.ForwardingRule`.
   From here to the flip the destination holds copies beside rows of
   its own, so every read that reaches it without being pinned to a key
   carries the rule's "not a moving key" predicate: the copies are
   never counted, the destination's own rows always are.
2. **copy** (:meth:`copy_chunk`, resumable): install the snapshot rows
   into the destination group in bounded chunks, each an ordered
   writeset unit through the destination's own commit sequence
   (``GroupCommitCoordinator.install``: certifier seq, shipped to its HA
   standby, recovery-log entry, applied on every destination replica),
   so the destination stays internally convergent and could itself
   recover — or promote its standby — mid-copy.
3. **catch-up** (:meth:`catch_up`, repeatable): replay the source
   recovery-log tail since the join point, filtered to the moving keys,
   onto the destination — the same join a new replica uses in E12 —
   and advance the join point.  Repeat until the tail is small.
4. **dual-write window** (:meth:`enter_dual_write`, atomic): one final
   catch-up and the rule's switch to dual writes happen in the same
   instant, so from this moment every client write to a moving key is
   a cross-shard 2PC transaction against *both* groups.  Reads of a
   moving key still go to the source (it stays the owner).
5. **flip** (:meth:`flip`, atomic): install the successor shard map
   (version + 1) — instantly re-routing reads and writes to the
   destination and salting every result-cache key — then delete the
   moved rows from the source as one writeset unit and drop the
   forwarding rule.  The flip refuses to run while a write transaction
   opened under the old map is still in flight (the epoch drain): those
   are the only writes that could resurrect a moved row on the source.

At no point is a write rejected because of the reshard, and an
acknowledged commit is never lost: before the window the source owns
the keys outright, inside the window 2PC makes both copies durable, and
after the flip the destination owns them outright.  E29 drives this
under sustained open-loop load and gates on exactly those invariants.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.errors import MiddlewareError
from ..sqlengine import ast_nodes as ast
from .router import ForwardingRule, ShardedCluster
from .shardmap import RangeSharder, canonical_key


class ReshardError(MiddlewareError):
    """A reshard phase was invoked out of order or cannot proceed."""


class OnlineReshard:
    """One live key movement on a :class:`ShardedCluster`.

    Use the factories :meth:`split_range` / :meth:`move_keys`; drive the
    phases yourself (the timed driver interleaves them with load) or
    call :meth:`run` to execute the whole protocol synchronously.
    """

    def __init__(self, cluster: ShardedCluster, table: str,
                 contains: Callable[[Any], bool],
                 staying: Callable[[ast.ColumnRef], ast.Expression],
                 label: str, src: int, dst: int,
                 database: str,
                 mutate_map: Callable[[Any], None],
                 batch_rows: int = 256, user: str = "admin"):
        if src == dst:
            raise ReshardError("source and destination shard are the same")
        self.cluster = cluster
        spec = cluster.map.spec_of(table)
        if spec is None:
            raise ReshardError(f"table {table!r} is not sharded")
        self.spec = spec
        self.table = spec.table
        self.contains = contains
        self.src = src
        self.dst = dst
        self.database = database
        self.mutate_map = mutate_map
        self.batch_rows = batch_rows
        self.user = user
        self.state = "init"
        self._join_seq = 0
        self._pending: List[Dict[str, Any]] = []
        # installed by start(), dropped by flip()
        self._rule = ForwardingRule(self.table, contains, src, dst,
                                    staying, label)
        self._checkpoint = f"reshard:{label}"
        self.stats: Dict[str, int] = {
            "rows_snapshot": 0, "rows_copied": 0, "entries_joined": 0,
            "catchup_rounds": 0, "entries_in_window": 0, "rows_deleted": 0,
            "flip_version": 0,
        }

    # -- factories ------------------------------------------------------

    @classmethod
    def split_range(cls, cluster: ShardedCluster, table: str, bound: Any,
                    dst: int, database: str,
                    **kwargs) -> "OnlineReshard":
        """Split the range segment containing ``bound`` at ``bound`` and
        move the lower half (keys <= bound within the segment) to shard
        ``dst``."""
        spec = cluster.map.spec_of(table)
        if spec is None or not isinstance(spec.sharder, RangeSharder):
            raise ReshardError(
                f"split_range needs a range-sharded table, got {table!r}")
        sharder = spec.sharder
        segment = sharder.segment_for(bound)
        src = sharder.assignments[segment]
        lower = sharder.bounds[segment - 1] if segment > 0 else None

        def contains(value: Any) -> bool:
            if value is None:
                return segment == 0
            if lower is not None and value <= lower:
                return False
            return value <= bound

        def staying(key: ast.ColumnRef) -> ast.Expression:
            # NOT contains(key), NULL-safe: k > bound, or for a later
            # segment k IS NULL OR k <= lower OR k > bound
            above = ast.BinaryOp(">", key, ast.Literal(bound))
            if segment == 0:
                return above
            return _any_of(ast.IsNull(key),
                           ast.BinaryOp("<=", key, ast.Literal(lower)),
                           above)

        def mutate(new_map) -> None:
            new_map.spec_of(table).sharder.split(bound, dst)

        return cls(cluster, table, contains, staying,
                   f"{lower!r}<{spec.key_column}<={bound!r}", src, dst,
                   database, mutate, **kwargs)

    @classmethod
    def move_keys(cls, cluster: ShardedCluster, table: str,
                  keys: Sequence[Any], dst: int, database: str,
                  **kwargs) -> "OnlineReshard":
        """Rebalance an explicit key set (hash-sharded tables move keys
        through per-key overrides).  All keys must currently live on one
        source shard."""
        spec = cluster.map.spec_of(table)
        if spec is None:
            raise ReshardError(f"table {table!r} is not sharded")
        owners = {spec.shard_for(k) for k in keys}
        if len(owners) != 1:
            raise ReshardError(
                f"keys span source shards {sorted(owners)}; move one "
                "source at a time")
        key_set = {canonical_key(k) for k in keys}

        def contains(value: Any) -> bool:
            return canonical_key(value) in key_set

        def staying(key: ast.ColumnRef) -> ast.Expression:
            # NOT contains(key), NULL-safe: k IS NULL OR k NOT IN (...),
            # or k IS NOT NULL AND k NOT IN (...) when NULL itself moves
            others = ast.InList(
                key, [ast.Literal(k) for k in key_set if k is not None],
                negated=True)
            if None in key_set:
                return ast.BinaryOp("AND", ast.IsNull(key, negated=True),
                                    others)
            return _any_of(ast.IsNull(key), others)

        def mutate(new_map) -> None:
            new_spec = new_map.spec_of(table)
            for key in key_set:
                new_spec.move_key(key, dst)

        return cls(cluster, table, contains, staying,
                   f"{spec.key_column} not in {sorted(key_set, key=repr)!r}",
                   next(iter(owners)), dst, database, mutate, **kwargs)

    # -- phase 1: snapshot + join point ---------------------------------

    def start(self) -> int:
        """Atomic: capture the recovery-log join point and the snapshot
        of moving rows in the same instant.  Returns the snapshot size."""
        self._require_state("init")
        cluster = self.cluster
        span = cluster.tracer.start_span(
            "reshard.begin", table=self.table, src=self.src, dst=self.dst)
        source = cluster.groups[self.src]
        self._hold_source_log(source.global_seq)
        self._pending = self._moving_changes("INSERT")
        self.stats["rows_snapshot"] = len(self._pending)
        cluster.forwarding.append(self._rule)
        cluster.map_log.append(
            "reshard_begin", table=self.table, src=self.src, dst=self.dst,
            join_seq=self._join_seq, rows=len(self._pending))
        span.set_tag("rows", len(self._pending))
        span.set_tag("join_seq", self._join_seq)
        span.end()
        self.state = "copying"
        return len(self._pending)

    # -- phase 2: chunked copy ------------------------------------------

    def copy_chunk(self, max_rows: Optional[int] = None) -> int:
        """Install the next snapshot chunk on the destination.  Returns
        the rows installed; 0 means the copy is complete."""
        self._require_state("copying")
        if not self._pending:
            self.state = "copied"
            return 0
        count = max_rows or self.batch_rows
        chunk, self._pending = self._pending[:count], self._pending[count:]
        span = self.cluster.tracer.start_span(
            "reshard.copy", table=self.table, rows=len(chunk),
            remaining=len(self._pending))
        self.cluster.groups[self.dst].group_commit.install(
            chunk, [self.table], user=self.user, database=self.database)
        span.end()
        self.stats["rows_copied"] += len(chunk)
        if not self._pending:
            self.state = "copied"
        return len(chunk)

    # -- phase 3: recovery-log join -------------------------------------

    def catch_up(self) -> int:
        """Replay the source recovery-log tail (since the join point,
        filtered to moving keys) onto the destination; advance the join
        point.  Returns the entries applied this round."""
        self._require_state("copied")
        entries, tail_seq = self._tail_entries()
        if entries:
            span = self.cluster.tracer.start_span(
                "reshard.catchup", table=self.table, entries=len(entries),
                from_seq=self._join_seq, to_seq=tail_seq)
            self.cluster.groups[self.dst].group_commit.install(
                entries, [self.table], user=self.user,
                database=self.database)
            span.end()
        self._hold_source_log(tail_seq)
        self.stats["entries_joined"] += len(entries)
        self.stats["catchup_rounds"] += 1
        return len(entries)

    def _hold_source_log(self, seq: int) -> None:
        """Move the join point.  It is a named checkpoint of the source
        group's recovery log: the tail after it is what the next
        catch-up replays, so log maintenance must leave it alone until
        the flip."""
        self._join_seq = seq
        self.cluster.groups[self.src].group_commit.hold_log(
            self._checkpoint, seq)

    def _tail_entries(self):
        changes, tail_seq = self.cluster.groups[self.src] \
            .group_commit.changes_since(self._join_seq)
        key_column = self.spec.key_column
        filtered: List[Dict[str, Any]] = []
        for change in changes:
            if change["table"] != self.table:
                continue
            values = change.get("new_values") \
                or change.get("old_values") or {}
            if self.contains(values.get(key_column)):
                filtered.append(change)
        return filtered, tail_seq

    # -- phase 4: dual-write window -------------------------------------

    def enter_dual_write(self) -> int:
        """Atomic: final catch-up + the forwarding rule's switch to dual
        writes in one instant.  From here on, every client write to a
        moving key is 2PC'd to both groups, so the destination can never
        fall behind again."""
        self._require_state("copied")
        final = self.catch_up()
        self._rule.dual_write = True
        self.cluster.map_log.append(
            "reshard_dual_write", table=self.table, src=self.src,
            dst=self.dst, join_seq=self._join_seq)
        span = self.cluster.tracer.start_span(
            "reshard.dualwrite", table=self.table, final_catchup=final)
        span.end()
        self.state = "dual_write"
        return final

    # -- phase 5: the flip ----------------------------------------------

    def flip(self) -> int:
        """Atomic ownership transfer: install the successor map (the
        version bump that re-routes *and* re-salts the caches), delete
        the moved rows from the source as one writeset unit, drop the
        forwarding rule.  Returns the new map version.

        Refuses while a write transaction opened under the old routing
        is still in flight — its commit could land a moved row back on
        the source after the delete.  Callers under load retry until
        the pre-flip write epoch has drained (new writes keep flowing
        through the dual-write rule in the meantime)."""
        self._require_state("dual_write")
        cluster = self.cluster
        inflight = cluster.open_write_transactions()
        if inflight:
            raise ReshardError(
                f"{inflight} in-flight write transaction(s) from the "
                "pre-flip epoch; retry the flip after they drain")
        # audit only: entries since the join point were dual-written by
        # the clients themselves, so they are already on the destination
        window_entries, _ = self._tail_entries()
        self.stats["entries_in_window"] = len(window_entries)

        span = cluster.tracer.start_span(
            "reshard.flip", table=self.table, src=self.src, dst=self.dst,
            window_entries=len(window_entries))
        new_map = cluster.map.clone()
        self.mutate_map(new_map)
        cluster.install_map(new_map)
        deletes = self._moving_changes("DELETE")
        if deletes:
            cluster.groups[self.src].group_commit.install(
                deletes, [self.table], user=self.user,
                database=self.database)
        self.stats["rows_deleted"] = len(deletes)
        cluster.forwarding.remove(self._rule)
        cluster.groups[self.src].group_commit.release_log(self._checkpoint)
        cluster.map_log.append(
            "reshard_flip", table=self.table, src=self.src, dst=self.dst,
            version=new_map.version, rows_deleted=len(deletes))
        span.set_tag("version", new_map.version)
        span.end()
        self.stats["flip_version"] = new_map.version
        self.state = "done"
        return new_map.version

    # -- convenience ----------------------------------------------------

    def run(self) -> Dict[str, int]:
        """The whole protocol, synchronously (tests and small moves)."""
        self.start()
        while self.state == "copying":
            self.copy_chunk()
        self.catch_up()
        self.enter_dual_write()
        self.flip()
        return dict(self.stats)

    # -- helpers --------------------------------------------------------

    def _require_state(self, expected: str) -> None:
        if self.state != expected:
            raise ReshardError(
                f"phase requires state {expected!r}, but the reshard is "
                f"in state {self.state!r}")

    def _read_source_rows(self):
        source = self.cluster.groups[self.src]
        session = source.connect(user=self.user, database=self.database)
        try:
            result = session.execute(f"SELECT * FROM {self.table}")
            return result.rows, result.columns
        finally:
            session.close()

    def _pk_columns(self, source) -> List[str]:
        engine = source.online_replicas()[0].engine
        table = engine.database(self.database).table(self.table)
        return [c.name.lower() for c in table.primary_key_columns]

    def _moving_changes(self, op: str) -> List[Dict[str, Any]]:
        """One writeset change per moving row as the source holds it now:
        ``INSERT`` images for the snapshot copy, ``DELETE`` images for
        the clean-up after the flip."""
        rows, columns = self._read_source_rows()
        pk_columns = self._pk_columns(self.cluster.groups[self.src])
        lowered = [c.lower() for c in columns]
        key_index = lowered.index(self.spec.key_column)
        inserting = op == "INSERT"
        entries = []
        for row in rows:
            if not self.contains(row[key_index]):
                continue
            values = dict(zip(lowered, row))
            entries.append({
                "database": self.database, "table": self.table, "op": op,
                "primary_key": tuple(values.get(c) for c in pk_columns),
                "old_values": None if inserting else values,
                "new_values": values if inserting else None,
            })
        return entries


def _any_of(*terms: ast.Expression) -> ast.Expression:
    combined = terms[0]
    for term in terms[1:]:
        combined = ast.BinaryOp("OR", combined, term)
    return combined
