"""The shard-aware router: the client-facing tier in front of N
replication groups.

A :class:`ShardedCluster` owns the versioned :class:`ShardMap`, the
shard-map log, the 2PC coordinator and the (reshard-managed) forwarding
rules; a :class:`ShardedSession` resolves every statement against the
current map via the same ``repro.core.analysis`` footprints the
middleware itself uses and dispatches it:

* **single-shard** — straight to that group's ``MiddlewareSession``
  (its full pipeline: balancer, certification, group commit, cache);
  a transaction that only ever wrote on one shard also *commits*
  through that group alone — the fast path that skips 2PC entirely;
* **scatter-gather reads** — executed on every owning group and merged
  by ``repro.shard.merge`` (AVG rewrite, regrouping, ORDER BY re-sort,
  LIMIT/OFFSET re-application); a read whose WHERE only *bounds* the
  key of a range-sharded table is pruned to the groups owning the
  intersecting segments first;
* **multi-shard writes** — multi-row INSERTs are split by key so each
  group receives exactly its rows; predicate writes run on every owning
  group; either way the enclosing (possibly implicit) transaction
  commits through :class:`~repro.shard.twopc.TwoPCCoordinator`;
* **global tables and DDL** — broadcast to every group (reads of a
  global table go to group 0).

Every statement gets a ``shard.route`` span tagged with the table, the
routing kind, the target groups and the map version; commits add
``shard.2pc.*`` spans.  The current map version is folded into each
group session's result-cache keys (``MiddlewareSession.cache_salt``), so
the instant a reshard flips the map, every cache entry filled under the
old placement becomes unreachable — a moved key can never be served
stale.

**HA composition** (docs/TOPOLOGY.md): a group entry may be an
:class:`~repro.ha.pair.HAPair` instead of a bare middleware.  The
cluster then keeps a per-group pair registry, repoints ``groups[i]`` at
the promoted standby on every switch, and the session layer re-resolves
its cached group handles — so a fenced-out or killed group middleware
surfaces as *retry-after-failover* (``core/resilience.py``'s
classification) instead of failing the scatter, and an autocommit
statement that provably changed nothing is transparently re-dispatched
to the new leader.
"""

from __future__ import annotations

from copy import copy
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.analysis import StatementInfo, analyze
from ..core.errors import (
    RETRY_AFTER_FAILOVER, MiddlewareDown, UnsupportedStatementError,
)
from ..core.keyplan import (KeyPlan, RangePlan, bindings_of,
                            compile_key_plan, compile_range_plan,
                            literal_value)
from ..core.middleware import MiddlewareSession, ReplicationMiddleware
from ..obs.tracing import Tracer
from ..sqlengine import ast_nodes as ast
from ..sqlengine.executor import Result
# TEMPORARY, not called here any more: perf/spans.py (frozen for this
# PR by the benchmark's path contract) rebinds this name and fails
# without it.  ROADMAP item 2 has the follow-up that repoints that
# boundary at sqlengine.stmtcache.parse_script and deletes this line.
from ..sqlengine.parser import parse_script  # noqa: F401
from ..sqlengine.stmtcache import Memo, StatementCache
from .merge import ScatterPlan, plan_scatter
from .shardmap import ShardMap, ShardMapLog, Sharder, ShardSpec
from .twopc import TwoPCCoordinator


class ForwardingRule:
    """One in-flight key movement, installed by ``repro.shard.reshard``
    from its first phase until the flip.

    For as long as it stands the destination holds copies of moving rows
    beside rows of its own, while the source stays their owner: a
    multi-group read that reaches ``dst`` carries ``staying`` there —
    "not a moving key", as a predicate over the key column it is handed
    — so the copies are never counted, and ``dst``'s own rows always
    are.  Once ``dual_write`` is set (the dual-write window) writes for
    matching keys go to *both* src and dst."""

    __slots__ = ("table", "contains", "src", "dst", "staying", "label",
                 "dual_write")

    def __init__(self, table: str, contains, src: int, dst: int,
                 staying, label: str):
        self.table = table.lower()
        self.contains = contains
        self.src = src
        self.dst = dst
        self.staying = staying      # ast.ColumnRef -> ast.Expression
        self.label = label          # marks the filtered statement's text
        self.dual_write = False

    def matches(self, table: str, value: Any) -> bool:
        return self.dual_write and table == self.table \
            and self.contains(value)


class ShardedCluster:
    """The shard tier: N replication groups behind one versioned map.

    Each entry in ``groups`` is either a bare
    :class:`~repro.core.middleware.ReplicationMiddleware` or an
    :class:`~repro.ha.pair.HAPair` fronting one (duck-typed on
    ``active``/``kill_active`` so this module never imports
    ``repro.ha``).  For paired groups the router tracks promotions:
    ``self.groups[i]`` always points at the group's current leader."""

    def __init__(self, groups: Sequence,
                 shard_map: Optional[ShardMap] = None,
                 name: str = "sharded",
                 tracing: bool = True):
        if not groups:
            raise ValueError("a sharded cluster needs at least one group")
        self.name = name
        self.pairs: List[Optional[Any]] = []
        self.groups: List[ReplicationMiddleware] = []
        for entry in groups:
            pair = entry if hasattr(entry, "kill_active") \
                and hasattr(entry, "active") else None
            self.pairs.append(pair)
            self.groups.append(pair.active if pair is not None else entry)
        for group in self.groups:
            if group.config.replication != "writeset":
                raise ValueError(
                    f"group {group.name!r} uses "
                    f"{group.config.replication!r} replication; the shard "
                    "tier's 2PC prepares against per-group writeset "
                    "certification and requires replication='writeset'")
        self.map = shard_map or ShardMap(len(self.groups))
        if self.map.shards != len(self.groups):
            raise ValueError(
                f"map has {self.map.shards} shards but {len(self.groups)} "
                "groups were provided")
        self.map_log = ShardMapLog()
        self.map_log.append("map_install", version=self.map.version,
                            shards=self.map.shards)
        self.tracer = Tracer(clock=self.groups[0].monitor.peek,
                             enabled=tracing)
        self.twopc = TwoPCCoordinator(self)
        self.forwarding: List[ForwardingRule] = []
        self.sessions: List["ShardedSession"] = []
        self._session_counter = 0
        # text front door: every session's execute(sql) resolves through
        # this one cache, so one shape is one tree for all of them
        self.statements = StatementCache()
        # statement identity -> (info, spec, key plan, range plan),
        # valid for one map version
        self.route_plans = Memo()
        # (statement identity, text) -> its reusable scatter plan, valid
        # for one map version: a rewritten per-shard statement is then
        # one tree, and every identity-keyed memo below it hits
        self.scatter_plans = Memo()
        self.stats: Dict[str, int] = {
            "single_shard": 0, "scatter_reads": 0, "multi_shard_writes": 0,
            "broadcast": 0, "single_shard_commits": 0, "twopc_commits": 0,
            "group_promotions": 0, "failover_reroutes": 0,
        }
        for index, pair in enumerate(self.pairs):
            if pair is not None:
                self._watch_pair(index, pair)

    # -- HA pair registry -----------------------------------------------

    def _watch_pair(self, index: int, pair) -> None:
        def switched(new_leader, index=index):
            self.groups[index] = new_leader
            self.stats["group_promotions"] += 1
        pair.on_switch(switched)

    def attach_pair(self, index: int, pair) -> None:
        """Register (or replace, after an operator rebuilt the standby
        behind a promoted leader) the HA pair fronting group ``index``
        and repoint the group handle at its current active leader."""
        self.pairs[index] = pair
        self.groups[index] = pair.active
        self._watch_pair(index, pair)

    def group_alive(self, index: int) -> bool:
        """Can group ``index``'s current handle take a statement now?"""
        group = self.groups[index]
        return not group.failed \
            and (group.ha is None or group.ha.role == "active")

    # -- map management -------------------------------------------------

    def register_table(self, table: str, key_column: str,
                       sharder: Sharder) -> ShardSpec:
        spec = self.map.register_table(table, key_column, sharder)
        # registration does not advance the map version, and a shape
        # already seen through the text door keeps its tree: drop the
        # plans that routed it as an unsharded table
        self.route_plans.clear()
        self.map_log.append("table_registered", table=spec.table,
                            key_column=spec.key_column,
                            sharder=sharder.kind,
                            version=self.map.version)
        return spec

    def install_map(self, new_map: ShardMap) -> None:
        """The atomic flip: one assignment changes what every subsequent
        statement routes by *and* salts every cache key."""
        if new_map.version <= self.map.version:
            raise ValueError(
                f"map version must advance (have {self.map.version}, "
                f"got {new_map.version})")
        if new_map.shards != len(self.groups):
            raise ValueError("new map shard count must match the groups")
        self.map = new_map
        self.map_log.append("map_install", version=new_map.version,
                            shards=new_map.shards)

    def rules_for(self, table: str) -> List[ForwardingRule]:
        return [r for r in self.forwarding if r.table == table]

    # -- route-plan memo -------------------------------------------------

    def _route_plan(self, statement: ast.Statement) -> tuple:
        """``(info, spec, key_plan, range_plan)`` memoized by statement
        identity — clients replay a small set of cached templates, so
        the analysis walk, the spec lookup and the WHERE-shape inspection
        are all loop-invariant; only the bound parameters change per
        call.  Entries are stamped with the map version (the plans bake
        in the spec), so a reshard flip recompiles them.

        Only a read gets a range plan (a forwarding rule can say whether
        a *key* is moving, not whether a range touches one), and an
        ``EXPLAIN`` — a read that never executes — routes by the
        statement it explains."""
        version = self.map.version
        plan = self.route_plans.get_for(statement, version)
        if plan is None:
            info = analyze(statement)
            spec = None
            for table in info.all_tables():
                spec = self.map.spec_of(table)
                if spec is not None:
                    break
            key_plan = range_plan = None
            if spec is not None and not info.is_ddl:
                routed = statement.statement \
                    if isinstance(statement, ast.ExplainStatement) \
                    else statement
                key_plan = compile_key_plan(routed, spec.table,
                                            spec.key_column)
                if not info.is_write:
                    range_plan = compile_range_plan(routed, spec.table,
                                                    spec.key_column)
            plan = (info, spec, key_plan, range_plan)
            self.route_plans.put_for(statement, plan, version)
        return plan

    def _scatter_plan(self, statement: ast.SelectStatement, sql_text: str,
                      params: List[Any]) -> ScatterPlan:
        """The scatter plan of one execution: the statement's memoised
        plan bound to ``params``, or — first time, or an OFFSET, which
        ``ScatterPlan.reusable`` refuses — a fresh one."""
        version = self.map.version
        plan = self.scatter_plans.get_for(statement, version, sql_text)
        if plan is not None:
            return plan.bind(params)
        plan = plan_scatter(statement, sql_text, params)
        if plan.reusable:
            self.scatter_plans.put_for(statement, plan, version, sql_text)
        return plan

    # -- sessions / cluster plumbing ------------------------------------

    def connect(self, user: str = "admin", password: str = "",
                database: Optional[str] = None) -> "ShardedSession":
        self._session_counter += 1
        session = ShardedSession(self, self._session_counter, user,
                                 password, database)
        self.sessions.append(session)
        return session

    def open_write_transactions(self) -> int:
        """In-flight transactions that have written somewhere — the
        pre-flip epoch a reshard must drain before moving ownership."""
        return sum(1 for s in self.sessions
                   if not s.closed and s.in_transaction
                   and s._txn_write_groups)

    def pump(self) -> int:
        return sum(g.pump() for g in self.groups)

    def drain_all(self) -> int:
        return sum(g.drain_all() for g in self.groups)

    def check_convergence(self) -> bool:
        return all(g.check_convergence() for g in self.groups)


class ShardedSession:
    """A client session over the shard tier."""

    def __init__(self, cluster: ShardedCluster, session_id: int, user: str,
                 password: str, database: Optional[str]):
        self.cluster = cluster
        self.id = session_id
        self.user = user
        self.password = password
        self.database = database
        self.closed = False
        # exactly-once identity, propagated to every group session so
        # each group's commit ledger can dedup a post-failover replay
        self.client_id: Optional[str] = None
        self.client_txn_id: Optional[str] = None
        self._sessions: Dict[int, MiddlewareSession] = {}
        self.in_transaction = False
        self._txn_groups: Set[int] = set()
        self._txn_write_groups: Set[int] = set()
        # Routing trace of the last statement, consumed by the timed
        # driver to charge simulated costs on the groups that did work.
        self.last_route: Optional[Dict[str, Any]] = None

    # -- public API -----------------------------------------------------

    def execute(self, sql: str,
                params: Optional[List[Any]] = None) -> Result:
        self._check_open()
        # (text, values) from here down is one statement's own pair —
        # template + extracted values, or the text as sent + the
        # caller's params — so the groups' cache keys and statement
        # logs, span tags and split-INSERT text all agree
        result = Result()
        for statement, text, values in \
                self.cluster.statements.script(sql, params):
            result = self._execute_one(statement, text, list(values))
        return result

    def execute_one_parsed(self, statement: ast.Statement, sql_text: str,
                           params: Optional[List[Any]] = None) -> Result:
        """Execute one pre-parsed statement (timed-driver fast path).
        ``sql_text`` is this one statement's own text, as for
        ``MiddlewareSession.execute_one_parsed``, which it reaches."""
        self._check_open()
        return self._execute_one(statement, sql_text, list(params or []))

    def begin(self) -> None:
        self._execute_one(ast.BeginStatement(), "BEGIN", [])

    def commit(self) -> None:
        self._execute_one(ast.CommitStatement(), "COMMIT", [])

    def rollback(self) -> None:
        self._execute_one(ast.RollbackStatement(), "ROLLBACK", [])

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
        self.closed = True

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-group sessions ---------------------------------------------

    def group_session(self, index: int) -> MiddlewareSession:
        cluster = self.cluster
        session = self._sessions.get(index)
        if session is not None and (
                session.closed
                or session.middleware is not cluster.groups[index]):
            # the group failed over (or the handle was fenced out)
            # since this session was opened: drop it and re-resolve
            # through the pair's virtual IP.  If a transaction died with
            # the old instance, the caller must replay the whole
            # transaction — surface that as retry-after-failover.
            stale_txn = (index in self._txn_groups
                         or index in self._txn_write_groups)
            if not session.closed:
                try:
                    session.close()
                except Exception:  # noqa: BLE001 — old instance is gone
                    pass
            del self._sessions[index]
            session = None
            if stale_txn:
                raise MiddlewareDown(
                    f"group {index} middleware failed over "
                    "mid-transaction", retry=RETRY_AFTER_FAILOVER)
        if session is None:
            session = self._connect_group(index)
            self._sessions[index] = session
        # the map version salts this group's result-cache keys, so a
        # reshard flip instantly orphans entries filled under the old
        # placement (tentpole: no stale reads of moved keys)
        session.cache_salt = cluster.map.version
        if self.client_txn_id is not None:
            session.client_txn_id = self.client_txn_id
        return session

    def _connect_group(self, index: int) -> MiddlewareSession:
        cluster = self.cluster
        pair = cluster.pairs[index]
        if pair is not None:
            return pair.connect(self.user, self.password, self.database,
                                client_id=self.client_id)
        session = cluster.groups[index].connect(
            self.user, self.password, self.database)
        if self.client_id is not None:
            session.client_id = self.client_id
        return session

    def _txn_session(self, index: int) -> MiddlewareSession:
        session = self.group_session(index)
        if self.in_transaction:
            if not session.in_transaction:
                session.begin()
            self._txn_groups.add(index)
        return session

    def _execute_on(self, index: int, statement: ast.Statement,
                    sql_text: str, params: List[Any]) -> Result:
        """Dispatch one statement to group ``index``; when the group's
        active middleware died or was fenced underneath an autocommit
        statement, re-resolve to the promoted leader and retry once.

        Safe because ``MiddlewareSession._dispatch_one`` checks
        liveness/fencing *before* any state change: a
        ``MiddlewareDown``/``FencedOut`` from an autocommit statement
        proves nothing durable happened, so one re-dispatch cannot
        double-apply.  Mid-transaction failures are never retried here —
        they surface with the label the dead instance gave them
        (``retry-after-failover`` when a standby stands behind it) so
        the client replays the whole transaction (exactly-once via the
        group's commit ledger)."""
        try:
            return self._txn_session(index).execute_one_parsed(
                statement, sql_text, params)
        except MiddlewareDown:
            if not self._may_reroute(index):
                raise
            self.cluster.stats["failover_reroutes"] += 1
            return self._txn_session(index).execute_one_parsed(
                statement, sql_text, params)

    def _may_reroute(self, index: int) -> bool:
        """May a statement that met a dead or deposed instance be
        transparently re-dispatched right now?  Only when no
        transaction state died with the old instance and the group
        handle already points at a live leader."""
        cluster = self.cluster
        if self.in_transaction:
            return False
        stale = self._sessions.get(index)
        if stale is not None and not stale.closed and stale.in_transaction:
            return False
        if stale is not None:
            if not stale.closed:
                try:
                    stale.close()
                except Exception:  # noqa: BLE001 — old instance is gone
                    pass
            self._sessions.pop(index, None)
        return cluster.group_alive(index)

    # -- statement execution --------------------------------------------

    def _execute_one(self, statement: ast.Statement, sql_text: str,
                     params: List[Any]) -> Result:
        if isinstance(statement, ast.BeginStatement):
            return self._begin()
        if isinstance(statement, ast.CommitStatement):
            return self._commit()
        if isinstance(statement, ast.RollbackStatement):
            return self._rollback()

        cluster = self.cluster
        info, spec, key_plan, range_plan = cluster._route_plan(statement)
        # the routing door: with tracing off, this flag test is all a
        # statement pays for observability (see repro.obs.tracing)
        span = cluster.tracer.start_span(
            "shard.route", session=self.id, sql=sql_text[:80],
            map_version=cluster.map.version) \
            if cluster.tracer.enabled else None
        table = targets = kind = None
        try:
            if info.is_ddl or spec is None:
                kind = "broadcast" if info.is_write or info.is_ddl \
                    else "global_read"
                return self._dispatch_global(statement, sql_text, params,
                                             info)
            table = spec.table
            targets = self._resolve_targets(spec, params, info, key_plan,
                                            range_plan)
            if isinstance(statement, ast.ExplainStatement):
                kind = "explain"
                return self._dispatch_explain(statement, sql_text, params,
                                              sorted(targets))
            if len(targets) == 1:
                kind = "single"
                cluster.stats["single_shard"] += 1
                target = next(iter(targets))
                self._note_route("single", (target,), info.is_write)
                result = self._execute_on(target, statement, sql_text,
                                          params)
                if info.is_write and self.in_transaction:
                    self._txn_write_groups.add(target)
                return result
            if info.is_write:
                kind = "multi_write"
                return self._dispatch_multi_write(statement, sql_text,
                                                  params, info, spec,
                                                  sorted(targets))
            kind = "scatter"
            return self._dispatch_scatter(statement, sql_text, params,
                                          sorted(targets), spec)
        finally:
            if span:
                if table is not None:
                    span.set_tag("table", table)
                if targets is not None:
                    span.set_tag("targets", len(targets))
                if kind is not None:
                    span.set_tag("kind", kind)
                span.end()

    # -- target resolution ----------------------------------------------

    def _resolve_targets(self, spec: ShardSpec, params: List[Any],
                         info: StatementInfo, key_plan: KeyPlan,
                         range_plan: RangePlan) -> Set[int]:
        """The groups the statement runs on: the owners of the key values
        it pins; failing that every group — or, when its WHERE bounds the
        key of a range-sharded table, the owners of the intersecting
        segments: always a subset of every group, and only ever for a
        read."""
        cluster = self.cluster
        keys = key_plan(params) if key_plan is not None else None
        if keys is not None:
            rules = cluster.rules_for(spec.table) if info.is_write else ()
            targets: Set[int] = set()
            try:
                for value in keys:
                    targets.add(spec.shard_for(value))
                    for rule in rules:
                        if rule.matches(spec.table, value):
                            targets.add(rule.dst)
                            cluster.stats.setdefault("dual_writes", 0)
                            cluster.stats["dual_writes"] += 1
                return targets
            except TypeError:
                # a key value the placement cannot order: nothing is
                # pinned, and a row that cannot be placed is refused
                if isinstance(info.statement, ast.InsertStatement):
                    raise UnsupportedStatementError(
                        f"INSERT shard-key value {value!r} cannot be "
                        f"placed on sharded table {spec.table!r}")
        interval = range_plan(params) if range_plan is not None else None
        targets = spec.shards_for_range(*interval) \
            if interval is not None else None
        if targets is None:
            targets = set(range(len(cluster.groups)))
        return targets

    # -- dispatch paths --------------------------------------------------

    def _note_route(self, kind: str, targets, is_write: bool,
                    commit=None) -> None:
        self.last_route = {"kind": kind, "targets": tuple(targets),
                           "write": is_write, "commit": commit}

    def _dispatch_global(self, statement: ast.Statement, sql_text: str,
                         params: List[Any], info: StatementInfo) -> Result:
        cluster = self.cluster
        if info.is_write or info.is_ddl:
            cluster.stats["broadcast"] += 1
            every = tuple(range(len(cluster.groups)))
            self._note_route("broadcast", every, True)
            result = Result()
            for index in every:
                result = self._execute_on(index, statement, sql_text,
                                          params)
                if self.in_transaction:
                    self._txn_write_groups.add(index)
            return result
        self._note_route("global_read", (0,), False)
        return self._execute_on(0, statement, sql_text, params)

    def _dispatch_scatter(self, statement: ast.Statement, sql_text: str,
                          params: List[Any], targets: Sequence[int],
                          spec: ShardSpec) -> Result:
        cluster = self.cluster
        cluster.stats["scatter_reads"] += 1
        self._note_route("scatter", targets, False)
        plan = cluster._scatter_plan(statement, sql_text, params)
        # a moving row is read at its owner, the source: its copy is
        # left out wherever a read reaches the destination as well
        rules = cluster.rules_for(spec.table)
        results = [
            self._execute_on(
                index, *_staying_variant(plan.statement, plan.sql_text,
                                         spec, rules, index), params)
            for index in targets
        ]
        return plan.merge(results)

    def _dispatch_explain(self, statement: ast.ExplainStatement,
                          sql_text: str, params: List[Any],
                          targets: Sequence[int]) -> Result:
        """The access paths of exactly the groups the explained statement
        would reach: one row per (group, group's row), ``shard`` first."""
        self._note_route("explain", targets, False)
        columns: List[str] = []
        rows: List[tuple] = []
        for index in targets:
            result = self._execute_on(index, statement, sql_text, params)
            columns = ["shard"] + result.columns
            rows.extend((index,) + tuple(row) for row in result.rows)
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def _dispatch_multi_write(self, statement: ast.Statement,
                              sql_text: str, params: List[Any],
                              info: StatementInfo, spec: ShardSpec,
                              targets: Sequence[int]) -> Result:
        cluster = self.cluster
        cluster.stats["multi_shard_writes"] += 1
        implicit = not self.in_transaction
        if implicit:
            self._begin()
        try:
            if isinstance(statement, ast.InsertStatement):
                result = self._split_insert(statement, sql_text, params,
                                            spec)
            else:
                # predicate write: each group touches only its own rows
                result = Result()
                rowcount = 0
                for index in targets:
                    partial = self._execute_on(index, statement, sql_text,
                                               params)
                    self._txn_write_groups.add(index)
                    rowcount += partial.rowcount
                result = Result(rowcount=rowcount)
            self._note_route("multi_write", targets, True)
            if implicit:
                self._commit()
            return result
        except Exception:
            if implicit and self.in_transaction:
                self._rollback()
            raise

    def _split_insert(self, statement: ast.InsertStatement, sql_text: str,
                      params: List[Any], spec: ShardSpec) -> Result:
        """Per-shard row subsets: each group gets exactly the rows it
        owns (plus dual-write copies during a reshard window)."""
        lowered = [c.lower() for c in statement.columns]
        key_index = lowered.index(spec.key_column)
        rules = self.cluster.rules_for(spec.table)
        by_group: Dict[int, list] = {}
        for row in statement.rows:
            value = literal_value(row[key_index], params)
            owner = spec.shard_for(value)
            by_group.setdefault(owner, []).append(row)
            for rule in rules:
                if rule.matches(spec.table, value):
                    by_group.setdefault(rule.dst, []).append(row)
        rowcount = 0
        for index, rows in sorted(by_group.items()):
            shard_statement = ast.InsertStatement(
                statement.table, statement.columns, rows=rows)
            partial = self._execute_on(
                index, shard_statement, f"{sql_text} /*shard:{index}*/",
                params)
            self._txn_write_groups.add(index)
            rowcount += partial.rowcount
        return Result(rowcount=rowcount, lastrowid=None)

    # -- transaction control ---------------------------------------------

    def _begin(self) -> Result:
        if self.in_transaction:
            raise UnsupportedStatementError(
                "transaction already in progress")
        self.in_transaction = True
        self._txn_groups = set()
        self._txn_write_groups = set()
        self._note_route("begin", (), False)
        return Result()

    def _commit(self) -> Result:
        if not self.in_transaction:
            return Result()
        cluster = self.cluster
        write_groups = set(self._txn_write_groups)
        read_groups = self._txn_groups - write_groups
        mode = "fast" if len(write_groups) <= 1 else "2pc"
        self._note_route("commit", sorted(write_groups), True,
                         commit={"mode": mode,
                                 "groups": sorted(write_groups)})
        try:
            for index in sorted(read_groups):
                self._sessions[index].commit()
            if mode == "fast":
                # single-shard fast path: the one group's ordinary
                # certify/group-commit pipeline — no 2PC anywhere
                for index in sorted(write_groups):
                    self._sessions[index].commit()
                cluster.stats["single_shard_commits"] += 1
            else:
                span = cluster.tracer.start_span(
                    "shard.2pc", session=self.id,
                    participants=len(write_groups),
                    map_version=cluster.map.version) \
                    if cluster.tracer.enabled else None
                try:
                    cluster.twopc.commit(self, write_groups,
                                         parent_span=span)
                finally:
                    if span:
                        span.end()
                cluster.stats["twopc_commits"] += 1
        except Exception:
            # (a MiddlewareDown's label says whether the client can
            # replay the transaction against a promoted leader; each
            # group's commit ledger makes that replay exactly-once)
            self._abort_open_groups()
            raise
        finally:
            self._reset_txn()
        return Result()

    def _rollback(self) -> Result:
        if not self.in_transaction:
            return Result()
        self._note_route("rollback", sorted(self._txn_groups), False)
        self._abort_open_groups()
        self._reset_txn()
        return Result()

    def _abort_open_groups(self) -> None:
        for session in list(self._sessions.values()):
            if session.closed or not session.in_transaction:
                continue
            try:
                session.rollback()
            except MiddlewareDown:
                # the instance died holding this transaction; its locks
                # and staged state died with it — nothing to roll back
                pass

    def _reset_txn(self) -> None:
        self.in_transaction = False
        self._txn_groups = set()
        self._txn_write_groups = set()

    def _check_open(self) -> None:
        if self.closed:
            raise MiddlewareDown("session is closed")


def _staying_variant(statement: ast.SelectStatement, sql_text: str,
                     spec: ShardSpec, rules: Sequence[ForwardingRule],
                     index: int) -> Tuple[ast.SelectStatement, str]:
    """The statement group ``index`` runs for a multi-group read: as
    given, unless the group is the destination of a key movement — then
    with each such rule's "not a moving key" predicate ANDed into the
    WHERE clause for every binding of the sharded table, and the text
    marked (the convention of ``merge.py``'s rewrites) so the group's
    result cache never serves one variant for the other.  A read that
    reaches the destination *alone* needs none: had its WHERE admitted a
    moving key, that key's owner — the source — would be a target too."""
    for rule in rules:
        if rule.dst != index:
            continue
        where = statement.where
        for binding in sorted(bindings_of(statement, spec.table)[0]):
            kept = rule.staying(ast.ColumnRef(spec.key_column, binding))
            where = kept if where is None \
                else ast.BinaryOp("AND", where, kept)
        statement = copy(statement)     # the cached tree is shared
        statement.where = where
        sql_text = f"{sql_text} /*staying:{rule.label}*/"
    return statement, sql_text
