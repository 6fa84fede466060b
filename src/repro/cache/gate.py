"""The per-protocol consistency gate — the result cache's one door.

A cache entry is not stale or fresh in the absolute — it is fresh *for a
session under a protocol*.  The gate reduces that question to sequence
arithmetic:

* a live entry is valid **as of the invalidator's watermark**: every
  certified write up to ``invalidator.applied_seq`` that touched the
  entry's dependencies would have removed it, so serving the entry is
  indistinguishable from reading a replica whose applied sequence equals
  that watermark (for the entry's read set);
* the protocol already states, via ``min_read_seq``, the watermark a
  *replica* must have applied before this session may read from it — the
  same bound applies verbatim to the cache.

So: 1SR (statement broadcast) bypasses the cache entirely — its reads
take middleware table locks and must observe in-flight write broadcasts,
which no result cache can witness.  The SI family compares the
watermark against ``min_read_seq``: GSI accepts any prefix (always a
hit), strong session SI demands the session's own observed prefix,
strong SI demands the global sequence.  When the watermark falls short,
a degraded cluster may still serve the entry as an explicitly-labelled
bounded-staleness hit through the resilience policy's ``serve_stale``
budget — the same policy knob that governs lagging-replica reads.

The gate is also the session's one door to the cache: ``lookup`` before
dispatch, ``fill`` after an autocommit replica read, ``fallback`` when
no replica can serve, and ``explain`` for EXPLAIN's ``CACHE`` row.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from ..sqlengine import ast_nodes as ast
from .dependencies import extract_read_dependencies
from .resultcache import CachedResult, CacheEntry, cache_key

GATE_HIT = "hit"
GATE_STALE = "stale"
GATE_REJECT = "reject"
GATE_BYPASS_PROTOCOL = "bypass-protocol"

_EXPLAIN = re.compile(r"^\s*EXPLAIN\s+", re.IGNORECASE)


class ConsistencyGate:
    """Decides whether a cached entry may be served to a session, and
    serves, fills and explains by that decision."""

    def __init__(self, middleware, cache, invalidator):
        self.middleware = middleware
        self.cache = cache
        self.invalidator = invalidator

    def decide(self, session) -> Tuple[str, int]:
        """(decision, lag) for serving a live cache entry to ``session``.

        ``lag`` is how many sequence numbers the cache's effective
        watermark trails the protocol's requirement — 0 for fresh hits,
        positive for ``GATE_STALE``/``GATE_REJECT``.  Asking changes
        nothing: a stale entry is counted as a degraded read only when
        it is served.
        """
        middleware = self.middleware
        protocol = middleware.config.consistency
        if self._bypasses(protocol):
            return GATE_BYPASS_PROTOCOL, 0
        needed = protocol.min_read_seq(session.view, middleware.cluster_view())
        effective = self.invalidator.applied_seq
        if effective >= needed:
            return GATE_HIT, 0
        lag = needed - effective
        resilience = middleware.resilience
        if resilience is not None and resilience.serve_stale(lag):
            return GATE_STALE, lag
        return GATE_REJECT, lag

    @staticmethod
    def _bypasses(protocol) -> bool:
        """1SR (statement broadcast) never uses the cache: its reads must
        observe in-flight write broadcasts, which no cache witnesses."""
        return protocol.write_mode == "broadcast"

    # ------------------------------------------------------------------
    # the session's half of the rule
    # ------------------------------------------------------------------

    @staticmethod
    def _barred(session) -> Optional[str]:
        """Why ``session`` may not use the cache at all right now:
        ``transaction`` (inside one) or ``session`` (it sent USE or SET,
        connection-local state no cache key witnesses)."""
        return ("transaction" if session.in_transaction
                else "session" if session._cache_ineligible else None)

    @staticmethod
    def _key(session, sql: str, params) -> Optional[tuple]:
        key = cache_key(session.user, session.database, sql, params)
        if key is None or session.cache_salt is None:
            return key
        return key + (("salt", session.cache_salt),)

    def _entry(self, session, sql: str,
               params) -> Tuple[Optional[CacheEntry], Optional[str]]:
        """The live entry ``session`` may be served for ``(sql, params)``,
        or ``None`` and why not: :meth:`_barred`'s reasons,
        ``uncacheable`` (no key), ``miss``, or ``bypass_temp`` — a
        session temporary table shadows a table the entry read (4.1.4)."""
        why = self._barred(session)
        if why is not None:
            return None, why
        key = self._key(session, sql, params)
        if key is None:
            return None, "uncacheable"
        entry = self.cache.peek(key)
        if entry is None:
            return None, "miss"
        if session.temp_tables and (session.temp_tables
                                    & entry.table_names()):
            return None, "bypass_temp"
        return entry, None

    def _serve(self, session, entry: CacheEntry, decision: str,
               lag: int) -> CachedResult:
        """Count a served entry and note what the session has observed:
        state as of the invalidator's watermark, which feeds the
        monotonic-reads guarantees exactly like a replica read."""
        if decision == GATE_STALE:
            resilience = self.middleware.resilience
            resilience.note_degraded_read(lag)
            resilience.note_stale_cache_served()
            self.cache.stats["stale_hits"] += 1
        else:
            self.cache.stats["hits"] += 1
        self.middleware.config.consistency.note_read(
            session.view, self.invalidator.applied_seq)
        return entry.to_result(stale=(decision == GATE_STALE), lag=lag)

    # ------------------------------------------------------------------
    # the three doors, and EXPLAIN
    # ------------------------------------------------------------------

    def lookup(self, session, sql: str, params) -> Optional[CachedResult]:
        """Serve an autocommit read before the balancer sees it (a hit
        costs no replica load and no admission slot).  ``(sql, params)``
        is the statement cache's pair, so a literal-inlined text has been
        through ``StatementCache.lookup`` by now; a parse only ever
        happens on a miss.  ``None`` = proceed normally, with the reason
        left in ``session._cache_note`` for the statement span."""
        entry, why = self._entry(session, sql, params)
        if entry is None:
            if why not in ("transaction", "session"):
                session._cache_note = why
            return None
        middleware = self.middleware
        middleware._check_up()
        decision, lag = self.decide(session)
        if decision == GATE_BYPASS_PROTOCOL:
            self.cache.stats["bypass_protocol"] += 1
            session._cache_note = "bypass_protocol"
            return None
        if decision == GATE_REJECT:
            self.cache.stats["gate_rejections"] += 1
            session._cache_note = "reject"
            return None
        result = self._serve(session, entry, decision, lag)
        middleware.config.balancer.note_cache_hit()
        # A hit never reaches the session's dispatch, so it gets its own
        # statement span (zero-duration: no replica, no simulated cost);
        # this is a statement door, so tracing off costs one flag test
        if middleware.tracer.enabled:
            span = middleware.tracer.start_span(
                "mw.statement", parent=session.trace_context,
                session=session.id, sql=sql[:80],
                cache=("stale" if decision == GATE_STALE else "hit"))
            if lag:
                span.set_tag("cache_lag", lag)
            span.end()
        return result

    def fill(self, session, statement: ast.Statement, sql: str, params,
             info, replica, result) -> None:
        """After an autocommit replica read: remember the result if the
        statement is cacheable and the replica was provably current for
        the statement's dependencies (the fill guard — a lagging replica
        must not launder stale rows into a fresh-looking entry)."""
        if not isinstance(statement, ast.SelectStatement):
            return  # only SELECT results are cached (EXPLAIN/USE/SET...)
        if self._barred(session) is not None:
            return
        stats = self.cache.stats
        if self._bypasses(self.middleware.config.consistency):
            stats["bypass_protocol"] += 1
            return
        key = self._key(session, sql, params)
        if key is None:
            stats["bypass_uncacheable"] += 1
            return
        deps = extract_read_dependencies(
            statement, info, replica.engine, session.database, params)
        if deps is None:
            stats["bypass_uncacheable"] += 1
            return
        stats["misses"] += 1
        invalidator = self.invalidator
        conflicts = invalidator.conflicts_since(replica.applied_seq, deps)
        if conflicts is not False:  # True, or None = unknowable window
            stats["fill_rejected"] += 1
            return
        self.cache.put(key, result, deps, fill_seq=invalidator.applied_seq)

    def fallback(self, session, sql: str,
                 params) -> Optional[CachedResult]:
        """Degraded-mode last resort: with a resilience policy and no
        replica able to serve the read, a labelled bounded-staleness
        cache hit beats an error.  Not a balanced read: the balancer is
        not told."""
        if self.middleware.resilience is None:
            return None
        entry, _why = self._entry(session, sql, params)
        if entry is None:
            return None
        decision, lag = self.decide(session)
        if decision not in (GATE_HIT, GATE_STALE):
            return None
        result = self._serve(session, entry, decision, lag)
        span = session.active_span
        if span and decision == GATE_HIT:
            # actually fresh — the replicas are gone but the entry is fine
            span.set_tag("cache", "fallback_hit")
        elif span:
            span.set_tag("cache", "stale_fallback")
            span.event("degraded_read", lag=lag, source="result_cache")
        return result

    def explain(self, session, statement: ast.ExplainStatement, sql: str,
                params) -> str:
        """What the cache would do with the inner statement right now —
        reported by EXPLAIN next to the access path."""
        why = self._barred(session)
        if why is not None:
            return f"cache bypass ({why})"
        if self._bypasses(self.middleware.config.consistency):
            return "cache bypass (protocol)"
        inner = statement.statement
        if not isinstance(inner, ast.SelectStatement):
            return "cache bypass (uncacheable)"
        # key the inner statement the way executing it would
        _trees, key_sql, key_params = self.middleware.statements.lookup(
            _EXPLAIN.sub("", sql), params)
        entry, why = self._entry(session, key_sql, key_params)
        if entry is not None:
            decision, _lag = self.decide(session)
            return "cache hit" if decision in (GATE_HIT, GATE_STALE) \
                else "cache miss"
        if why == "uncacheable":
            return "cache bypass (uncacheable)"
        if why == "bypass_temp":
            return "cache bypass (temp)"
        from ..core.analysis import analyze

        replica = next(iter(self.middleware.online_replicas()), None)
        if replica is not None and extract_read_dependencies(
                inner, analyze(inner), replica.engine, session.database,
                params) is None:
            return "cache bypass (uncacheable)"
        return "cache miss"
