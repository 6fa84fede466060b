"""The bounded LRU+TTL result store.

Entries are keyed by normalized ``(user, database, statement, params)``
and carry their read-dependency footprint plus the certifier sequence the
entry was filled at.  Two inverted indexes make invalidation O(affected
entries) instead of O(cache): one from ``(db, table, pk)`` point keys and
one from ``(db, table)``.  A *point* entry (the planner proved the result
draws only from specific primary keys) is invalidated only by writes to
those keys; a *broad* entry (scans, joins, aggregates over ranges) is
invalidated by any write to its tables.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Set, Tuple

from ..sqlengine.executor import Result
from ..sqlengine.stmtcache import Memo
from .dependencies import ReadDependencies

Clock = Callable[[], float]

TableKey = Tuple[str, str]            # (database, table)
PointKey = Tuple[str, str, tuple]     # (database, table, pk tuple)


def _zero_clock() -> float:
    return 0.0


#: statement text -> its normalized spelling.  Parameterized workloads
#: repeat the same text thousands of times; memoizing normalization
#: keeps the hit path allocation-free.
normalized_texts = Memo()


def normalize_statement(sql: str) -> str:
    """Collapse whitespace and trailing semicolons so trivially-different
    spellings of the same statement share one cache slot.  Case is left
    alone — folding it would corrupt string literals."""
    normalized = normalized_texts.get(sql)
    if normalized is None:
        normalized = " ".join(sql.split()).rstrip("; ")
        normalized_texts.put(sql, normalized)
    return normalized


def cache_key(user: str, database: Optional[str], sql: str,
              params) -> Optional[tuple]:
    """The cache key for one read, or ``None`` when the request cannot be
    keyed (unhashable parameters)."""
    try:
        param_key = tuple(params) if params else ()
        hash(param_key)
    except TypeError:
        return None
    return (user, database, normalize_statement(sql), param_key)


class CachedResult(Result):
    """A :class:`Result` served from the cache, labelled as such.

    ``stale`` marks a bounded-staleness degraded-mode hit; ``lag`` is how
    many global sequence numbers behind the protocol's requirement the
    served state may be.  Fresh hits carry ``stale=False, lag=0``.
    """

    __slots__ = ("from_cache", "stale", "lag")

    def __init__(self, columns, rows, rowcount, lastrowid,
                 stale: bool = False, lag: int = 0):
        super().__init__(columns=list(columns), rows=list(rows),
                         rowcount=rowcount, lastrowid=lastrowid)
        self.from_cache = True
        self.stale = stale
        self.lag = lag


class CacheEntry:
    """One cached result with its dependency footprint."""

    __slots__ = ("key", "columns", "rows", "rowcount", "lastrowid",
                 "deps", "fill_seq", "filled_at")

    def __init__(self, key: tuple, result: Result, deps: ReadDependencies,
                 fill_seq: int, filled_at: float):
        self.key = key
        self.columns = list(result.columns)
        self.rows = list(result.rows)
        self.rowcount = result.rowcount
        self.lastrowid = result.lastrowid
        self.deps = deps
        self.fill_seq = fill_seq
        self.filled_at = filled_at

    def to_result(self, stale: bool = False, lag: int = 0) -> CachedResult:
        return CachedResult(self.columns, self.rows, self.rowcount,
                            self.lastrowid, stale=stale, lag=lag)

    def table_names(self) -> Set[str]:
        """Bare (database-less) table names this entry depends on — used
        to veto serving when a session's temp table shadows a real one."""
        return {table for _db, table in self.deps.tables}

    def __repr__(self) -> str:
        return (f"CacheEntry(seq={self.fill_seq}, rows={len(self.rows)}, "
                f"deps={self.deps!r})")


class ResultCacheConfig:
    """Tunable cache behaviour, attached to a ``MiddlewareConfig``.

    Attributes:
        capacity: maximum number of entries (LRU eviction beyond it).
        ttl: entry lifetime in injected-clock seconds (``None`` = rely on
            invalidation alone).
        max_rows: results larger than this are not cached.
    """

    def __init__(self, capacity: int = 512, ttl: Optional[float] = None,
                 max_rows: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ttl = ttl
        self.max_rows = max_rows


class ResultCache:
    """The store: bounded LRU + optional TTL + inverted dependency
    indexes.  Consistency decisions live in :mod:`repro.cache.gate`; this
    class only remembers, forgets and counts."""

    def __init__(self, config: Optional[ResultCacheConfig] = None,
                 clock: Optional[Clock] = None):
        self.config = config or ResultCacheConfig()
        self.clock = clock or _zero_clock
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        # point key -> cache keys of entries depending on exactly that row
        self._by_point: Dict[PointKey, Set[tuple]] = {}
        # (db, table) -> cache keys of *broad* entries on that table
        self._by_table_broad: Dict[TableKey, Set[tuple]] = {}
        # (db, table) -> cache keys of *every* entry touching that table
        self._by_table_all: Dict[TableKey, Set[tuple]] = {}
        self.stats = {
            "hits": 0, "stale_hits": 0, "misses": 0, "fills": 0,
            "fill_rejected": 0, "evictions": 0, "expirations": 0,
            "invalidated_entries": 0, "invalidation_events": 0,
            "flushes": 0, "bypass_protocol": 0, "bypass_uncacheable": 0,
            "gate_rejections": 0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------

    def peek(self, key: tuple) -> Optional[CacheEntry]:
        """Fetch without touching hit/miss counters (the gate decides
        what the lookup *was* afterwards).  Expired entries are dropped."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        ttl = self.config.ttl
        if ttl is not None and self.clock() - entry.filled_at >= ttl:
            self._drop(key)
            self.stats["expirations"] += 1
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, result: Result, deps: ReadDependencies,
            fill_seq: int) -> Optional[CacheEntry]:
        if len(result.rows) > self.config.max_rows:
            self.stats["fill_rejected"] += 1
            return None
        if key in self._entries:
            self._drop(key)
        entry = CacheEntry(key, result, deps, fill_seq, self.clock())
        self._entries[key] = entry
        for point in deps.point_keys:
            self._by_point.setdefault(point, set()).add(key)
            table_key = (point[0], point[1])
            self._by_table_all.setdefault(table_key, set()).add(key)
        for table_key in deps.tables:
            self._by_table_all.setdefault(table_key, set()).add(key)
            if table_key not in deps.point_tables:
                self._by_table_broad.setdefault(table_key, set()).add(key)
        self.stats["fills"] += 1
        while len(self._entries) > self.config.capacity:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.stats["evictions"] += 1
        return entry

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate_point(self, point: PointKey) -> int:
        """A certified write touched one primary key: kill entries pinned
        to that key plus every broad entry on the table."""
        victims = set(self._by_point.get(point, ()))
        victims |= self._by_table_broad.get((point[0], point[1]), set())
        return self._kill(victims)

    def invalidate_table(self, table_key: TableKey) -> int:
        """A non-keyed write (or one we could not key) touched the table:
        kill everything that depends on it, point entries included."""
        return self._kill(set(self._by_table_all.get(table_key, ())))

    def flush(self) -> int:
        """DDL / opaque procedure / unknown footprint: drop everything."""
        count = len(self._entries)
        self._entries.clear()
        self._by_point.clear()
        self._by_table_broad.clear()
        self._by_table_all.clear()
        self.stats["flushes"] += 1
        self.stats["invalidated_entries"] += count
        return count

    def _kill(self, keys: Set[tuple]) -> int:
        for key in keys:
            self._drop(key)
        self.stats["invalidated_entries"] += len(keys)
        return len(keys)

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for point in entry.deps.point_keys:
            self._unindex(self._by_point, point, key)
            self._unindex(self._by_table_all, (point[0], point[1]), key)
        for table_key in entry.deps.tables:
            self._unindex(self._by_table_all, table_key, key)
            self._unindex(self._by_table_broad, table_key, key)

    @staticmethod
    def _unindex(index: Dict, bucket_key, key: tuple) -> None:
        bucket = index.get(bucket_key)
        if bucket is None:
            return
        bucket.discard(key)
        if not bucket:
            del index[bucket_key]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Counters plus derived rates, for monitoring snapshots."""
        from ..metrics.cache import summarize
        return summarize(self.stats, size=len(self._entries),
                         capacity=self.config.capacity)

    def __repr__(self) -> str:
        return (f"ResultCache(size={len(self._entries)}/"
                f"{self.config.capacity}, hits={self.stats['hits']}, "
                f"misses={self.stats['misses']})")
