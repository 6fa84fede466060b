"""Versioned shard maps and the shard-map log.

The shard map is the middleware-owned source of truth for data
placement: per-table shard keys, a hash or range sharder per table, and
a monotonically increasing **version**.  Routing, the result cache
(which folds the version into its keys) and resharding all hang off the
version: installing a new map is the atomic "flip" that moves ownership,
and any state derived from an older version is unreachable afterwards.

The :class:`ShardMapLog` is the coordinator's durable record: every map
installation and every cross-shard 2PC decision is appended here.  That
makes recovery deterministic — a 2PC transaction with no decision record
is presumed aborted; one with a record replays the recorded decision
(see ``repro.shard.twopc``), and the current map is always the last
``map_install`` record.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import isfinite
from typing import Any, Dict, List, Optional, Sequence, Set

from ..core.errors import MiddlewareError


def canonical_key(value: Any) -> Any:
    """One representative per class of values the engine's ``=`` calls
    equal (``expressions._sql_equal`` compares a string with a number as
    that number): a string that reads as a finite number is the number,
    an integral float is its int, anything else is itself.  Placement —
    the hash and the per-key overrides — is decided on this, so
    ``k = '10'`` and ``k = 10.0`` reach the owner of key 10."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            number = float(value)
        except ValueError:
            return value
        if not isfinite(number):
            return value    # 'inf' and 'nan' stay text
        value = number
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def stable_hash(value: Any) -> int:
    """The one placement hash: deterministic across runs for ints and
    strings (no PYTHONHASHSEED dependence), and equal for values with
    one :func:`canonical_key`."""
    if isinstance(value, int):
        return value
    value = canonical_key(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        acc = 0
        for ch in value:
            acc = (acc * 131 + ord(ch)) % 1000000007
        return acc
    return abs(hash(value))


class Sharder:
    """Maps a shard-key value to a shard (replication-group) index."""

    kind = "base"

    def __init__(self, shards: int):
        self.shards = shards

    def shard_for(self, value: Any) -> int:
        raise NotImplementedError

    def shards_for_range(self, low: Any, high: Any) -> Optional[Set[int]]:
        """The shards that can hold a key in the closed interval
        ``[low, high]`` (``None`` = open end), or ``None`` when the
        placement has no order to prune by."""
        return None

    def clone(self) -> "Sharder":
        raise NotImplementedError


class HashSharder(Sharder):
    """Stable hash placement.  NULL keys are legal rows and must live
    somewhere deterministic: they hash to shard 0."""

    kind = "hash"

    def shard_for(self, value: Any) -> int:
        if value is None:
            return 0
        return stable_hash(value) % self.shards

    def clone(self) -> "HashSharder":
        return HashSharder(self.shards)


class RangeSharder(Sharder):
    """Range placement as an ordered list of segments.

    ``bounds`` are the inclusive upper bounds of the first N-1 segments
    (``bounds=[100, 200]`` -> ``(..100], (100..200], (200..)``), and
    ``assignments`` maps each segment to a shard index — by default the
    identity, but a split inserts a bound and assigns the new segment
    elsewhere, which is exactly how online resharding changes ownership
    without touching any other segment.  NULL keys sort below every
    bound and land in the first segment's shard.
    """

    kind = "range"

    def __init__(self, bounds: Sequence[Any],
                 assignments: Optional[Sequence[int]] = None):
        self.bounds = list(bounds)
        if assignments is None:
            assignments = list(range(len(self.bounds) + 1))
        if len(assignments) != len(self.bounds) + 1:
            raise ValueError(
                f"{len(self.bounds)} bounds need {len(self.bounds) + 1} "
                f"segment assignments, got {len(assignments)}")
        self.assignments = list(assignments)
        super().__init__(max(self.assignments) + 1)

    def segment_for(self, value: Any) -> int:
        """Raises ``TypeError`` for a value that will not compare against
        the bounds; callers that route by it treat that as "not pinned"."""
        if value is None:
            return 0
        return bisect_left(self.bounds, value)

    def shard_for(self, value: Any) -> int:
        return self.assignments[self.segment_for(value)]

    def shards_for_range(self, low: Any, high: Any) -> Set[int]:
        first = self.segment_for(low)
        # an empty interval still names a segment: whoever is asked
        # answers "no rows" in the statement's own result shape
        last = len(self.bounds) if high is None \
            else max(first, self.segment_for(high))
        return set(self.assignments[first:last + 1])

    def split(self, bound: Any, new_shard: int) -> None:
        """Cut the segment containing ``bound`` at ``bound`` and assign
        the *lower* half to ``new_shard`` (keys <= bound move)."""
        segment = self.segment_for(bound)
        if segment < len(self.bounds) and self.bounds[segment] == bound:
            # bound already a boundary: just reassign its segment
            self.assignments[segment] = new_shard
        else:
            self.bounds.insert(segment, bound)
            self.assignments.insert(segment, new_shard)
        self.shards = max(self.shards, new_shard + 1)

    def clone(self) -> "RangeSharder":
        return RangeSharder(list(self.bounds), list(self.assignments))


class ShardSpec:
    """Per-table placement: the shard-key column, the sharder, and
    explicit per-key overrides (how a hash-sharded table moves
    individual keys during a rebalance), keyed by
    :func:`canonical_key` — write them through :meth:`move_key`."""

    __slots__ = ("table", "key_column", "sharder", "overrides")

    def __init__(self, table: str, key_column: str, sharder: Sharder,
                 overrides: Optional[Dict[Any, int]] = None):
        self.table = table.lower()
        self.key_column = key_column.lower()
        self.sharder = sharder
        self.overrides: Dict[Any, int] = {}
        for key, shard in (overrides or {}).items():
            self.move_key(key, shard)

    def move_key(self, key: Any, shard: int) -> None:
        self.overrides[canonical_key(key)] = shard

    def shard_for(self, value: Any) -> int:
        if self.overrides:
            shard = self.overrides.get(canonical_key(value))
            if shard is not None:
                return shard
        return self.sharder.shard_for(value)

    def shards_for_range(self, low: Any, high: Any) -> Optional[Set[int]]:
        """The shards that can own a non-NULL key in ``[low, high]``
        (``None`` = open end): the sharder's, plus the owner of every
        overridden key inside the interval.  ``None`` when the interval
        prunes nothing — no ordered placement, or ends that will not
        compare against it."""
        try:
            shards = self.sharder.shards_for_range(low, high)
            if shards is not None and self.overrides:
                low, high = canonical_key(low), canonical_key(high)
                shards.update(
                    shard for key, shard in self.overrides.items()
                    if key is not None
                    and (low is None or low <= key)
                    and (high is None or key <= high))
        except TypeError:
            return None
        return shards

    def clone(self) -> "ShardSpec":
        return ShardSpec(self.table, self.key_column,
                         self.sharder.clone(), dict(self.overrides))


class ShardMap:
    """One immutable-in-spirit placement version.  Mutations go through
    :meth:`clone` + ``ShardedCluster.install_map`` so every change is a
    version flip with a log record, never an in-place edit a concurrent
    reader could half-see."""

    def __init__(self, shards: int, version: int = 1,
                 tables: Optional[Dict[str, ShardSpec]] = None):
        if shards < 1:
            raise ValueError("a shard map needs at least one shard")
        self.shards = shards
        self.version = version
        self.tables: Dict[str, ShardSpec] = dict(tables or {})

    def register_table(self, table: str, key_column: str,
                       sharder: Sharder) -> ShardSpec:
        if sharder.shards > self.shards:
            raise ValueError(
                f"sharder places keys on {sharder.shards} shards but the "
                f"map has {self.shards}")
        spec = ShardSpec(table, key_column, sharder)
        self.tables[spec.table] = spec
        return spec

    def spec_of(self, table: str) -> Optional[ShardSpec]:
        return self.tables.get(table.split(".")[-1].lower())

    def shard_of(self, table: str, value: Any) -> int:
        spec = self.spec_of(table)
        if spec is None:
            raise MiddlewareError(f"table {table!r} is not sharded")
        return spec.shard_for(value)

    def clone(self, shards: Optional[int] = None) -> "ShardMap":
        """A deep copy with ``version + 1`` — the draft a reshard edits
        before installing it atomically."""
        return ShardMap(shards or self.shards, self.version + 1,
                        {name: spec.clone()
                         for name, spec in self.tables.items()})


class MapLogRecord:
    __slots__ = ("seq", "kind", "payload")

    def __init__(self, seq: int, kind: str, payload: Dict[str, Any]):
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"MapLogRecord({self.seq}, {self.kind!r}, {self.payload!r})"


class ShardMapLog:
    """Append-only coordinator log: map installs, reshard phase marks
    and 2PC decisions.  One log, one order — recovery replays it front
    to back and ends with the same map and the same commit/abort
    outcomes every time."""

    def __init__(self):
        self.records: List[MapLogRecord] = []
        self._seq = itertools.count(1)

    def append(self, kind: str, **payload: Any) -> MapLogRecord:
        record = MapLogRecord(next(self._seq), kind, payload)
        self.records.append(record)
        return record

    def decision_of(self, txn_id: str) -> Optional[str]:
        """The recorded 2PC decision for ``txn_id`` — None means no
        decision record was written, which recovery reads as presumed
        abort."""
        for record in reversed(self.records):
            if record.kind == "2pc_decision" \
                    and record.payload.get("txn") == txn_id:
                return record.payload.get("decision")
        return None

    def of_kind(self, kind: str) -> List[MapLogRecord]:
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)
