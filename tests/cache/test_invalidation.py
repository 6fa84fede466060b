"""The writeset-driven invalidator: key-granular kills, watermark
advance, opaque flushes, and the bounded-history fill guard."""

from repro.cache import (
    CertifiedWrite, ReadDependencies, ResultCache, WritesetInvalidator,
)
from repro.core.writesets import invalidation_keys
from repro.sqlengine.executor import Result
from tests.conftest import KV_SCHEMA, make_replicas, seed_kv

from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, protocol_by_name,
)


def fill(cache, name, deps, seq=0):
    key = (name,)
    cache.put(key, Result(columns=["v"], rows=[(1,)], rowcount=1),
              deps, fill_seq=seq)
    return key


def point_deps(pk):
    return ReadDependencies(
        frozenset({("shop", "kv")}),
        point_keys=frozenset({("shop", "kv", pk)}),
        point_tables=frozenset({("shop", "kv")}))


BROAD = ReadDependencies(frozenset({("shop", "kv")}))


class TestStream:
    def test_point_event_kills_matching_entry_only(self):
        cache = ResultCache()
        inv = WritesetInvalidator(cache)
        k1 = fill(cache, "one", point_deps((1,)))
        k2 = fill(cache, "two", point_deps((2,)))
        inv.on_certified(CertifiedWrite(
            seq=1, keys=frozenset({("shop", "kv", (1,))})))
        assert cache.peek(k1) is None
        assert cache.peek(k2) is not None
        assert inv.applied_seq == 1

    def test_table_level_key_kills_everything_on_the_table(self):
        cache = ResultCache()
        inv = WritesetInvalidator(cache)
        k1 = fill(cache, "one", point_deps((1,)))
        scan = fill(cache, "scan", BROAD)
        inv.on_certified(CertifiedWrite(
            seq=1, keys=frozenset({("shop", "kv", None)})))
        assert cache.peek(k1) is None and cache.peek(scan) is None

    def test_opaque_kinds_flush_the_cache(self):
        for kind in ("ddl", "opaque"):
            cache = ResultCache()
            inv = WritesetInvalidator(cache)
            fill(cache, "one", point_deps((1,)))
            inv.on_certified(CertifiedWrite(seq=5, kind=kind))
            assert len(cache) == 0
            assert inv.applied_seq == 5

    def test_empty_footprint_still_advances_the_watermark(self):
        inv = WritesetInvalidator(ResultCache())
        inv.on_certified(CertifiedWrite(seq=3, kind="statements"))
        assert inv.applied_seq == 3

    def test_reset_flushes_and_realigns(self):
        cache = ResultCache()
        inv = WritesetInvalidator(cache)
        fill(cache, "one", BROAD)
        inv.on_certified(CertifiedWrite(seq=1, keys=frozenset()))
        inv.reset(9)
        assert len(cache) == 0
        assert inv.applied_seq == 9
        # nothing cached at reset time -> no gratuitous flush count bump
        flushes = cache.stats["flushes"]
        inv.reset(10)
        assert cache.stats["flushes"] == flushes


class TestFillGuard:
    def test_no_writes_since_means_no_conflict(self):
        inv = WritesetInvalidator(ResultCache())
        inv.on_certified(CertifiedWrite(seq=1, keys=frozenset()))
        assert inv.conflicts_since(1, BROAD) is False
        assert inv.conflicts_since(5, BROAD) is False

    def test_overlapping_write_in_window_conflicts(self):
        inv = WritesetInvalidator(ResultCache())
        inv.on_certified(CertifiedWrite(
            seq=2, keys=frozenset({("shop", "kv", (1,))})))
        assert inv.conflicts_since(1, point_deps((1,))) is True
        assert inv.conflicts_since(1, BROAD) is True

    def test_disjoint_write_in_window_does_not_conflict(self):
        inv = WritesetInvalidator(ResultCache())
        inv.on_certified(CertifiedWrite(
            seq=2, keys=frozenset({("shop", "kv", (9,))})))
        assert inv.conflicts_since(1, point_deps((1,))) is False
        inv.on_certified(CertifiedWrite(
            seq=3, keys=frozenset({("shop", "other", None)})))
        assert inv.conflicts_since(1, point_deps((1,))) is False

    def test_opaque_event_conflicts_with_everything(self):
        inv = WritesetInvalidator(ResultCache())
        inv.on_certified(CertifiedWrite(seq=2, kind="opaque"))
        assert inv.conflicts_since(1, point_deps((1,))) is True

    def test_window_past_history_is_unknown(self):
        inv = WritesetInvalidator(ResultCache(), history_limit=2)
        for seq in range(1, 6):
            inv.on_certified(CertifiedWrite(
                seq=seq, keys=frozenset({("shop", "kv", (seq,))})))
        # history holds seqs {4, 5}; floor is 3
        assert inv.conflicts_since(4, point_deps((5,))) is True
        assert inv.conflicts_since(4, point_deps((1,))) is False
        assert inv.conflicts_since(2, point_deps((1,))) is None


class TestInvalidationKeys:
    def test_pk_changing_update_also_kills_destination_key(
            self, writeset_cluster):
        engine = writeset_cluster.replicas[0].engine
        entries = [{
            "database": "shop", "table": "kv", "op": "UPDATE",
            "primary_key": (1,), "old_values": {"k": 1, "v": 0},
            "new_values": {"k": 11, "v": 0},
        }]
        keys = invalidation_keys(entries, engine)
        assert ("shop", "kv", (1,)) in keys
        assert ("shop", "kv", (11,)) in keys

    def test_plain_update_keeps_one_key(self, writeset_cluster):
        engine = writeset_cluster.replicas[0].engine
        entries = [{
            "database": "shop", "table": "kv", "op": "UPDATE",
            "primary_key": (1,), "old_values": {"k": 1, "v": 0},
            "new_values": {"k": 1, "v": 5},
        }]
        assert invalidation_keys(entries, engine) == \
            frozenset({("shop", "kv", (1,))})


def cached_cluster(replication="writeset", consistency="gsi",
                   propagation="sync"):
    from repro.cache import ResultCacheConfig
    replicas = make_replicas(3, schema=KV_SCHEMA)
    middleware = ReplicationMiddleware(
        replicas,
        MiddlewareConfig(replication=replication, propagation=propagation,
                         consistency=protocol_by_name(consistency),
                         result_cache=ResultCacheConfig()))
    middleware.interleave_auto_increment()
    seed_kv(middleware)
    return middleware


class TestEndToEnd:
    def test_update_invalidates_only_the_written_key(self):
        mw = cached_cluster()
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        s.execute("SELECT v FROM kv WHERE k = 2")
        s.execute("UPDATE kv SET v = 99 WHERE k = 1")
        r1 = s.execute("SELECT v FROM kv WHERE k = 1")
        assert not getattr(r1, "from_cache", False)
        assert r1.rows == [(99,)]
        r2 = s.execute("SELECT v FROM kv WHERE k = 2")
        assert getattr(r2, "from_cache", False)
        s.close()

    def test_insert_invalidates_broad_scans(self):
        mw = cached_cluster()
        s = mw.connect(database="shop")
        before = s.execute("SELECT COUNT(*) FROM kv").scalar()
        s.execute("INSERT INTO kv (k, v) VALUES (100, 1)")
        after = s.execute("SELECT COUNT(*) FROM kv")
        assert not getattr(after, "from_cache", False)
        assert after.scalar() == before + 1
        s.close()

    def test_cached_range_read_dies_with_any_write_to_its_table(self):
        """A range walk is not a point proof (``is_index`` stays
        equality-only), so the cached read depends on the whole table: a
        key-unchanged UPDATE inside the range and an INSERT into it both
        invalidate."""
        mw = cached_cluster()
        s = mw.connect(database="shop")
        for k in (15, 20, 25):
            s.execute("INSERT INTO kv (k, v) VALUES (?, 1)", [k])
        sql = "SELECT COUNT(*), SUM(v) FROM kv WHERE k BETWEEN 10 AND 20"
        assert s.execute(sql).rows == [(2, 2)]
        assert getattr(s.execute(sql), "from_cache", False)
        s.execute("UPDATE kv SET v = 5 WHERE k = 15")
        after_update = s.execute(sql)
        assert not getattr(after_update, "from_cache", False)
        assert after_update.rows == [(2, 6)]
        assert getattr(s.execute(sql), "from_cache", False)
        s.execute("INSERT INTO kv (k, v) VALUES (12, 7)")
        after_insert = s.execute(sql)
        assert not getattr(after_insert, "from_cache", False)
        assert after_insert.rows == [(3, 13)]
        s.close()

    def test_ddl_flushes_the_cache(self):
        mw = cached_cluster()
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        assert len(mw.result_cache) == 1
        s.execute("CREATE TABLE extra (id INT PRIMARY KEY)")
        assert len(mw.result_cache) == 0
        s.close()

    def test_pk_changing_update_kills_both_keys_end_to_end(self):
        mw = cached_cluster()
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 2")
        s.execute("SELECT v FROM kv WHERE k = 42")  # empty result, cached
        s.execute("UPDATE kv SET k = 42 WHERE k = 2")
        moved = s.execute("SELECT v FROM kv WHERE k = 42")
        assert not getattr(moved, "from_cache", False)
        assert moved.rows == [(0,)]
        s.close()

    def test_statement_mode_point_footprints(self):
        mw = cached_cluster(replication="statement",
                            consistency="strong-session-si")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        s.execute("SELECT v FROM kv WHERE k = 2")
        s.execute("UPDATE kv SET v = v + 1 WHERE k = 2")
        r1 = s.execute("SELECT v FROM kv WHERE k = 1")
        assert getattr(r1, "from_cache", False)
        r2 = s.execute("SELECT v FROM kv WHERE k = 2")
        assert not getattr(r2, "from_cache", False)
        assert r2.rows == [(1,)]
        s.close()
