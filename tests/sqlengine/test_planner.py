"""Planner, EXPLAIN and parse-cache behavior.

The planner's contract is superset-safety: it may only turn a WHERE
clause into probe keys or a key range when the candidates provably
contain every row the full predicate accepts.  These tests pin the
extraction rules (equality and IN conjuncts probe, BETWEEN and
``< <= > >=`` conjuncts walk a range, OR and ``<>`` fall back to scans),
the index-choice ranking, the EXPLAIN surface, and the LRU eviction of
the parse cache.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Engine, ParseError, generic, parse
from repro.sqlengine.expressions import EvalContext
from repro.sqlengine.planner import (
    INDEX_PROBE, INDEX_RANGE, SEQ_SCAN, equality_candidates,
    plan_table_access, plan_table_access_cached, range_candidates,
)


@pytest.fixture
def table(conn):
    conn.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, sku VARCHAR UNIQUE, "
        "qty INT, region VARCHAR)")
    conn.execute("CREATE INDEX idx_region ON items (region)")
    for i in range(10):
        conn.execute("INSERT INTO items VALUES (?, ?, ?, ?)",
                     [i, f"sku{i}", i, f"r{i % 3}"])
    return conn.engine.database("shop").table("items")


def where_of(sql: str):
    return parse(sql).where


def plan(table, sql: str, params=None):
    ctx = EvalContext(None, None, params=params or [])
    return plan_table_access(table, "items", where_of(sql), ctx)


class TestConjunctExtraction:
    def test_simple_equality(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE id = 3"), "items", table)
        assert set(candidates) == {"id"}

    def test_reversed_and_qualified_equality(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE 3 = items.id"),
            "items", table)
        assert set(candidates) == {"id"}

    def test_in_list_and_and_chain(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE region IN ('r0', 'r1') "
                     "AND qty > 2 AND id = 1"), "items", table)
        assert set(candidates) == {"region", "id"}
        assert len(candidates["region"]) == 2

    def test_or_is_not_extracted(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE id = 1 OR id = 2"),
            "items", table)
        assert candidates == {}

    def test_column_to_column_equality_ignored(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE id = qty"), "items", table)
        assert candidates == {}

    def test_negated_in_ignored(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE id NOT IN (1, 2)"),
            "items", table)
        assert candidates == {}

    def test_other_binding_ignored(self, table):
        candidates = equality_candidates(
            where_of("SELECT * FROM items WHERE other.id = 1"),
            "items", table)
        assert candidates == {}

    def test_range_conjuncts_either_operand_order(self, table):
        candidates = range_candidates(
            where_of("SELECT * FROM items WHERE id BETWEEN 2 AND ? "
                     "AND 7 > items.id AND qty >= -1 AND id <> 4"),
            "items", table)
        assert set(candidates) == {"id", "qty"}
        lows, highs = candidates["id"]
        assert [after for _expr, after in lows] == [False]
        # `7 > id` is `id < 7`: stops before 7; BETWEEN's end stops after
        assert sorted(after for _expr, after in highs) == [False, True]

    def test_negated_between_or_and_columns_are_not_ranges(self, table):
        for predicate in ("id NOT BETWEEN 1 AND 3", "id > 1 OR id < 0",
                          "id > qty", "other.id > 1", "id + 1 > 2"):
            assert range_candidates(
                where_of(f"SELECT * FROM items WHERE {predicate}"),
                "items", table) == {}, predicate


class TestPlanChoice:
    def test_pk_equality_plans_unique_probe(self, table):
        p = plan(table, "SELECT * FROM items WHERE id = 3")
        assert p.kind == INDEX_PROBE
        assert p.index.name == "items_pkey"
        assert p.keys == [(3,)]

    def test_param_value_probes(self, table):
        p = plan(table, "SELECT * FROM items WHERE id = ?", params=[7])
        assert p.kind == INDEX_PROBE
        assert p.keys == [(7,)]

    def test_unique_index_preferred_over_secondary(self, table):
        p = plan(table, "SELECT * FROM items "
                        "WHERE sku = 'sku1' AND region = 'r1'")
        assert p.kind == INDEX_PROBE
        assert p.index.unique

    def test_in_list_expands_to_keys(self, table):
        p = plan(table, "SELECT * FROM items WHERE id IN (1, 2, 3)")
        assert p.kind == INDEX_PROBE
        assert sorted(p.keys) == [(1,), (2,), (3,)]

    def test_unindexed_column_scans(self, table):
        p = plan(table, "SELECT * FROM items WHERE qty = 5")
        assert p.kind == SEQ_SCAN

    def test_inequality_scans(self, table):
        p = plan(table, "SELECT * FROM items WHERE id <> 5")
        assert p.kind == SEQ_SCAN

    def test_range_conjuncts_plan_a_key_slice(self, table):
        p = plan(table, "SELECT * FROM items WHERE id > 5")
        assert (p.kind, p.index.name) == (INDEX_RANGE, "items_pkey")
        assert [p.index.ordered[i] for i in p.keys] == [(6,), (7,), (8,), (9,)]
        p = plan(table, "SELECT * FROM items WHERE id BETWEEN ? AND 6.5 "
                        "AND 2 <= id", params=[1])
        assert [p.index.ordered[i] for i in p.keys] \
            == [(2,), (3,), (4,), (5,), (6,)]
        assert not p.is_index       # dependants stay table-level

    def test_equality_probe_beats_range(self, table):
        p = plan(table, "SELECT * FROM items WHERE id > 5 AND sku = 'sku7'")
        assert p.kind == INDEX_PROBE

    def test_two_sided_then_unique_range_wins(self, table):
        p = plan(table, "SELECT * FROM items WHERE id > 5 "
                        "AND region BETWEEN 'r0' AND 'r1'")
        assert (p.kind, p.index.name) == (INDEX_RANGE, "idx_region")
        p = plan(table, "SELECT * FROM items WHERE region > 'r0' "
                        "AND sku > 'sku3'")
        assert (p.kind, p.index.name) == (INDEX_RANGE, "items_sku_key")

    @pytest.mark.parametrize("predicate", [
        "id BETWEEN '3' AND '9'",       # the row compare converts, keys don't
        "id >= TRUE", "sku > 3", "qty > 1",
    ])
    def test_bound_of_another_kind_scans(self, table, predicate):
        p = plan(table, f"SELECT * FROM items WHERE {predicate}")
        assert p.kind == SEQ_SCAN

    def test_null_bound_is_the_empty_range(self, table):
        p = plan(table, "SELECT * FROM items WHERE id > ?", params=[None])
        assert p.kind == INDEX_RANGE and len(p.keys) == 0

    def test_value_coerced_to_column_type(self, table):
        p = plan(table, "SELECT * FROM items WHERE id = '3'")
        assert p.kind == INDEX_PROBE
        assert p.keys == [(3,)]

    def test_uncoercible_value_scans(self, table):
        p = plan(table, "SELECT * FROM items WHERE id = 'nope'")
        assert p.kind == SEQ_SCAN

    def test_null_key_dropped(self, table):
        p = plan(table, "SELECT * FROM items WHERE id IN (1, NULL)")
        assert p.kind == INDEX_PROBE
        assert p.keys == [(1,)]

    def test_oversized_in_list_scans(self, table):
        values = ", ".join(str(i) for i in range(100))
        p = plan(table, f"SELECT * FROM items WHERE id IN ({values})")
        assert p.kind == SEQ_SCAN

    def test_probe_is_superset_residual_filters(self, conn, table):
        # the probe binds only `id`; the residual predicate on qty must
        # still be applied to the candidate rows
        result = conn.execute(
            "SELECT id FROM items WHERE id IN (1, 2, 3) AND qty >= 2")
        assert sorted(r[0] for r in result.rows) == [2, 3]


class TestExplain:
    def test_explain_select_does_not_execute(self, conn, table):
        before = conn.engine.stats["rows_scanned"]
        result = conn.execute("EXPLAIN SELECT * FROM items WHERE id = 1")
        assert result.columns == ["operation", "table", "access_path", "keys"]
        op, tbl, path, keys = result.rows[0]
        assert (op, tbl) == ("SELECT", "items")
        assert path.startswith("index-probe")
        assert keys == 1
        assert conn.engine.stats["rows_scanned"] == before

    def test_explain_scan_and_update(self, conn, table):
        scan = conn.execute("EXPLAIN SELECT * FROM items WHERE qty > 1")
        assert scan.rows[0][2] == "seq-scan"
        update = conn.execute(
            "EXPLAIN UPDATE items SET qty = 0 WHERE id = 1")
        assert update.rows[0][0] == "UPDATE"
        assert update.rows[0][2].startswith("index-probe")
        # nothing was updated
        assert conn.execute(
            "SELECT qty FROM items WHERE id = 1").scalar() == 1

    def test_explain_range_counts_keys_without_visiting(self, conn, table):
        before = dict(conn.engine.stats)
        result = conn.execute(
            "EXPLAIN SELECT * FROM items WHERE id BETWEEN 2 AND 7")
        assert result.rows == [
            ("SELECT", "items", "index-range (items_pkey)", 6)]
        assert conn.engine.stats["rows_scanned"] == before["rows_scanned"]
        conn.execute("SELECT * FROM items WHERE id BETWEEN 2 AND 7")
        assert conn.engine.executor.last_access_paths \
            == ["index-range items.items_pkey (id) keys=6"]
        assert conn.engine.stats["rows_scanned"] \
            == before["rows_scanned"] + 6
        assert conn.engine.stats["seq_scans"] == before["seq_scans"]

    def test_explain_rejects_ddl(self, conn, table):
        with pytest.raises(ParseError):
            conn.execute("EXPLAIN DROP TABLE items")

    def test_disabling_indexes_forces_scans(self, conn, table):
        conn.engine.use_indexes = False
        result = conn.execute("EXPLAIN SELECT * FROM items WHERE id = 1")
        assert result.rows[0][2] == "seq-scan"
        assert conn.execute(
            "SELECT qty FROM items WHERE id = 1").scalar() == 1


class TestParseCacheLRU:
    def test_hit_and_miss_accounting(self):
        engine = Engine("lru", dialect=generic())
        engine.parse("SELECT 1")
        engine.parse("SELECT 1")
        assert engine.stats["parse_cache_misses"] == 1
        assert engine.stats["parse_cache_hits"] == 1

    def test_capacity_evicts_least_recently_used(self):
        engine = Engine("lru", dialect=generic(), parse_cache_capacity=3)
        for n in range(3):
            engine.parse(f"SELECT {n}")
        engine.parse("SELECT 0")       # refresh 0: now 1 is the LRU entry
        engine.parse("SELECT 99")      # evicts 1
        assert "SELECT 1" not in engine._parse_cache
        assert "SELECT 0" in engine._parse_cache
        assert len(engine._parse_cache) == 3
        hits = engine.stats["parse_cache_hits"]
        engine.parse("SELECT 1")       # re-parse, not a hit
        assert engine.stats["parse_cache_hits"] == hits

    def test_cache_never_exceeds_capacity(self):
        engine = Engine("lru", dialect=generic(), parse_cache_capacity=8)
        for n in range(50):
            engine.parse(f"SELECT {n}")
        assert len(engine._parse_cache) == 8


# -- the access-shape memo against the per-call planner ---------------------

_COLUMNS = ("id", "items.id", "sku", "qty", "region", "items.region")
_VALUES = ("1", "7", "'sku3'", "'r1'", "NULL", "?", "1 + 1")
_ATOMS = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_COLUMNS),
              st.sampled_from(_VALUES)),
    st.builds("{} = {}".format, st.sampled_from(_VALUES),
              st.sampled_from(_COLUMNS)),
    st.builds("{} IN ({})".format, st.sampled_from(_COLUMNS),
              st.lists(st.sampled_from(_VALUES), min_size=1,
                       max_size=3).map(", ".join)),
    st.builds("{} {} {}".format, st.sampled_from(_COLUMNS),
              st.sampled_from(("<", "<=", ">", ">=", "<>")),
              st.sampled_from(_VALUES)),
    st.builds("{} {} {}".format, st.sampled_from(_VALUES),
              st.sampled_from(("<", "<=", ">", ">=")),
              st.sampled_from(_COLUMNS)),
    st.builds("{} {}BETWEEN {} AND {}".format, st.sampled_from(_COLUMNS),
              st.sampled_from(("", "NOT ")), st.sampled_from(_VALUES),
              st.sampled_from(_VALUES)),
)
_WHERES = st.recursive(
    _ATOMS,
    lambda inner: st.builds("({} {} {})".format, inner,
                            st.sampled_from(("AND", "AND", "OR")), inner),
    max_leaves=5)
_SCHEMA_CHANGES = (
    "CREATE INDEX idx_qty ON items (qty)",
    "DROP INDEX idx_region",
    "ALTER TABLE items ADD COLUMN note VARCHAR",
    "CREATE INDEX idx_rq ON items (region, qty)",
)


def _plan_facts(access_plan):
    return (access_plan.kind,
            access_plan.index.name if access_plan.index else None,
            sorted(access_plan.keys, key=repr))


@settings(max_examples=60, deadline=None)
@given(where_sql=_WHERES,
       params=st.lists(st.sampled_from((1, 7, "r1", "sku3", None)),
                       max_size=6),
       changes=st.permutations(_SCHEMA_CHANGES))
def test_cached_planner_is_the_reference_planner(where_sql, params, changes):
    """One WHERE tree, planned before and after every schema change: the
    memoized planner revalidates its shape against ``schema_epoch`` and
    so agrees with the per-call compile every time."""
    engine = Engine("shapes", dialect=generic())
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, sku VARCHAR UNIQUE, "
        "qty INT, region VARCHAR)")
    conn.execute("CREATE INDEX idx_region ON items (region)")
    items = engine.database("shop").table("items")
    where = where_of(f"SELECT * FROM items WHERE {where_sql}")
    ctx = EvalContext(None, None, params=params)
    for change in ("SELECT 1",) + tuple(changes):
        conn.execute(change)
        for _repeat in range(2):
            cached = plan_table_access_cached(items, "items", where, ctx)
            reference = plan_table_access(items, "items", where, ctx)
            assert _plan_facts(cached) == _plan_facts(reference)
    assert len(items.access_shapes) <= 1


class TestAccessShapeMemo:
    def test_shapes_die_with_their_engine(self):
        engine = Engine("doomed", dialect=generic())
        engine.create_database("shop")
        conn = engine.connect(database="shop")
        conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        conn.execute("INSERT INTO kv VALUES (1, 10)")
        assert conn.execute("SELECT v FROM kv WHERE k = 1").scalar() == 10
        assert engine.stats["index_probes"] >= 1
        table_ref = weakref.ref(engine.database("shop").table("kv"))
        conn.close()
        del conn, engine
        gc.collect()
        # nothing outside the engine — no module-level memo — keeps its
        # rows and version chains reachable
        assert table_ref() is None

    def test_self_join_compiles_once_per_binding(self, conn):
        conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        for k in range(4):
            conn.execute("INSERT INTO kv VALUES (?, ?)", [k, k * 10])
        shapes = conn.engine.database("shop").table("kv").access_shapes
        misses, hits = shapes.misses, shapes.hits
        for n in range(100):
            assert conn.execute(
                "SELECT a.v, b.v FROM kv a JOIN kv b ON a.v <> b.v "
                "WHERE a.k = ? AND b.k = ?", [n % 4, (n + 1) % 4]).rows \
                == [(n % 4 * 10, (n + 1) % 4 * 10)]
        # one shape per binding, compiled once each, hit ever after
        assert shapes.misses - misses == 2
        assert shapes.hits - hits == 198
        assert len(shapes) == 2
