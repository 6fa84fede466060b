"""Partitioned clusters (Figure 2) and WAN multi-site (Figure 4) tests."""

import pytest

from repro.core import (
    HashPartitioner, ListPartitioner, MiddlewareConfig, PartitionedCluster,
    RangePartitioner, ReplicationMiddleware, Site, UnsupportedStatementError,
    WanSystem,
)

from tests.conftest import make_replicas


ORDERS_SCHEMA = [
    "CREATE TABLE orders (id INT PRIMARY KEY, region VARCHAR(8), total FLOAT)",
    "CREATE TABLE ref (code VARCHAR(4) PRIMARY KEY, label VARCHAR(20))",
]


def partitioned(groups=3):
    middlewares = []
    for index in range(groups):
        replicas = make_replicas(2, schema=ORDERS_SCHEMA,
                                 prefix=f"g{index}_")
        middlewares.append(ReplicationMiddleware(
            replicas, MiddlewareConfig(replication="statement"),
            name=f"g{index}"))
    cluster = PartitionedCluster(middlewares)
    cluster.register_table("orders", "id", HashPartitioner(groups))
    return cluster


class TestPartitioners:
    def test_hash_stable_and_in_range(self):
        partitioner = HashPartitioner(4)
        for value in (0, 1, 17, "abc", "zzz"):
            p = partitioner.partition_for(value)
            assert 0 <= p < 4
            assert p == partitioner.partition_for(value)

    def test_range_partitioner(self):
        partitioner = RangePartitioner([100, 200])
        assert partitioner.partition_for(50) == 0
        assert partitioner.partition_for(100) == 0
        assert partitioner.partition_for(150) == 1
        assert partitioner.partition_for(999) == 2

    def test_list_partitioner(self):
        partitioner = ListPartitioner([["eu", "uk"], ["us"], ["asia"]])
        assert partitioner.partition_for("eu") == 0
        assert partitioner.partition_for("us") == 1
        from repro.core import MiddlewareError
        with pytest.raises(MiddlewareError):
            partitioner.partition_for("mars")


class TestPartitionedCluster:
    def test_writes_spread_by_key(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        for order in range(12):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', 1.0)")
        counts = [g.replicas[0].engine.row_count("shop", "orders")
                  for g in cluster.groups]
        assert sum(counts) == 12
        assert all(count > 0 for count in counts)
        session.close()

    def test_point_query_single_partition(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        session.execute(
            "INSERT INTO orders (id, region, total) VALUES (7, 'eu', 5.5)")
        before = cluster.stats["single_partition"]
        row = session.execute("SELECT total FROM orders WHERE id = 7")
        assert row.scalar() == 5.5
        assert cluster.stats["single_partition"] == before + 1
        session.close()

    def test_in_list_routing(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        for order in range(9):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', {order}.0)")
        result = session.execute(
            "SELECT COUNT(*) FROM orders WHERE id IN (1, 2, 3)")
        assert result.scalar() == 3
        session.close()

    def test_scatter_gather_aggregates(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        for order in range(10):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', 2.0)")
        assert session.execute(
            "SELECT COUNT(*) FROM orders").scalar() == 10
        assert session.execute(
            "SELECT SUM(total) FROM orders").scalar() == 20.0
        assert session.execute(
            "SELECT MAX(total), MIN(total) FROM orders").rows[0] == (2.0, 2.0)
        session.close()

    def test_scatter_gather_rows_with_order(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        for order in range(6):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', {10 - order}.0)")
        result = session.execute(
            "SELECT id, total FROM orders ORDER BY total")
        totals = [row[1] for row in result.rows]
        assert totals == sorted(totals)
        session.close()

    def test_scatter_avg_weighted_not_average_of_averages(self):
        # partitions hold different row counts, so averaging the
        # per-partition averages would be wrong; the shared scatter
        # planner rewrites AVG to SUM + COUNT (satellite of the shard
        # tier: one merge path for both stacks)
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        values = [1.0, 1.0, 1.0, 1.0, 10.0]
        for order, total in enumerate(values):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', {total})")
        assert session.execute(
            "SELECT AVG(total) FROM orders").scalar() == \
            sum(values) / len(values)
        session.close()

    def test_scatter_limit_reapplied_after_global_sort(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        for order in range(9):
            session.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', {order}.0)")
        result = session.execute(
            "SELECT id FROM orders ORDER BY total DESC LIMIT 2")
        # a per-partition LIMIT would return each partition's top-2;
        # the merged result must be the global top-2
        assert [row[0] for row in result.rows] == [8, 7]
        session.close()

    def test_keyless_write_refused(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        with pytest.raises(UnsupportedStatementError):
            session.execute("UPDATE orders SET total = 0")
        session.close()

    def test_global_table_broadcast(self):
        cluster = partitioned(3)
        session = cluster.connect(database="shop")
        session.execute("INSERT INTO ref (code, label) VALUES ('A', 'alpha')")
        for group in cluster.groups:
            assert group.replicas[0].engine.row_count("shop", "ref") == 1
        session.close()

    def test_groups_internally_replicated(self):
        cluster = partitioned(2)
        session = cluster.connect(database="shop")
        session.execute(
            "INSERT INTO orders (id, region, total) VALUES (4, 'eu', 1.0)")
        session.close()
        assert cluster.check_convergence()


class TestWan:
    def make_wan(self):
        sites = []
        for name in ("eu", "us"):
            replicas = make_replicas(2, schema=ORDERS_SCHEMA,
                                     prefix=f"{name}_")
            mw = ReplicationMiddleware(
                replicas, MiddlewareConfig(replication="statement"),
                name=name)
            sites.append(Site(name, mw, [name]))
        return WanSystem(sites, region_column="region")

    def test_writes_route_to_owner(self):
        wan = self.make_wan()
        client = wan.connect("eu", database="shop")
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (1, 'eu', 1.0)")
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (2, 'us', 2.0)")
        assert wan.stats["local_writes"] == 1
        assert wan.stats["remote_writes"] == 1
        eu = wan.site_by_name("eu").middleware.replicas[0].engine
        us = wan.site_by_name("us").middleware.replicas[0].engine
        assert eu.row_count("shop", "orders") == 1
        assert us.row_count("shop", "orders") == 1
        client.close()

    def test_async_shipping_converges_sites(self):
        wan = self.make_wan()
        client = wan.connect("eu", database="shop")
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (1, 'eu', 1.0)")
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (2, 'us', 2.0)")
        wan.ship_updates()
        for site in wan.sites:
            engine = site.middleware.replicas[0].engine
            assert engine.row_count("shop", "orders") == 2
        client.close()

    def test_reads_are_site_local_and_stale(self):
        wan = self.make_wan()
        eu_client = wan.connect("eu", database="shop")
        us_client = wan.connect("us", database="shop")
        us_client.execute(
            "INSERT INTO orders (id, region, total) VALUES (9, 'us', 1.0)")
        # before shipping, EU does not see it
        assert eu_client.execute(
            "SELECT COUNT(*) FROM orders").scalar() == 0
        wan.ship_updates()
        assert eu_client.execute(
            "SELECT COUNT(*) FROM orders").scalar() == 1
        eu_client.close()
        us_client.close()

    def test_disaster_moves_ownership_and_counts_loss(self):
        wan = self.make_wan()
        client = wan.connect("us", database="shop")
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (1, 'us', 1.0)")
        report = wan.site_disaster("us")
        assert report["lost_updates"] == 1  # never shipped
        assert report["new_owner"] == "eu"
        # EU now accepts US-region writes
        eu_client = wan.connect("eu", database="shop")
        eu_client.execute(
            "INSERT INTO orders (id, region, total) VALUES (2, 'us', 2.0)")
        eu_client.close()
        client.close()

    def test_site_recovery_catches_up(self):
        wan = self.make_wan()
        wan.site_disaster("us")
        eu_client = wan.connect("eu", database="shop")
        eu_client.execute(
            "INSERT INTO orders (id, region, total) VALUES (3, 'eu', 1.0)")
        replayed = wan.site_recovered("us")
        assert replayed == 1
        us_engine = wan.site_by_name("us").middleware.replicas[0].engine
        assert us_engine.row_count("shop", "orders") == 1
        eu_client.close()

    def test_backlog_counts_unshipped(self):
        wan = self.make_wan()
        client = wan.connect("eu", database="shop")
        for order in range(3):
            client.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', 1.0)")
        assert wan.unshipped_backlog("eu") == 3
        wan.ship_updates()
        assert wan.unshipped_backlog("eu") == 0
        client.close()

    def test_unshipped_tail_holds_the_log(self):
        """A shipping cursor is a named checkpoint of the site's
        recovery log: what has not crossed the WAN yet is never purged,
        and once shipped the log is cut like any other."""
        wan = self.make_wan()
        eu = wan.site_by_name("eu").middleware
        eu.config.retention_watermark = 8
        client = wan.connect("eu", database="shop")
        for order in range(30):
            client.execute(
                f"INSERT INTO orders (id, region, total) "
                f"VALUES ({order}, 'eu', 1.0)")
        assert eu.retention()["holder"] == "checkpoint:wan:us"
        assert len(eu.recovery_log.entries) >= 30
        assert wan.ship_updates() == 30
        client.execute(
            "INSERT INTO orders (id, region, total) VALUES (99, 'eu', 1.0)")
        assert len(eu.recovery_log.entries) <= 8
        assert wan.ship_updates() == 1
        us_engine = wan.site_by_name("us").middleware.replicas[0].engine
        assert us_engine.row_count("shop", "orders") == 31
        client.close()
