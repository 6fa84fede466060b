"""WAN multi-site (Figure 4) tests.  Figure 2, the partitioned front
door, is ``repro.shard``: its tests are ``tests/shard/``."""

import pytest

from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, Site, WanSystem,
)

from tests.conftest import make_replicas


ORDERS_SCHEMA = [
    "CREATE TABLE orders (id INT PRIMARY KEY, region VARCHAR(8), total FLOAT)",
    "CREATE TABLE ref (code VARCHAR(4) PRIMARY KEY, label VARCHAR(20))",
    "CREATE TABLE cnt (id INT PRIMARY KEY, region VARCHAR(8), n INT)",
]


class TestWan:
    def make_wan(self, replication="statement"):
        sites = []
        for name in ("eu", "us"):
            replicas = make_replicas(2, schema=ORDERS_SCHEMA,
                                     prefix=f"{name}_")
            mw = ReplicationMiddleware(
                replicas, MiddlewareConfig(replication=replication),
                name=name)
            sites.append(Site(name, mw, [name]))
        return WanSystem(sites, region_column="region")

    @pytest.mark.parametrize("replication", ["statement", "writeset"])
    def test_a_script_runs_each_statement_once(self, replication):
        """Two increments in one text are two increments — at the owner,
        and at the other site once shipped: each statement travels, and
        is logged, under its own text, never the script's."""
        wan = self.make_wan(replication)
        client = wan.connect("eu", database="shop")
        client.execute(
            "INSERT INTO cnt (id, region, n) VALUES (1, 'us', 0)")
        bump = "UPDATE cnt SET n = n + 1 WHERE id = 1 AND region = 'us'"
        client.execute(f"{bump}; {bump}")
        count = "SELECT n FROM cnt WHERE id = 1"
        us_client = wan.connect("us", database="shop")
        assert us_client.execute(count).scalar() == 2
        wan.ship_updates()
        assert client.execute(count).scalar() == 2
        for site in wan.sites:
            assert site.middleware.check_convergence()
        client.close()
        us_client.close()

    def test_a_regionless_script_is_broadcast_once_per_site(self):
        wan = self.make_wan()
        client = wan.connect("eu", database="shop")
        client.execute(
            "INSERT INTO ref (code, label) VALUES ('A', 'alpha'); "
            "INSERT INTO ref (code, label) VALUES ('B', 'beta')")
        for site in wan.sites:
            for replica in site.middleware.replicas:
                assert replica.engine.row_count("shop", "ref") == 2
        client.close()

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
