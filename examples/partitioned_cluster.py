#!/usr/bin/env python3
"""Figure 2: a hash-partitioned cluster for write scalability.

Orders are hash-sharded across three replication groups (each internally
replicated for availability) behind one ``repro.shard.ShardedCluster``;
a reference table is global.  Point queries hit one group, analytics
scatter-gather across all of them, and writes proceed in parallel per
group — the RAID-0 analogy of section 2.1.

The groups certify writesets: a write that spans groups commits through
two-phase commit against each group's certifier.  So the statement the
paper's section 5.1 lists as an open problem for a partitioned front
end — an ``UPDATE`` whose WHERE clause does not name the partition key —
is not refused here: every group updates the rows it owns and the
groups commit together or not at all.
"""

from repro.bench.harness import build_sharded_cluster
from repro.shard import HashSharder
from repro.sqlengine import Engine

ORDERS = 30
SCHEMA = (
    "CREATE TABLE orders (id INT PRIMARY KEY, customer VARCHAR(20), "
    "total FLOAT)",
    "CREATE TABLE countries (code VARCHAR(4) PRIMARY KEY, name VARCHAR(30))",
)
KEYLESS_UPDATE = "UPDATE orders SET total = 0 WHERE customer = 'cust1'"


def order(order_id: int) -> str:
    return (f"INSERT INTO orders (id, customer, total) "
            f"VALUES ({order_id}, 'cust{order_id % 7}', {order_id * 1.5})")


def main() -> None:
    cluster = build_sharded_cluster(shards=3, replicas=2, name="part")
    session = cluster.connect(database="shop")

    # DDL is broadcast so every group has the schema; a table nobody
    # registers stays global (written everywhere, read anywhere).
    for ddl in SCHEMA:
        session.execute(ddl)
    cluster.register_table("orders", "id", HashSharder(3))

    # Writes spread across the groups by key.
    for order_id in range(ORDERS):
        session.execute(order(order_id))
    session.execute(
        "INSERT INTO countries (code, name) VALUES ('CH', 'Switzerland')")

    per_group = [group.replicas[0].engine.row_count("shop", "orders")
                 for group in cluster.groups]
    print("orders per group:", per_group)
    assert sum(per_group) == ORDERS and all(per_group)

    # Point query: routed to exactly one group.
    row = session.execute("SELECT customer, total FROM orders WHERE id = 17")
    print("point lookup (1 group):", row.rows)
    assert row.rows == [("cust3", 25.5)]

    # Scatter-gather analytics: intra-query parallelism across groups.
    count = session.execute("SELECT COUNT(*) FROM orders").scalar()
    total = session.execute("SELECT SUM(total) FROM orders").scalar()
    print(f"scatter-gather: {count} orders, total={total:.1f}")
    assert count == ORDERS
    assert total == sum(order_id * 1.5 for order_id in range(ORDERS))

    # The keyless write: every group updates its own rows, one 2PC
    # commits them all.  One engine holding the same rows is the judge.
    single = Engine("single").connect()
    single.execute("CREATE DATABASE shop")
    single.execute("USE shop")
    single.execute(SCHEMA[0])
    for order_id in range(ORDERS):
        single.execute(order(order_id))
    updated = session.execute(KEYLESS_UPDATE).rowcount
    print(f"keyless UPDATE: {updated} rows in one cross-group commit "
          f"(2pc commits: {cluster.stats['twopc_commits']})")
    assert updated == single.execute(KEYLESS_UPDATE).rowcount
    assert cluster.stats["twopc_commits"] == 1
    print("routing stats:", cluster.stats)

    # Each group is itself replicated and convergent.
    converged = cluster.check_convergence()
    print("all groups converged:", converged)
    assert converged
    session.close()


if __name__ == "__main__":
    main()
