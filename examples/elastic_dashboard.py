#!/usr/bin/env python3
"""Elastic throughput scaling and subcluster isolation (paper sections
4.2-4.3): a dashboard workload gains throughput as nodes are added, and an
ETL subcluster is isolated from the dashboard nodes.

Run with:  python examples/elastic_dashboard.py
"""

from repro import EonCluster
from repro.shell import format_table
from repro.wm import AdmissionController, PoolConfig
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)


def main() -> None:
    cluster = EonCluster([f"node{i}" for i in range(3)], shard_count=3, seed=5)
    setup_dashboard_schema(cluster)
    load_dashboard_data(cluster, n_events=20_000)

    sql = dashboard_query()
    print("Dashboard query result (top 5):")
    for row in cluster.query(sql).rows.to_pylist()[:5]:
        print("  ", row)

    # A swarm of clients runs the query on the real query path at each
    # cluster size; each query's modeled service time (from a warm run) is
    # stretched to the paper's ~100 ms.  The queue holds the whole backlog.
    cluster.admission = AdmissionController(
        cluster, PoolConfig(max_queue_depth=512, queue_timeout_seconds=3600.0)
    )
    scale = 0.1 / cluster.query(sql).stats.latency_seconds

    def per_minute(threads: int) -> float:
        return run_closed_loop(cluster, ClosedLoopWorkload(
            statements=(sql,), clients=threads, requests_per_client=2,
            service_scale=scale,
        )).per_minute

    threads_axis = [10, 30, 50, 70]
    rows = [[t, per_minute(t)] for t in threads_axis]
    for name in ("node3", "node4", "node5"):
        cluster.add_node(name)
    for row in rows:
        row.append(per_minute(row[0]))
    for name in ("node6", "node7", "node8"):
        cluster.add_node(name)
    for row in rows:
        row.append(per_minute(row[0]))
    print()
    print(format_table(
        "Elastic throughput scaling (queries/minute, 3 shards)",
        ["threads", "3 nodes", "6 nodes", "9 nodes"], rows,
    ))

    # Subcluster isolation: the ETL nodes never serve dashboard queries.
    cluster.define_subcluster("dash", ["node0", "node1", "node2"])
    cluster.define_subcluster("etl", ["node6", "node7", "node8"])
    result = cluster.query(sql, subcluster="dash")
    print("\nDashboard session executed on:", sorted(result.stats.per_node))
    etl = cluster.query(sql, subcluster="etl")
    print("ETL session executed on:      ", sorted(etl.stats.per_node))


if __name__ == "__main__":
    main()
