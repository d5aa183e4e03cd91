"""Observability walkthrough: trace a TPC-H query end to end.

Run via ``make obs-demo`` (or ``PYTHONPATH=src python examples/obs_demo.py``).

Builds a small 4-node Eon cluster over simulated S3, loads a tiny TPC-H
dataset, turns observability on, and then:

1. runs TPC-H Q1 cold (cache bypassed) and warm, printing the span tree —
   the query span, one fragment span per participant, and one ``s3_get``
   leaf per shared-storage fetch;
2. prints the per-operator profile of the last query;
3. prints the cluster-wide depot/S3 metrics summary;
4. shows the same numbers answered through plain SQL over the
   ``v_monitor`` system tables.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import EonCluster  # noqa: E402
from repro.bench.reporting import format_table  # noqa: E402
from repro.obs.metrics import cluster_metrics  # noqa: E402
from repro.obs.tracing import render_span_tree  # noqa: E402
from repro.workloads.tpch import TPCH_QUERIES, TpchData, load_tpch, setup_tpch_schema  # noqa: E402


def main() -> int:
    print("building 4-node Eon cluster, loading TPC-H (tiny scale)...")
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    data = TpchData.generate(scale=0.002, seed=42)
    setup_tpch_schema(cluster)
    load_tpch(cluster, data)

    obs = cluster.enable_observability()
    q1 = TPCH_QUERIES[0]

    print(f"\n--- TPC-H Q1 ({q1.name}), cold (use_cache=False) ---")
    mark = obs.tracer.mark()
    cluster.query(q1.sql, use_cache=False)
    print(render_span_tree(obs.tracer.spans_since(mark)))

    print("\n--- TPC-H Q1, warm ---")
    mark = obs.tracer.mark()
    cluster.query(q1.sql)
    print(render_span_tree(obs.tracer.spans_since(mark)))

    profile = obs.profiles[-1]
    print()
    print(format_table(
        f"operator profile (request {profile.request_id}, "
        f"{profile.latency_seconds * 1000:.2f} ms simulated)",
        ["path", "operator", "node", "rows", "ms", "depot_hits",
         "depot_misses", "s3_gets", "detail"],
        [
            [op.path_id, op.operator, op.node, op.rows, op.sim_seconds * 1000,
             op.depot_hits, op.depot_misses, op.s3_requests, op.detail]
            for op in profile.operators
        ],
    ))

    print("\n--- cluster metrics summary ---")
    print(json.dumps(cluster_metrics(cluster), indent=2, sort_keys=True))

    print("\n--- the same numbers through SQL ---")
    for sql in (
        "select node_name, hits, misses, hit_rate from v_monitor.depot_activity",
        "select request_id, request, duration_seconds, s3_requests, s3_dollars "
        "from v_monitor.dc_requests_issued",
        "select operation, requests, dollars from v_monitor.dc_storage_operations",
        # "Why was request N slow": the latency components \\doctor blames from.
        "select request_id, duration_seconds, queue_wait_seconds, "
        "failover_backoff_seconds, retry_backoff_seconds, retries, "
        "storage_io_seconds from v_monitor.dc_requests_issued "
        "order by duration_seconds desc limit 3",
    ):
        result = cluster.query(sql)
        print()
        print(format_table(sql, result.rows.schema.names, result.rows.to_pylist()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
