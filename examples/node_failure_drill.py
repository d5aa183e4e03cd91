#!/usr/bin/env python3
"""Failure drill: Eon's non-cliff degradation vs Enterprise's buddy
doubling (paper sections 6.1 and 8 / Figure 12), plus the recovery-cost
contrast — byte-level cache warm vs whole-node repair.

Run with:  python examples/node_failure_drill.py
"""

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.wm import AdmissionController, PoolConfig
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

ROWS = [(i, f"group{i % 5}", float(i)) for i in range(5_000)]
COLUMNS = [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)]
QUERY = "select g, count(*), sum(v) from t group by g"
WINDOW, DURATION, KILL_AT = 240.0, 4800.0, 2400.0
KILLED = int(KILL_AT // WINDOW)


def throughput_timeline(cluster) -> list:
    """16 clients run QUERY in a closed loop on the real query path, each
    query's ~3 ms of modeled service stretched to ~6 s; one node dies
    halfway.  Returns completions per 4-minute window."""
    # Hold the whole backlog: a rejection would undercount throughput.
    cluster.admission = AdmissionController(
        cluster, PoolConfig(max_queue_depth=512, queue_timeout_seconds=3600.0)
    )
    cluster.clock.schedule(KILL_AT, lambda: cluster.kill_node(victim_of(cluster)))
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=(QUERY,), clients=16, duration_seconds=DURATION,
        service_scale=2000.0,
    ))
    return result.per_window(WINDOW, DURATION)


def drop(windows: list) -> float:
    """Throughput lost after the kill's window, against before it."""
    before = sum(windows[:KILLED]) / KILLED
    after = sum(windows[KILLED + 1:]) / (len(windows) - KILLED - 1)
    return 1 - after / before


def victim_of(cluster) -> str:
    return sorted(cluster.nodes)[1]


def main() -> None:
    print("== Throughput across a node kill (queries per 4-minute window) ==")
    eon = EonCluster([f"e{i}" for i in range(4)], shard_count=3, seed=3)
    eon.create_table("t", COLUMNS)
    eon.load("t", ROWS)
    eon_windows = throughput_timeline(eon)

    ent = EnterpriseCluster([f"e{i}" for i in range(4)], seed=3)
    ent.create_table("t", COLUMNS)
    ent.load("t", ROWS, direct=True)
    ent_windows = throughput_timeline(ent)

    print(f"{'window':>7} {'eon 4n/3s':>10} {'enterprise 4n':>14}")
    for i, (a, b) in enumerate(zip(eon_windows, ent_windows)):
        marker = "  <- node killed" if i == KILLED else ""
        print(f"{i:>7} {a:>10} {b:>14}{marker}")
    print(f"\nEon throughput drop:        {drop(eon_windows):.0%} (smooth scale-down)")
    print(f"Enterprise throughput drop: {drop(ent_windows):.0%} (buddy does double work)")

    print("\n== Recovery cost ==")
    # Eon: the returning node re-subscribes and re-warms only its cache —
    # which holds the query *working set* (the recent data dashboards
    # touch), not the whole table.  Load in key-ordered batches so old and
    # recent data land in different containers, then query only the recent
    # slice; container pruning keeps old containers out of the caches.
    eon2 = EonCluster(["a", "b", "c"], shard_count=3, seed=4)
    eon2.create_table("t", COLUMNS)
    for start in range(0, len(ROWS), 500):
        eon2.load("t", ROWS[start:start + 500], use_cache=False)
    eon2.query("select sum(v) from t where k >= 4500")  # the working set
    eon2.kill_node("b", lose_local_disk=True)  # instance loss: cold cache
    reports = eon2.recover_node("b")
    eon_bytes = sum(r.bytes_transferred for r in reports.values() if r)

    # Enterprise: the returning node repairs its entire data set, working
    # set or not.
    ent2 = EnterpriseCluster(["a", "b", "c"], seed=4)
    ent2.create_table("t", COLUMNS)
    for start in range(0, len(ROWS), 500):
        ent2.load("t", ROWS[start:start + 500], direct=True)
    ent2.kill_node("b")
    ent_bytes = ent2.recover_node("b")

    print(f"Eon cache re-warm (instance loss): {eon_bytes:>10,} bytes")
    print(f"Enterprise node repair:            {ent_bytes:>10,} bytes")
    print("Eon recovery moves only the cache working set; Enterprise must")
    print("logically rebuild every container the node owned.")


if __name__ == "__main__":
    main()
