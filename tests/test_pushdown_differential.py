"""Pushdown-vs-depot differential wall (S3 compute pushdown tentpole proof).

A scan answered by ``select_scan`` (server-side filter + projection) must
be *observationally identical* to the depot scan it replaced: same rows
(digest) and the same depot demand statistics — misses, puts, GET
requests, bytes read, prefetch credits, coalesced groups, even
``rows_scanned`` / ``blocks_pruned`` — cold and warm, across the full
TPC-H suite.  The pushdown path achieves this by construction: chosen
containers stay in the scan's single ``fetch_batch`` call as *background
hydration* (the depot ledger never learns which strategy answered the
rows), and the select reports parity counters computed with the client's
own block-pruning logic.

``seed=<query number>`` pins participant selection exactly as in
``test_engine_differential``.
"""

import hashlib
from typing import List

import numpy as np
import pytest

from repro import EonCluster
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, setup_tpch_schema

pytestmark = pytest.mark.differential


def canon(rows: List[tuple]) -> List[tuple]:
    out = []
    for row in rows:
        out.append(tuple(
            round(v, 6) if isinstance(v, float) and not np.isnan(v) else
            ("nan" if isinstance(v, float) and np.isnan(v) else v)
            for v in row
        ))
    return out


def row_digest(rows: List[tuple]) -> str:
    return hashlib.sha256(
        repr(sorted(canon(rows), key=repr)).encode()
    ).hexdigest()


def s3_snapshot(cluster) -> tuple:
    m = cluster.shared.metrics
    return (m.get_requests, m.bytes_read, m.put_requests)


def demand_sig(cluster, result, s3_before) -> tuple:
    """The full depot demand signature: per-node scan/fetch accounting
    plus the delta of the global GET/PUT ledgers.  ``rows_scanned`` and
    ``blocks_pruned`` are included — the pushdown path must reproduce
    them bit-for-bit via the select's parity counters."""
    per_node = tuple(
        (
            name,
            w.bytes_from_shared,
            w.bytes_from_cache,
            w.rows_scanned,
            w.containers_scanned,
            w.containers_pruned,
            w.blocks_pruned,
            w.prefetch_hits,
            w.peer_fetches,
            w.coalesced_gets,
        )
        for name, w in sorted(result.stats.per_node.items())
    )
    delta = tuple(
        now - before for now, before in zip(s3_snapshot(cluster), s3_before)
    )
    return per_node + (delta,)


def clear_depots(cluster) -> None:
    for node in cluster.nodes.values():
        node.cache.clear()


@pytest.fixture(scope="module")
def tpch_cluster(tpch_data):
    """One Eon TPC-H cluster loaded in slices (multiple containers per
    shard) — the same shape the pooled-charging wall uses."""
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11)
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    rows = tpch_data.tables["lineitem"].to_pylist()
    for slice_no in range(3):
        chunk = rows[slice_no::7][:40]
        if chunk:
            cluster.load("lineitem", chunk)
    return cluster


class TestTpchPushdownDifferential:
    """Full-suite parity: the acceptance wall for scan-strategy selection."""

    def _run(self, cluster, query, **options):
        return cluster.query(query.sql, seed=query.number, **options)

    @pytest.mark.parametrize("mode", ["on", "auto"])
    def test_full_suite_cold_and_warm_parity(self, tpch_cluster, mode):
        """Every TPC-H query, cold and warm depots: pushdown ``on`` and
        ``auto`` produce bit-identical row digests AND demand statistics
        to pushdown ``off``."""
        cluster = tpch_cluster
        failures = []
        for query in TPCH_QUERIES:
            runs = {}
            for label in ("off", mode):
                clear_depots(cluster)
                before = s3_snapshot(cluster)
                cold = self._run(cluster, query, pushdown=label)
                cold_sig = demand_sig(cluster, cold, before)
                before = s3_snapshot(cluster)
                warm = self._run(cluster, query, pushdown=label)
                warm_sig = demand_sig(cluster, warm, before)
                runs[label] = (
                    row_digest(cold.rows.to_pylist()), cold_sig,
                    row_digest(warm.rows.to_pylist()), warm_sig,
                )
            for i, what in enumerate(
                ("cold digest", "cold demand", "warm digest", "warm demand")
            ):
                if runs["off"][i] != runs[mode][i]:
                    failures.append(f"Q{query.number}: {what} diverged")
        assert not failures, "; ".join(failures)

    def test_pushdown_actually_fires_cold(self, tpch_cluster):
        """Forcing ``pushdown=on`` answers scans server-side on a cold
        depot for a healthy share of the suite — the wall above is not
        vacuously comparing depot runs against depot runs."""
        cluster = tpch_cluster
        fired = []
        for query in TPCH_QUERIES:
            clear_depots(cluster)
            result = self._run(cluster, query, pushdown="on")
            if result.stats.total_pushdown_scans:
                assert result.stats.total_bytes_scanned > 0
                fired.append(query.number)
        assert len(fired) >= 3, f"pushdown only fired for {fired}"

    def test_auto_chooses_pushdown_for_selective_cold_scans(self, tpch_cluster):
        """The cost model picks pushdown for a selective predicate on a
        cold depot: scanning server-side beats hydrating whole containers
        through the 30 ms GET + narrow-bandwidth read path."""
        cluster = tpch_cluster
        clear_depots(cluster)
        result = cluster.query(
            "select count(*), sum(l_extendedprice) from lineitem"
            " where l_quantity < 2",
            seed=77, pushdown="auto",
        )
        assert result.stats.total_pushdown_scans > 0
        assert result.stats.total_bytes_scanned > 0

    def test_auto_never_chooses_pushdown_warm(self, tpch_cluster):
        """Depot-resident containers are free to read — auto must serve
        them from the depot no matter how selective the predicate."""
        cluster = tpch_cluster
        sql = (
            "select count(*), sum(l_extendedprice) from lineitem"
            " where l_quantity < 2"
        )
        clear_depots(cluster)
        session = cluster.create_session(seed=77)
        with session:
            # Warm every participant's depot with the identical scan, then
            # re-run on the same session (same participants, same depots).
            cluster.query_statement(
                __import__("repro.sql.parser", fromlist=["parse"]).parse(sql)[0],
                session=session, pushdown="off",
            )
            warm = cluster.query_statement(
                __import__("repro.sql.parser", fromlist=["parse"]).parse(sql)[0],
                session=session, pushdown="auto",
            )
        assert warm.stats.total_pushdown_scans == 0
        assert warm.stats.total_bytes_from_cache > 0

    def test_off_never_selects(self, tpch_cluster):
        cluster = tpch_cluster
        before = cluster.shared.op_stats["SELECT"].requests
        for query in TPCH_QUERIES[:4]:
            clear_depots(cluster)
            self._run(cluster, query, pushdown="off")
        assert cluster.shared.op_stats["SELECT"].requests == before


class TestStrategyObservability:
    def test_scan_strategy_in_query_profiles(self):
        from repro import Observability, SimClock

        clock = SimClock()
        cluster = EonCluster(
            ["n1", "n2"], shard_count=2, seed=3, clock=clock,
            observability=Observability(clock=clock),
        )
        cluster.execute("create table t (a int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(400)])
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.query("select sum(v) from t where a < 100", pushdown="on")
        rows = cluster.query(
            "select operator, scan_strategy from v_monitor.query_profiles"
        ).rows.to_pylist()
        strategies = {s for op, s in rows if op == "Scan"}
        assert "pushdown" in strategies
        # Non-scan operators carry no strategy label.
        assert all(s == "" for op, s in rows if op != "Scan")
        assert cluster.engine_stats.pushdown_scans > 0
        assert cluster.engine_stats.bytes_scanned > 0
        spans = [s for s in cluster.obs.tracer.spans if s.name == "pushdown"]
        assert spans, "no pushdown span recorded"
        assert spans[-1].attrs["scanned"] > 0

    def test_engine_and_s3_metrics_sections(self):
        from repro.obs.metrics import cluster_metrics

        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=3)
        cluster.execute("create table t (a int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(400)])
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.query("select sum(v) from t where a < 100", pushdown="on")
        metrics = cluster_metrics(cluster)
        assert metrics["engine"]["pushdown_scans"] > 0
        assert metrics["engine"]["bytes_scanned"] > 0
        assert metrics["s3"]["totals"]["select_requests"] > 0
        assert metrics["s3"]["totals"]["bytes_scanned"] > 0
        assert metrics["io"]["pushdown_selects"] > 0

    def test_invalid_mode_rejected(self):
        cluster = EonCluster(["n1"], shard_count=1, seed=3)
        cluster.execute("create table t (a int)")
        cluster.load("t", [(i,) for i in range(10)])
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            cluster.query("select count(*) from t", pushdown="sometimes")
