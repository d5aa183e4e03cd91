"""The parallel fetch scheduler: lanes, dedup, coalescing, peer fetch,
prefetch accounting, shaping bypass — and the depot-stats reconciliation
contract (prefetch consumption must never inflate demand hit counts).

Its two reference arms live here, installed on a cluster through the
``cluster.io_scheduler`` seam: :class:`SerialFetch` (the file-by-file miss
path the scheduler replaced) and :class:`PerScanCharging` (each scan pays
its own fetch and select makespans instead of the query's pooled
settlement).  A scan's local-disk reads are its provider's, added to the
provider's pool; :class:`PerScanPool`, patched in for the provider's
``PipelineCharges``, settles them per scan as well."""

from contextlib import contextmanager

import pytest

from repro import EonCluster
from repro.common.clock import charge_parallel
from repro.engine.executor import ScanResult
from repro.engine.pipeline import PipelineCharges
from repro.io import scheduler as io_scheduler
from repro.io.scheduler import FetchBatch, FetchRequest, IOScheduler, plan_fetch
from repro.obs.metrics import cluster_metrics
from repro.storage.container import RowSet


class SerialFetch(IOScheduler):
    """Reference arm: one ``node.fetch_storage`` per requested file, in
    request order and without dedupe (a delete vector two containers share
    is read twice), each fetched file's seconds charged serially in the
    scan's ``io_seconds`` (a hit is listed in ``batch.hits``; the scan
    pools a local read of the blocks it decodes, as with the scheduler).
    No lanes, no coalescing, no peers, no prefetch, and no pushdown: the
    scan reads every container through the depot (and polls cancellation
    between containers, as it always does)."""

    def fetch_batch(self, node, requests, use_cache, result, pool, **_) -> FetchBatch:
        cost = getattr(self.cluster.shared, "cost", None)
        get_dollars = cost.get_cost() if cost is not None else 0.0
        batch = FetchBatch()
        for request in requests:
            data, from_cache, seconds = node.fetch_storage(
                request.key, self.cluster.shared_data,
                info=request.info, use_cache=use_cache,
            )
            result.io_seconds += seconds
            if from_cache:
                result.depot_hits += 1
                batch.hits.add(request.key)
            else:
                result.bytes_from_shared += len(data)
                result.depot_misses += 1
                result.s3_requests += 1
                result.s3_dollars += get_dollars
            batch.data[request.key] = data
        return batch

    def pushdown_batch(self, node, items, result, pool, **_):
        return {}


class PerScanCharging(IOScheduler):
    """Reference arm: every demand effect of the scheduler, but each scan's
    lane makespan charged in its own ``io_seconds`` rather than deferred to
    the query's pool (``charge_parallel`` is pure, so settling a private
    pool at once gives the batch's own makespan)."""

    def fetch_batch(self, node, requests, use_cache, result, pool, **kwargs):
        with self._per_scan(node, result) as own:
            return super().fetch_batch(node, requests, use_cache, result, own, **kwargs)

    def pushdown_batch(self, node, items, result, pool, **kwargs):
        with self._per_scan(node, result) as own:
            return super().pushdown_batch(node, items, result, own, **kwargs)

    @contextmanager
    def _per_scan(self, node, result):
        own, pooled = PipelineCharges(), result.io_pooled_seconds
        yield own
        result.io_pooled_seconds = pooled
        result.io_seconds += own.settle().get(node.name, 0.0)


class PerScanPool(PipelineCharges):
    """Reference pool for the :class:`PerScanCharging` arm: each ``add``
    is one scan's local-disk reads (the arm keeps fetches and selects out
    of the provider's pool), settled as that scan's own lane makespan; a
    node pays the sum of its scans' makespans.  Installed by patching
    ``repro.cluster.session.PipelineCharges``."""

    def add(self, node_name, durations):
        if durations:
            makespan = charge_parallel(durations, io_scheduler.LANES)[0]
            self.per_node.setdefault(node_name, []).append(makespan)

    def settle(self):
        pooled, self.per_node = self.per_node, {}
        return {name: sum(pooled[name]) for name in sorted(pooled)}


def make_cluster(**kwargs):
    kwargs.setdefault("shard_count", 3)
    kwargs.setdefault("seed", 7)
    cluster = EonCluster(["n1", "n2", "n3"], **kwargs)
    cluster.execute("create table t (a int, b varchar)")
    for batch in range(4):
        cluster.load("t", [(batch * 100 + i, "pad") for i in range(100)])
    return cluster


def clear_depots(cluster):
    for node in cluster.nodes.values():
        node.cache.clear()


def scan_result() -> ScanResult:
    from repro.common.types import ColumnType, SchemaColumn, TableSchema

    schema = TableSchema([SchemaColumn("a", ColumnType.INT)])
    return ScanResult(rows=RowSet.empty(schema))


def container_requests(cluster):
    """FetchRequests for every container any up node's catalog can see."""
    seen = {}
    for node in cluster.up_nodes():
        for sid, c in node.catalog.state.containers.items():
            seen[str(sid)] = c
    return [
        FetchRequest(seen[sid].location, seen[sid].size_bytes, i)
        for i, sid in enumerate(sorted(seen))
    ]


class TestPlanFetch:
    def test_dedup_counts_duplicates(self):
        requests = [
            FetchRequest("a", 10, 0),
            FetchRequest("a", 10, 0),
            FetchRequest("b", 10, 1),
        ]
        plan = plan_fetch(requests, set(), set())
        keys = [r.key for g in plan.groups for r in g]
        assert sorted(keys) == ["a", "b"]
        assert plan.duplicates == 1

    def test_resident_split(self):
        requests = [FetchRequest("a", 10, 0), FetchRequest("b", 10, 0)]
        plan = plan_fetch(requests, {"a"}, set())
        assert [r.key for r in plan.resident] == ["a"]
        assert [[r.key for r in g] for g in plan.groups] == [["b"]]

    def test_small_adjacent_files_coalesce(self):
        requests = [FetchRequest(f"k{i}", 1000, i) for i in range(4)]
        plan = plan_fetch(requests, set(), set())
        assert len(plan.groups) == 1
        assert len(plan.groups[0]) == 4

    def test_large_file_is_singleton(self):
        big = io_scheduler.COALESCE_FILE_LIMIT + 1
        requests = [
            FetchRequest("a", 100, 0),
            FetchRequest("big", big, 0),
            FetchRequest("b", 100, 0),
        ]
        plan = plan_fetch(requests, set(), set())
        assert [[r.key for r in g] for g in plan.groups] == [
            ["a"], ["big"], ["b"]
        ]

    def test_bypass_never_coalesced(self):
        requests = [
            FetchRequest("a", 100, 0),
            FetchRequest("deny", 100, 0),
            FetchRequest("b", 100, 0),
        ]
        plan = plan_fetch(requests, set(), {"deny"})
        assert [[r.key for r in g] for g in plan.groups] == [
            ["a"], ["deny"], ["b"]
        ]

    def test_container_gap_breaks_group(self):
        requests = [
            FetchRequest("a", 100, 0),
            FetchRequest("b", 100, 1),
            FetchRequest("c", 100, 5),
        ]
        plan = plan_fetch(requests, set(), set())
        assert [[r.key for r in g] for g in plan.groups] == [["a", "b"], ["c"]]


class TestBatchFetch:
    def test_cold_scan_coalesces_gets(self):
        cluster = make_cluster()
        clear_depots(cluster)
        before = cluster.shared.metrics.get_requests
        cluster.query("select count(*) from t")
        gets = cluster.shared.metrics.get_requests - before
        stats = cluster.io_scheduler.stats
        assert stats.fetched_files > 0
        # Coalescing means strictly fewer GETs than files fetched.
        assert stats.coalesced_gets > 0
        assert gets < stats.fetched_files

    def test_batch_sanity_counters_stay_zero(self):
        cluster = make_cluster()
        clear_depots(cluster)
        for _ in range(3):
            cluster.query("select sum(a) from t")
        stats = cluster.io_scheduler.stats
        assert stats.double_fetches == 0
        assert stats.capacity_violations == 0

    def test_warm_scan_touches_no_shared_storage(self):
        cluster = make_cluster()
        cluster.query("select count(*) from t")  # warm every depot
        before = cluster.shared.metrics.get_requests
        cluster.query("select count(*) from t")
        assert cluster.shared.metrics.get_requests == before

    def test_peer_fetch_replaces_s3(self):
        cluster = make_cluster()
        cluster.query("select count(*) from t")  # depots warm everywhere
        node = cluster.nodes["n1"]
        node.cache.clear()  # n1 cold, its peers warm
        requests = container_requests(cluster)
        before = cluster.shared.metrics.get_requests
        result = scan_result()
        batch = cluster.io_scheduler.fetch_batch(
            node, requests, use_cache=True, result=result,
            pool=PipelineCharges(),
        )
        # subscribers_per_shard=2: every container n1 lacks is depot-resident
        # on some peer, so the whole batch moves at network latency.
        assert result.peer_fetches == len(batch.data)
        assert result.peer_fetches > 0
        assert cluster.shared.metrics.get_requests == before
        assert result.s3_requests == 0
        # Peer-fetched files are demand misses, fully accounted.
        assert result.depot_misses == len(requests)
        assert result.bytes_from_shared == sum(r.size for r in requests)

    def test_peer_fetch_disabled_goes_to_s3(self):
        """Peers that are down serve no files even with warm depots: the
        batch falls back to shared storage."""
        cluster = make_cluster()
        cluster.query("select count(*) from t")  # depots warm everywhere
        node = cluster.nodes["n1"]
        node.cache.clear()
        for name in ("n2", "n3"):
            cluster.nodes[name].go_down()  # depot survives, peer is down
        before = cluster.shared.metrics.get_requests
        result = scan_result()
        cluster.io_scheduler.fetch_batch(
            node, container_requests(cluster), use_cache=True, result=result,
            pool=PipelineCharges(),
        )
        assert result.peer_fetches == 0
        assert cluster.shared.metrics.get_requests > before
        assert result.s3_requests > 0

    def test_prefetch_marks_later_containers(self):
        cluster = make_cluster()
        clear_depots(cluster)
        node = cluster.nodes["n1"]
        result = scan_result()
        batch = cluster.io_scheduler.fetch_batch(
            node, container_requests(cluster), use_cache=True, result=result,
            pool=PipelineCharges(),
        )
        # Everything past the first fetched container arrived early.
        assert batch.prefetched
        first = cluster.io_scheduler.consume(
            batch, node, next(iter(sorted(batch.prefetched))), result
        )
        assert first is not None
        assert result.prefetch_hits == 1
        assert node.cache.stats.prefetch_hits == 1

    def test_oversized_objects_bypass_depot(self):
        # Depot smaller than any container: every fetch is a bypass.
        cluster = make_cluster(cache_bytes=64)
        clear_depots(cluster)
        rows = cluster.query("select count(*) from t").rows.to_pylist()
        assert rows == [(400,)]
        for node in cluster.nodes.values():
            assert node.cache.file_count == 0
        stats = cluster.io_scheduler.stats
        assert stats.prefetched_files == 0  # bypass is never prefetch
        assert stats.capacity_violations == 0

    def test_use_cache_false_skips_depot(self):
        cluster = make_cluster()
        cluster.query("select count(*) from t")
        node = cluster.nodes["n1"]
        node.cache.clear()
        insertions_before = node.cache.stats.insertions
        result = scan_result()
        cluster.io_scheduler.fetch_batch(
            node, container_requests(cluster), use_cache=False, result=result,
            pool=PipelineCharges(),
        )
        assert node.cache.stats.insertions == insertions_before
        assert node.cache.file_count == 0


class TestSchedulerAblation:
    """Scheduler vs :class:`SerialFetch`: same answers, same demand depot
    accounting."""

    def _run(self, scheduled):
        cluster = make_cluster()
        if not scheduled:
            cluster.io_scheduler = SerialFetch(cluster)
        clear_depots(cluster)
        out = []
        for sql in (
            "select count(*) from t",
            "select sum(a) from t",
            "select b, count(*) c from t group by b",
        ):
            out.append(cluster.query(sql).rows.to_pylist())
        return cluster, out

    def test_identical_results_and_depot_stats(self):
        on_cluster, on_rows = self._run(True)
        off_cluster, off_rows = self._run(False)
        assert on_rows == off_rows
        for name in on_cluster.nodes:
            on = on_cluster.nodes[name].cache.stats
            off = off_cluster.nodes[name].cache.stats
            # Demand traffic is bit-identical; only the request shape
            # (coalescing, peers) and prefetch bookkeeping may differ.
            assert on.hits == off.hits, name
            assert on.misses == off.misses, name
            assert on.insertions == off.insertions, name
            assert on.rejected_by_policy == off.rejected_by_policy, name
            assert on.bytes_read == off.bytes_read, name
            assert on.bytes_missed == off.bytes_missed, name

    def test_scheduler_reduces_gets(self):
        on_cluster, _ = self._run(True)
        off_cluster, _ = self._run(False)
        assert (
            on_cluster.shared.metrics.get_requests
            < off_cluster.shared.metrics.get_requests
        )

    def test_same_seed_same_metrics(self):
        first, first_rows = self._run(True)
        second, second_rows = self._run(True)
        assert first_rows == second_rows
        assert cluster_metrics(first) == cluster_metrics(second)


class TestStatsReconciliation:
    """The depot-stats audit: one consistent ``byte_hit_rate`` story across
    FileCache, prefetch-filled entries, cluster_metrics, and v_monitor."""

    def test_cold_scan_books_prefetch_not_demand_hits(self):
        cluster = make_cluster()
        clear_depots(cluster)
        cluster.query("select count(*) from t")
        total_prefetch = sum(
            n.cache.stats.prefetch_hits for n in cluster.nodes.values()
        )
        assert total_prefetch > 0
        for node in cluster.nodes.values():
            stats = node.cache.stats
            # Cold scan: every demand lookup was a miss; prefetch
            # consumption must not masquerade as a hit.
            assert stats.hits == 0, node.name
            assert stats.bytes_read == 0, node.name
            assert stats.misses > 0 or stats.prefetch_hits == 0

    def test_byte_hit_rate_denominators_agree(self):
        cluster = make_cluster()
        clear_depots(cluster)
        cluster.query("select count(*) from t")  # cold
        cluster.query("select sum(a) from t")  # warm
        metrics = cluster_metrics(cluster)["depot"]
        read = sum(n.cache.stats.bytes_read for n in cluster.nodes.values())
        missed = sum(
            n.cache.stats.bytes_missed for n in cluster.nodes.values()
        )
        assert metrics["bytes_read"] == read
        assert metrics["bytes_missed"] == missed
        denominator = read + missed
        assert metrics["byte_hit_rate"] == pytest.approx(read / denominator)
        # Prefetch bytes live outside both terms (charged as misses at
        # fetch time); folding them in would double-count.
        assert metrics["prefetch_bytes_read"] > 0
        assert metrics["prefetch_bytes_read"] not in (read, denominator)

    def test_v_monitor_depot_activity_matches_cache_stats(self):
        cluster = make_cluster()
        clear_depots(cluster)
        cluster.query("select count(*) from t")
        rows = cluster.query(
            "select node_name, hits, misses, bytes_read, bytes_missed,"
            " prefetch_hits, prefetch_bytes_read from"
            " v_monitor.depot_activity"
        ).rows.to_pylist()
        assert len(rows) == len(cluster.nodes)
        for name, hits, misses, bread, bmissed, phits, pbytes in rows:
            stats = cluster.nodes[name].cache.stats
            assert hits == stats.hits
            assert misses == stats.misses
            assert bread == stats.bytes_read
            assert bmissed == stats.bytes_missed
            assert phits == stats.prefetch_hits
            assert pbytes == stats.prefetch_bytes_read

    def test_warming_peek_leaves_peer_stats_untouched(self):
        from repro.cache.warming import warm_from_peer

        cluster = make_cluster()
        cluster.query("select count(*) from t")  # warm all depots
        peer = cluster.nodes["n1"].cache
        subscriber = cluster.nodes["n2"].cache
        subscriber.clear()
        hits_before = peer.stats.hits
        bytes_before = peer.stats.bytes_read
        order_before = peer.warm_list(peer.capacity_bytes)
        report = warm_from_peer(subscriber, peer, cluster.shared_data)
        assert report.copied_from_peer > 0
        # The regression this audit fixed: warming used to go through the
        # peer's demand ``get``, inflating its hit counts and reordering
        # its LRU.
        assert peer.stats.hits == hits_before
        assert peer.stats.bytes_read == bytes_before
        assert peer.warm_list(peer.capacity_bytes) == order_before


class TestObsCounters:
    def test_io_counters_and_spans_recorded(self):
        cluster = make_cluster()
        cluster.enable_observability()
        clear_depots(cluster)
        cluster.query("select count(*) from t")  # cold: coalesced S3 GETs
        cluster.nodes["n1"].cache.clear()
        result = scan_result()
        cluster.io_scheduler.fetch_batch(
            cluster.nodes["n1"],
            container_requests(cluster),
            use_cache=True,
            result=result,
            pool=PipelineCharges(),
        )
        # Events are counted once, in their ledgers; the registry keeps the
        # lane-occupancy reading no ledger holds.
        stats = cluster.io_scheduler.stats
        assert stats.coalesced_gets > 0 and stats.peer_fetches > 0
        assert sum(n.cache.stats.prefetch_hits for n in cluster.nodes.values()) > 0
        snap = cluster.obs.metrics.snapshot()
        assert any(k.startswith("io.lane_occupancy") for k in snap.gauges)
        assert not any(k.startswith("io.") for k in snap.counters)
        spans = [s for s in cluster.obs.tracer.spans if s.name == "fetch_batch"]
        assert spans
        assert all(s.attrs["files"] >= s.attrs["fetched"] >= 0 for s in spans)
