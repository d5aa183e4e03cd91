"""The observability subsystem: metrics, tracing, and query profiles."""

import json

import pytest

from repro import EonCluster, Observability, SimClock
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY, cluster_metrics
from repro.obs.tracing import NULL_TRACER, Tracer, render_span_tree


@pytest.fixture
def clock():
    return SimClock()


def advance(clock, seconds):
    clock.advance(seconds)


class TestMetricsRegistry:
    def test_counter_accumulates_and_stamps(self, clock):
        reg = MetricsRegistry(clock)
        counter = reg.counter("s3.requests", op="GET")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        advance(clock, 5.0)
        counter.inc()
        assert counter.last_updated == 5.0

    def test_counter_rejects_negative(self, clock):
        with pytest.raises(ValueError):
            MetricsRegistry(clock).counter("c").inc(-1)

    def test_labels_distinguish_instruments(self, clock):
        reg = MetricsRegistry(clock)
        reg.counter("reads", node="n1").inc()
        reg.counter("reads", node="n2").inc(2)
        snap = reg.snapshot()
        assert snap.counters["reads{node=n1}"] == 1
        assert snap.counters["reads{node=n2}"] == 2

    def test_gauge_set_and_inc(self, clock):
        gauge = MetricsRegistry(clock).gauge("cache.bytes")
        gauge.set(100)
        gauge.inc(10)
        gauge.inc(-30)
        assert gauge.value == 80

    def test_histogram_buckets(self, clock):
        hist = MetricsRegistry(clock).histogram("lat", buckets=(0.01, 1.0))
        for value in (0.001, 0.5, 0.7, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.bucket_counts == [1, 2, 1]
        assert hist.sum == pytest.approx(51.201)

    def test_snapshot_is_json_able(self, clock):
        reg = MetricsRegistry(clock)
        reg.counter("c", a="b").inc()
        json.dumps(reg.as_dict())  # must not raise

    def test_null_registry_is_inert(self):
        counter = NULL_REGISTRY.counter("anything", x=1)
        counter.inc(100)
        assert counter.value == 0
        assert NULL_REGISTRY.snapshot().counters == {}


class TestTracer:
    def test_nesting_via_context_managers(self, clock):
        tracer = Tracer(clock)
        with tracer.span("query") as q:
            with tracer.span("fragment"):
                tracer.record("s3_get", duration=0.01)
        spans = tracer.spans
        assert [s.name for s in spans] == ["query", "fragment", "s3_get"]
        assert spans[1].parent_id == q.span_id
        assert spans[2].parent_id == spans[1].span_id

    def test_clock_delta_duration_default(self, clock):
        tracer = Tracer(clock)
        span = tracer.span("work")
        with span:
            advance(clock, 2.5)
        assert span.duration == 2.5

    def test_explicit_duration_wins(self, clock):
        tracer = Tracer(clock)
        with tracer.span("query") as span:
            span.duration = 0.125
        assert span.duration == 0.125

    def test_error_annotated_not_suppressed(self, clock):
        tracer = Tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        assert "RuntimeError" in tracer.spans[0].attrs["error"]

    def test_mark_and_spans_since(self, clock):
        tracer = Tracer(clock)
        tracer.record("before")
        mark = tracer.mark()
        tracer.record("after1")
        tracer.record("after2")
        assert [s.name for s in tracer.spans_since(mark)] == ["after1", "after2"]

    def test_mark_on_empty_tracer(self, clock):
        tracer = Tracer(clock)
        assert tracer.spans_since(tracer.mark()) == []

    def test_bounded_span_buffer(self, clock, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 5)
        tracer = Tracer(clock)
        for i in range(10):
            tracer.record(f"s{i}")
        assert [s.name for s in tracer.spans] == [f"s{i}" for i in range(5, 10)]

    def test_json_export(self, clock):
        tracer = Tracer(clock)
        tracer.record("s3_get", duration=0.03, nbytes=10)
        doc = json.loads(tracer.to_json())
        assert doc[0]["name"] == "s3_get"
        assert doc[0]["attrs"]["nbytes"] == 10

    def test_render_tree_indents_children(self, clock):
        tracer = Tracer(clock)
        with tracer.span("query"):
            tracer.record("s3_get", duration=0.001)
        tree = render_span_tree(tracer.spans)
        lines = tree.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  s3_get")

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.annotate(a=1)
            span.duration = 5.0  # instrumented code may assign this
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.spans_since(NULL_TRACER.mark()) == []


@pytest.fixture
def small_cluster():
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11)
    cluster.execute("create table t (k int, v int)")
    cluster.load("t", [(i, i * 3) for i in range(120)])
    return cluster


class TestQueryRecording:
    def test_disabled_by_default_and_costless(self, small_cluster):
        assert not small_cluster.obs.enabled
        result = small_cluster.query("select count(*) from t")
        assert result.rows.num_rows == 1
        assert small_cluster.obs.tracer.spans == []
        assert list(small_cluster.obs.requests) == []

    def test_request_and_profile_recorded(self, small_cluster):
        obs = small_cluster.enable_observability()
        result = small_cluster.query("select k, v from t where k < 10")
        record = obs.requests[-1]
        assert record.request == "select k, v from t where k < 10"
        assert record.rows_produced == result.rows.num_rows == 10
        assert record.duration_seconds == result.stats.latency_seconds
        operators = obs.profiles[-1].operators
        assert {op.operator for op in operators} >= {"Scan", "Project"}
        # Predicates push into the scan, so scans report post-filter rows.
        assert sum(op.rows for op in operators if op.operator == "Scan") == 10

    def test_query_counter_and_latency_histogram(self, small_cluster):
        obs = small_cluster.enable_observability()
        small_cluster.query("select count(*) from t")
        # The request log is the count; the registry keeps the distribution.
        assert len(obs.requests) == 1
        snap = obs.metrics.snapshot()
        assert snap.histograms["query.latency_seconds"]["count"] == 1
        assert not any(k.startswith("query.") for k in snap.counters)

    def test_executor_skips_profiles_when_disabled(self, small_cluster):
        small_cluster.query("select count(*) from t")
        # Nothing should accumulate anywhere with obs off.
        assert list(small_cluster.obs.profiles) == []


class TestTpchTrace:
    def test_cold_query_span_tree_is_consistent(self):
        """The acceptance shape: query span -> one fragment per participant
        -> one s3_get per shared fetch, with cost-model durations."""
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=5)
        cluster.execute("create table fact (k int, amount float)")
        cluster.load("fact", [(i, float(i % 97)) for i in range(600)])
        obs = cluster.enable_observability()

        mark = obs.tracer.mark()
        result = cluster.query(
            "select sum(amount) from fact where k >= 0", use_cache=False
        )
        spans = obs.tracer.spans_since(mark)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        [query_span] = by_name["query"]
        assert query_span.attrs["initiator"] in cluster.nodes
        assert query_span.duration == result.stats.latency_seconds

        fragments = by_name["fragment"]
        fragment_nodes = {f.attrs["node"] for f in fragments}
        # Every shard-serving participant ran a traced fragment.
        assert fragment_nodes == set(cluster.nodes)
        for fragment in fragments:
            assert fragment.parent_id == query_span.span_id
            busy = result.stats.node(fragment.attrs["node"]).busy_seconds
            # The fragment covers that node's scan work; the initiator
            # accrues a little more busy time afterwards (final aggregate),
            # so the span is a positive lower bound on the node total.
            assert 0 < fragment.duration <= busy
            # Query latency includes the slowest node's busy time.
            assert fragment.duration <= query_span.duration

        gets = by_name["s3_get"]
        assert len(gets) == cluster.shared.metrics.get_requests
        fragment_ids = {f.span_id: f for f in fragments}
        for get in gets:
            parent = fragment_ids[get.parent_id]
            assert get.attrs["node"] == parent.attrs["node"]
            assert 0 < get.duration <= parent.duration

    def test_warm_query_has_no_s3_spans(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=5)
        cluster.execute("create table fact (k int)")
        cluster.load("fact", [(i,) for i in range(50)])
        obs = cluster.enable_observability()
        cluster.query("select count(*) from fact")  # depot was write-through
        names = [s.name for s in obs.tracer.spans]
        assert "s3_get" not in names
        assert "query" in names


class TestClusterMetricsSummary:
    def test_depot_and_s3_sections(self, small_cluster):
        small_cluster.query("select count(*) from t", use_cache=False)
        summary = cluster_metrics(small_cluster)
        assert summary["depot"]["misses"] > 0
        assert summary["depot"]["bytes_missed"] > 0
        assert summary["s3"]["GET"]["requests"] == \
            small_cluster.shared.metrics.get_requests
        assert summary["s3"]["totals"]["dollars"] == \
            pytest.approx(small_cluster.shared.metrics.dollars)
        json.dumps(summary)  # JSON-able as it stands

    def test_byte_hit_rate_tracks_cache_stats(self, small_cluster):
        small_cluster.query("select count(*) from t")  # warm: all hits
        summary = cluster_metrics(small_cluster)
        assert summary["depot"]["hit_rate"] == 1.0
        assert summary["depot"]["byte_hit_rate"] == 1.0


class TestObservabilityObject:
    def test_enable_is_idempotent(self, small_cluster):
        first = small_cluster.enable_observability()
        assert small_cluster.enable_observability() is first

    def test_disabled_constructor(self):
        obs = Observability(enabled=False)
        assert not obs.enabled
        assert obs.metrics is NULL_REGISTRY
        assert obs.tracer is NULL_TRACER

    def test_request_ids_monotonic(self):
        obs = Observability(clock=SimClock())
        assert [obs.next_request_id() for _ in range(3)] == [1, 2, 3]


class TestTracerDropAccounting:
    """Regressions for silent span loss: evictions are counted (on the
    tracer, ``dropped``) and flagged per read window."""

    def test_eviction_counts_drops(self, clock, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        tracer = Tracer(clock)
        for i in range(5):
            tracer.record(f"s{i}")
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]

    def test_truncated_since_flags_eaten_windows(self, clock, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        tracer = Tracer(clock)
        tracer.record("a")
        early_mark = tracer.mark()
        assert not tracer.truncated_since(early_mark)
        for i in range(4):
            tracer.record(f"b{i}")
        # Spans 1-2 were evicted: the early window is incomplete, a window
        # opened now is not.
        assert tracer.truncated_since(early_mark)
        assert not tracer.truncated_since(tracer.mark())

    def test_cluster_violation_window_wiring(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=4)
        obs = cluster.enable_observability()
        assert obs.tracer.dropped == 0
        assert not obs.tracer.truncated_since(obs.tracer.mark())
