"""UDFS backends: the S3-shaped operations, the in-memory local disk, the
simulated S3, retries, metrics — and Eon over a store its caller built,
which must be S3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EonCluster
from repro.errors import (
    ObjectNotFound,
    ReproError,
    StorageError,
    TransientStorageError,
    UnsupportedSharedStorage,
)
from repro.shared_storage import api
from repro.shared_storage.api import Filesystem, PrefixView, RetryingFilesystem, retrying
from repro.shared_storage.posix import MemoryFilesystem
from repro.shared_storage.s3 import FaultInjector, S3CostModel, SimulatedS3


@pytest.fixture(params=["memory", "s3", "retrying", "prefixed"])
def fs(request):
    """Every UDFS a cluster talks to: the two backends, and the two wrappers
    a cluster puts over S3 (the retry loop, a node's prefixed area)."""
    if request.param == "memory":
        return MemoryFilesystem()
    if request.param == "retrying":
        return RetryingFilesystem(SimulatedS3())
    if request.param == "prefixed":
        return PrefixView(SimulatedS3(), "meta_n1_")
    return SimulatedS3()


def public(cls) -> list:
    return sorted(name for name in dir(cls) if not name.startswith("_"))


#: What S3 offers beyond the UDFS operations.
S3_EXTRAS = ["estimate_select_seconds", "read_coalesced", "select_scan"]


class TestOperations:
    def test_the_udfs_offers_what_s3_offers(self):
        """Write once, read, list, size, delete — no rename, no append
        (section 5.1).  S3 adds the coalesced read, the server-side select
        and its outage probe; the data area's prefix view passes the first
        two through, and the retrying wrapper of a node's metadata area
        none: a new operation on the interface or on a backend is a
        visible diff."""
        assert public(Filesystem) == [
            "contains", "delete", "estimate_read_seconds", "estimate_write_seconds",
            "list", "op_stats", "read", "size", "write",
        ]
        beyond = {
            backend.__name__: sorted(set(public(backend)) - set(public(Filesystem)))
            for backend in (MemoryFilesystem, SimulatedS3, RetryingFilesystem, PrefixView)
        }
        assert beyond == {
            "MemoryFilesystem": ["read_bandwidth", "seek_seconds", "write_bandwidth"],
            "SimulatedS3": sorted(
                S3_EXTRAS + ["object_count", "outage_active", "peek", "peek_object", "total_bytes"]
            ),
            "RetryingFilesystem": [],
            "PrefixView": S3_EXTRAS,
        }


class TestCommonContract:
    def test_write_read(self, fs):
        fs.write("obj1", b"hello")
        assert fs.read("obj1") == b"hello"

    def test_read_missing_raises(self, fs):
        with pytest.raises(ObjectNotFound):
            fs.read("nope")

    def test_list_prefix_sorted(self, fs):
        for name in ("b2", "a1", "a2"):
            fs.write(name, b"x")
        assert fs.list("a") == ["a1", "a2"]
        assert fs.list() == ["a1", "a2", "b2"]

    def test_contains_via_list(self, fs):
        fs.write("present", b"x")
        assert fs.contains("present")
        assert not fs.contains("absent")

    def test_delete_idempotent(self, fs):
        fs.write("d", b"x")
        fs.delete("d")
        fs.delete("d")  # no error
        assert not fs.contains("d")

    def test_size(self, fs):
        fs.write("s", b"12345")
        assert fs.size("s") == 5
        with pytest.raises(ObjectNotFound):
            fs.size("missing")

    def test_metrics_accumulate(self, fs):
        fs.write("m", b"abc")
        fs.read("m")
        assert fs.metrics.put_requests == 1
        assert fs.metrics.get_requests == 1
        assert fs.metrics.bytes_written == 3
        assert fs.metrics.bytes_read == 3


class TestSimulatedS3:
    def test_no_rename_or_append(self):
        """S3 offers neither (section 5.1): the names are absent from the
        backend and from every wrapper over it, so no caller can reach one."""
        s3 = SimulatedS3()
        s3.write("x", b"1")
        for backend in (s3, RetryingFilesystem(s3), PrefixView(s3, "p_")):
            assert not hasattr(backend, "rename")
            assert not hasattr(backend, "append")
        assert s3.read("x") == b"1"

    def test_immutable_objects(self):
        s3 = SimulatedS3()
        s3.write("x", b"1")
        with pytest.raises(StorageError):
            s3.write("x", b"2")

    def test_latency_per_request_dominates_small_reads(self):
        s3 = SimulatedS3()
        small = s3.estimate_read_seconds(1_000)
        large = s3.estimate_read_seconds(100_000_000)
        # 1000 small requests cost far more than one large request of the
        # same total size — the paper's "larger request sizes" advice.
        assert small * 1000 > large

    def test_dollar_cost_accrues(self):
        s3 = SimulatedS3(cost=S3CostModel(put_per_1k=5.0, get_per_1k=1.0))
        s3.write("x", b"1")
        s3.read("x")
        assert s3.metrics.dollars == pytest.approx(0.005 + 0.001)

    def test_fault_injection_deterministic(self):
        s3a = SimulatedS3(faults=FaultInjector(failure_rate=0.5, seed=9))
        s3b = SimulatedS3(faults=FaultInjector(failure_rate=0.5, seed=9))
        outcomes_a, outcomes_b = [], []
        for fs, out in ((s3a, outcomes_a), (s3b, outcomes_b)):
            for i in range(20):
                try:
                    fs.write(f"k{i}", b"v")
                    out.append(True)
                except TransientStorageError:
                    out.append(False)
        assert outcomes_a == outcomes_b
        assert False in outcomes_a and True in outcomes_a

    def test_object_count_and_bytes(self):
        s3 = SimulatedS3()
        s3.write("a", b"123")
        s3.write("b", b"4567")
        assert s3.object_count == 2
        assert s3.total_bytes == 7


class TestRetrying:
    def test_retries_transient_until_success(self):
        attempts = []

        def op():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientStorageError("throttled")
            return "ok"

        s3 = SimulatedS3()
        assert retrying(op, s3.metrics) == "ok"
        assert len(attempts) == 3
        assert s3.metrics.retry_backoff_seconds > 0

    def test_gives_up_after_max_attempts(self, monkeypatch):
        attempts = []

        def op():
            attempts.append(1)
            raise TransientStorageError("always")

        monkeypatch.setattr(api, "MAX_ATTEMPTS", 3)
        with pytest.raises(TransientStorageError):
            retrying(op)
        assert len(attempts) == 3

    def test_non_transient_not_retried(self):
        attempts = []

        def op():
            attempts.append(1)
            raise StorageError("hard failure")

        with pytest.raises(StorageError):
            retrying(op)
        assert len(attempts) == 1


class TestPrefixView:
    def test_namespacing(self):
        base = MemoryFilesystem()
        view = PrefixView(base, "data_")
        view.write("x", b"1")
        assert base.list() == ["data_x"]
        assert view.list() == ["x"]
        assert view.read("x") == b"1"
        view.delete("x")
        assert base.list() == []

    def test_shares_metrics_with_base(self):
        base = MemoryFilesystem()
        view = PrefixView(base, "p_")
        view.write("x", b"abc")
        assert base.metrics.put_requests == 1


class TestPrefixListingFromTheNameIndex:
    """``list``/``peek`` answer from a maintained sorted index; the answer
    and the request accounting are those of the scan they replaced."""

    NAMES = st.text(alphabet="ab_\U0010ffff", max_size=4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(), NAMES), max_size=30),
        st.lists(NAMES, min_size=1, max_size=6),
    )
    def test_memory_filesystem_matches_a_scan(self, steps, prefixes):
        fs = MemoryFilesystem()
        names = set()
        for write, name in steps:
            if write:
                fs.write(name, b"x")
                names.add(name)
            else:
                fs.delete(name)
                names.discard(name)
            for prefix in prefixes + [""]:
                assert fs.list(prefix) == sorted(n for n in names if n.startswith(prefix))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(), NAMES), max_size=30),
        st.lists(NAMES, min_size=1, max_size=6),
    )
    def test_simulated_s3_matches_a_scan_and_charges_the_same(self, steps, prefixes):
        s3 = SimulatedS3()
        names = set()
        for write, name in steps:
            if write and name not in names:
                s3.write(name, b"x")
                names.add(name)
            elif not write:
                s3.delete(name)
                names.discard(name)
        for prefix in prefixes + [""]:
            expected = sorted(n for n in names if n.startswith(prefix))
            before = (s3.metrics.list_requests, s3.metrics.sim_seconds, s3.metrics.dollars)
            assert s3.peek(prefix) == expected
            assert (s3.metrics.list_requests, s3.metrics.sim_seconds, s3.metrics.dollars) == before
            assert s3.list(prefix) == expected
            assert s3.metrics.list_requests == before[0] + 1
            assert s3.metrics.sim_seconds == before[1] + s3.latency.list_seconds
            assert s3.metrics.dollars == before[2] + s3.cost.list_cost()

    def test_a_listing_is_a_copy(self):
        fs = MemoryFilesystem()
        fs.write("a", b"x")
        listing = fs.list()
        listing.append("zz")
        assert fs.list() == ["a"]

    def test_list_fault_draw_is_unchanged(self):
        s3 = SimulatedS3(faults=FaultInjector(failure_rate=1.0, seed=1))
        with pytest.raises(TransientStorageError):
            s3.list("a")
        assert s3.op_stats["LIST"].transient_faults == 1


class TestEonOnAGivenStore:
    """The whole Eon stack over a ``SimulatedS3`` its caller built; shared
    storage is S3 (section 5.1), and any other store is refused, typed,
    before the cluster builds anything."""

    @pytest.fixture
    def cluster(self):
        c = EonCluster(
            ["n1", "n2", "n3"], shard_count=3, seed=15,
            shared_storage=SimulatedS3(),
        )
        c.execute("create table t (a int, b varchar)")
        c.load("t", [(i, f"g{i % 3}") for i in range(300)])
        return c

    def test_load_and_query(self, cluster):
        out = cluster.query("select b, count(*) n from t group by b order by b")
        assert out.rows.to_pylist() == [("g0", 100), ("g1", 100), ("g2", 100)]

    def test_failure_and_recovery(self, cluster):
        cluster.kill_node("n2")
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]
        cluster.recover_node("n2")
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]

    def test_revive(self, cluster):
        from repro.cluster.revive import revive

        clock = cluster.clock
        cluster.graceful_shutdown()
        revived = revive(cluster.shared, clock=clock)
        assert revived.query("select count(*) from t").rows.to_pylist() == [(300,)]

    def test_dml(self, cluster):
        cluster.execute("delete from t where a < 100")
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(200,)]

    @pytest.mark.parametrize("store", [
        MemoryFilesystem, lambda: RetryingFilesystem(SimulatedS3()),
        lambda: PrefixView(SimulatedS3(), "data_"),
    ], ids=["memory", "retrying", "prefixed"])
    def test_a_store_that_is_not_s3_is_refused(self, store):
        store = store()
        with pytest.raises(UnsupportedSharedStorage, match="SimulatedS3") as err:
            EonCluster(["n1", "n2"], shard_count=2, shared_storage=store)
        assert isinstance(err.value, ReproError)
        assert store.list() == [] and store.metrics.put_requests == 0

    def test_revive_refuses_a_copy_that_is_not_s3(self, cluster):
        from repro.cluster.revive import revive

        cluster.graceful_shutdown()
        copy = MemoryFilesystem()
        for name in cluster.shared.peek():
            copy.write(name, cluster.shared.peek_object(name))
        written = len(copy.list())
        with pytest.raises(UnsupportedSharedStorage):
            revive(copy, clock=cluster.clock)
        assert len(copy.list()) == written and copy.metrics.put_requests == written
