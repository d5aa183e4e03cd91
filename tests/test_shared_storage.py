"""UDFS backends: POSIX/memory semantics, simulated S3, retries, metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObjectNotFound, StorageError, TransientStorageError
from repro.shared_storage.api import PrefixView, retrying
from repro.shared_storage.posix import LocalFilesystem, MemoryFilesystem
from repro.shared_storage.s3 import FaultInjector, S3CostModel, SimulatedS3


@pytest.fixture(params=["memory", "local", "s3"])
def fs(request, tmp_path):
    if request.param == "memory":
        return MemoryFilesystem()
    if request.param == "local":
        return LocalFilesystem(str(tmp_path / "fsroot"))
    return SimulatedS3()


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


class TestPosixExtras:
    def test_rename(self, tmp_path):
        fs = LocalFilesystem(str(tmp_path / "r"))
        fs.write("old", b"x")
        fs.rename("old", "new")
        assert fs.read("new") == b"x"
        assert not fs.contains("old")

    def test_append(self):
        fs = MemoryFilesystem()
        fs.write("a", b"x")
        fs.append("a", b"y")
        assert fs.read("a") == b"xy"

    def test_invalid_names_rejected(self, tmp_path):
        fs = LocalFilesystem(str(tmp_path / "v"))
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(StorageError):
                fs.write(bad, b"x")


class TestSimulatedS3:
    def test_no_rename_or_append(self):
        s3 = SimulatedS3()
        s3.write("x", b"1")
        with pytest.raises(StorageError):
            s3.rename("x", "y")
        with pytest.raises(StorageError):
            s3.append("x", b"2")

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

    def test_gives_up_after_max_attempts(self):
        def op():
            raise TransientStorageError("always")

        with pytest.raises(TransientStorageError):
            retrying(op, max_attempts=3)

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
        st.lists(st.tuples(st.sampled_from(["write", "delete", "rename", "append"]),
                           NAMES, NAMES), max_size=30),
        st.lists(NAMES, min_size=1, max_size=6),
    )
    def test_memory_filesystem_matches_a_scan(self, steps, prefixes):
        fs = MemoryFilesystem()
        names = set()
        for action, name, other in steps:
            if action == "write":
                fs.write(name, b"x")
                names.add(name)
            elif action == "append":
                fs.append(name, b"y")
                names.add(name)
            elif action == "delete":
                fs.delete(name)
                names.discard(name)
            elif name in names:
                fs.rename(name, other)
                names.discard(name)
                names.add(other)
            for prefix in prefixes + [""]:
                assert fs.list(prefix) == sorted(n for n in names if n.startswith(prefix))
        assert fs.object_count == len(names)

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
