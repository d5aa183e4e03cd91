"""Property suite for the fetch planner and the batch/serial parity
contract: random file sets, sizes, resident/bypass subsets.

The invariants pinned here are the ones the scheduler's correctness rests
on: a plan covers exactly the deduplicated request keys (each once),
coalesced groups respect every threshold, the batch path delivers byte
streams identical to serial fetches, and LRU state is a deterministic
function of the seed."""

import random

from hypothesis import given, settings, strategies as st

from repro import EonCluster
from repro.cache.disk_cache import FileCache
from repro.engine.executor import ScanResult
from repro.io import scheduler as CONFIG
from repro.io.scheduler import FetchRequest, plan_fetch
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage.container import RowSet


def _request_lists():
    """Random request lists: small key alphabet (to force duplicates),
    sizes straddling the coalesce file limit, non-decreasing ordinals."""
    entry = st.tuples(
        st.integers(0, 14),  # key id
        st.integers(1, 600_000),  # size (limit is 256 KiB)
        st.integers(0, 3),  # ordinal increment
    )
    return st.lists(entry, max_size=30).map(_build_requests)


def _build_requests(entries):
    requests = []
    ordinal = 0
    for key_id, size, bump in entries:
        ordinal += bump
        requests.append(FetchRequest(f"obj{key_id}", size, ordinal))
    return requests


def _subset(requests, salt):
    keys = sorted({r.key for r in requests})
    rng = random.Random(salt)
    return {k for k in keys if rng.random() < 0.3}


class TestPlanProperties:
    @given(requests=_request_lists(), salt=st.integers(0, 1 << 16))
    @settings(max_examples=120, deadline=None)
    def test_exact_coverage_no_duplicates(self, requests, salt):
        resident = _subset(requests, salt)
        bypass = _subset(requests, salt ^ 0xBEEF)
        plan = plan_fetch(requests, resident, bypass)
        planned = [r.key for r in plan.resident]
        planned += [r.key for g in plan.groups for r in g]
        unique = {r.key for r in requests}
        assert sorted(planned) == sorted(unique)  # each key exactly once
        assert plan.duplicates == len(requests) - len(unique)
        assert set(r.key for r in plan.resident) <= resident

    @given(requests=_request_lists(), salt=st.integers(0, 1 << 16))
    @settings(max_examples=120, deadline=None)
    def test_groups_respect_thresholds(self, requests, salt):
        bypass = _subset(requests, salt)
        plan = plan_fetch(requests, set(), bypass)
        for group in plan.groups:
            if len(group) == 1:
                continue
            assert len(group) <= CONFIG.COALESCE_MAX_FILES
            assert sum(r.size for r in group) <= CONFIG.COALESCE_MAX_BYTES
            for member in group:
                assert member.size <= CONFIG.COALESCE_FILE_LIMIT
                assert member.key not in bypass
            for left, right in zip(group, group[1:]):
                gap = right.container_index - left.container_index
                assert gap <= CONFIG.COALESCE_MAX_GAP

    @given(requests=_request_lists(), salt=st.integers(0, 1 << 16))
    @settings(max_examples=120, deadline=None)
    def test_bytes_identical_to_serial(self, requests, salt):
        # A serial path fetches each unique non-resident key once; the
        # plan's fetch units must account for exactly the same bytes.
        resident = _subset(requests, salt)
        plan = plan_fetch(requests, resident, set())
        # First occurrence wins under dedup (a real key has one size).
        sizes = {}
        for r in requests:
            sizes.setdefault(r.key, r.size)
        serial = sum(
            size for key, size in sizes.items() if key not in resident
        )
        planned = sum(r.size for g in plan.groups for r in g)
        assert planned == serial

    @given(requests=_request_lists(), salt=st.integers(0, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_planning_is_deterministic(self, requests, salt):
        resident = _subset(requests, salt)
        bypass = _subset(requests, salt ^ 0xBEEF)
        first = plan_fetch(requests, resident, bypass)
        second = plan_fetch(requests, resident, bypass)
        assert first == second

    @given(requests=_request_lists())
    @settings(max_examples=60, deadline=None)
    def test_serial_backend_never_coalesces(self, requests):
        plan = plan_fetch(requests, set(), set(), supports_coalesced=False)
        assert all(len(g) == 1 for g in plan.groups)


class TestBatchSerialParity:
    """End-to-end: the batch fetch delivers bit-identical bytes to serial
    reads of the same objects, whatever the random file set."""

    @given(
        sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=12),
        seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=20, deadline=None)
    def test_batch_bytes_match_objects(self, sizes, seed):
        cluster = EonCluster(["n1"], shard_count=1, seed=3)
        rng = random.Random(seed)
        expected = {}
        requests = []
        for i, size in enumerate(sizes):
            key = f"blob{i}"
            data = bytes(rng.randrange(256) for _ in range(size))
            cluster.shared_data.write(key, data)
            expected[key] = data
            requests.append(FetchRequest(key, size, i))
        node = cluster.nodes["n1"]
        from repro.common.types import ColumnType, SchemaColumn, TableSchema

        result = ScanResult(
            rows=RowSet.empty(
                TableSchema([SchemaColumn("a", ColumnType.INT)])
            )
        )
        batch = cluster.io_scheduler.fetch_batch(
            node, requests, use_cache=True, result=result
        )
        assert batch.data == expected
        assert result.bytes_from_shared == sum(sizes)
        assert result.depot_misses == len(sizes)
        assert cluster.io_scheduler.stats.double_fetches == 0


class TestLruDeterminism:
    """Same seed => same LRU order, hit pattern, and eviction history."""

    @given(seed=st.integers(0, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_lru_state(self, seed):
        def run():
            cache = FileCache(MemoryFilesystem(), capacity_bytes=4096)
            rng = random.Random(seed)
            for _ in range(60):
                key = f"f{rng.randrange(12)}"
                if rng.random() < 0.5:
                    cache.put(key, bytes(rng.randrange(1, 700)))
                else:
                    cache.get(key)
            return (
                cache.warm_list(cache.capacity_bytes),
                cache.stats.hits,
                cache.stats.misses,
                cache.stats.evictions,
                cache.used_bytes,
            )

        assert run() == run()
