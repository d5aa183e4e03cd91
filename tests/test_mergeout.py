"""Tuple mover: strata selection, mergeout coordination, purging (§6.2)."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro import EonCluster
from repro.common.oid import SidFactory
from repro.storage.container import ROSContainer
from repro.tuple_mover import MergeoutCoordinatorService, select_mergeout_candidates
from repro.tuple_mover.mergeout import _stratum_bounds


def fake_container(sids, size, projection="p", deleted=0, shard=0):
    return ROSContainer(
        sid=sids.next_sid(),
        projection=projection,
        shard_id=shard,
        row_count=100,
        size_bytes=size,
        min_values=(),
        max_values=(),
    )


class TestStrataSelection:
    def test_stratum_boundaries_exponential(self):
        bounds = _stratum_bounds(100, 4)
        assert bounds[:3] == (100, 400, 1600)
        strata = [bisect_left(bounds, size) for size in (1, 100, 101, 400, 401)]
        assert strata == [0, 0, 1, 1, 2]

    def test_merges_only_within_stratum(self):
        sids = SidFactory(random.Random(1))
        small = [fake_container(sids, 50) for _ in range(4)]
        large = [fake_container(sids, 100_000) for _ in range(2)]
        jobs = select_mergeout_candidates(small + large, strata_width=4, base_bytes=100)
        assert len(jobs) == 1
        assert {str(c.sid) for c in jobs[0]} == {str(c.sid) for c in small}

    def test_no_job_below_width(self):
        sids = SidFactory(random.Random(2))
        containers = [fake_container(sids, 50) for _ in range(3)]
        assert select_mergeout_candidates(containers, strata_width=4) == []

    def test_multiple_jobs_in_full_stratum(self):
        sids = SidFactory(random.Random(3))
        containers = [fake_container(sids, 50) for _ in range(9)]
        jobs = select_mergeout_candidates(containers, strata_width=4, base_bytes=100)
        assert len(jobs) == 2  # 9 // 4

    def test_heavily_deleted_containers_prioritised(self):
        sids = SidFactory(random.Random(4))
        # Containers one stratum up, but with >=20% deleted rows they drop
        # a stratum and become mergeable with the small ones.
        deleted = [fake_container(sids, 150) for _ in range(2)]
        small = [fake_container(sids, 50) for _ in range(2)]
        counts = {str(c.sid): 30 for c in deleted}  # 30 of 100 rows deleted
        jobs = select_mergeout_candidates(
            deleted + small, deleted_counts=counts, strata_width=4, base_bytes=100
        )
        assert len(jobs) == 1 and len(jobs[0]) == 4

    def test_bounded_write_amplification(self):
        """Each tuple is merged only O(log) times under repeated mergeout."""
        sids = SidFactory(random.Random(5))
        containers = [fake_container(sids, 100) for _ in range(64)]
        merges_per_tuple = 0
        width = 4
        while True:
            jobs = select_mergeout_candidates(containers, strata_width=width, base_bytes=100)
            if not jobs:
                break
            merges_per_tuple += 1
            survivors = [c for c in containers if not any(c in j for j in jobs)]
            for job in jobs:
                total = sum(c.size_bytes for c in job)
                survivors.append(fake_container(sids, total))
            containers = survivors
        assert merges_per_tuple <= 4  # log_4(64) = 3 plus slack


def reference_candidates(containers, deleted_counts, strata_width, base_bytes):
    """``select_mergeout_candidates`` as it was: a loop per container."""
    strata = {}
    for container in containers:
        stratum, bound = 0, base_bytes
        while container.size_bytes > bound:
            stratum += 1
            bound *= strata_width
        deleted = deleted_counts.get(str(container.sid), 0)
        if container.row_count and deleted / container.row_count >= 0.2:
            stratum = max(0, stratum - 1)
        strata.setdefault(stratum, []).append(container)
    jobs = []
    for stratum in sorted(strata):
        members = sorted(strata[stratum], key=lambda c: (c.size_bytes, str(c.sid)))
        while len(members) >= strata_width:
            jobs.append(members[:strata_width])
            members = members[strata_width:]
    return jobs


class TestSelectionAgainstTheLoop:
    @given(st.lists(st.tuples(st.integers(0, 3_000_000), st.integers(0, 100),
                              st.integers(0, 60)), max_size=60),
           st.integers(2, 5), st.sampled_from([1, 100, 4096]), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_the_same_jobs_in_the_same_order(self, specs, width, base, rnd):
        sids = SidFactory(rnd)
        containers, deleted = [], {}
        for size, rows, dead in specs:
            c = ROSContainer(sid=sids.next_sid(), projection="p", shard_id=0, row_count=rows,
                             size_bytes=size, min_values=(), max_values=())
            containers.append(c)
            if dead:
                deleted[str(c.sid)] = dead
        got = select_mergeout_candidates(containers, deleted, strata_width=width, base_bytes=base)
        want = reference_candidates(containers, deleted, width, base)
        assert [list(map(id, job)) for job in got] == [list(map(id, job)) for job in want]


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=6)
    c.execute("create table t (a int, b varchar)")
    for batch in range(8):
        c.load("t", [(batch * 50 + i, f"g{i % 3}") for i in range(50)])
    return c


class TestMergeoutService:
    def test_coordinators_elected_per_shard(self, cluster):
        service = MergeoutCoordinatorService(cluster)
        coordinators = service.ensure_coordinators()
        assert set(coordinators) == set(cluster.shard_map.all_shard_ids())
        for shard, node in coordinators.items():
            assert node in cluster.active_up_subscribers(shard)

    def test_coordinators_balanced(self, cluster):
        service = MergeoutCoordinatorService(cluster)
        coordinators = service.ensure_coordinators()
        loads = {}
        for node in coordinators.values():
            loads[node] = loads.get(node, 0) + 1
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_coordinator_reelected_after_failure(self, cluster):
        service = MergeoutCoordinatorService(cluster)
        before = service.ensure_coordinators()
        victim = before[0]
        cluster.kill_node(victim)
        after = service.ensure_coordinators()
        assert after[0] != victim
        assert cluster.nodes[after[0]].is_up

    def test_mergeout_reduces_containers_preserves_data(self, cluster):
        checksum = cluster.query("select count(*), sum(a) from t").rows.to_pylist()
        count_before = len({
            sid for n in cluster.up_nodes() for sid in n.catalog.state.containers
        })
        service = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256)
        report = service.run_all()
        assert report.jobs_run > 0
        count_after = len({
            sid for n in cluster.up_nodes() for sid in n.catalog.state.containers
        })
        assert count_after < count_before
        assert cluster.query("select count(*), sum(a) from t").rows.to_pylist() == checksum

    def test_mergeout_purges_deleted_rows(self, cluster):
        cluster.execute("delete from t where a < 100")
        service = MergeoutCoordinatorService(cluster, strata_width=2, base_bytes=64)
        report = service.run_all()
        assert report.rows_purged > 0
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]

    def test_merged_output_lands_in_caches(self, cluster):
        service = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256)
        service.run_all()
        # New containers are in the coordinator's and peers' caches.
        state_files = set()
        for node in cluster.up_nodes():
            state_files |= set(node.catalog.state.containers)
        cached_anywhere = set()
        for node in cluster.up_nodes():
            cached_anywhere |= {
                name for name in state_files if node.cache.contains(name)
            }
        assert state_files == cached_anywhere

    def test_old_containers_queued_for_reaping(self, cluster):
        service = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256)
        report = service.run_all()
        assert len(cluster.reaper._pending) >= report.containers_merged
