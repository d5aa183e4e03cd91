"""Crunch scaling (section 4.4): hash-filter and container-split sharing."""

import pytest

from repro import EonCluster, Segmentation
from repro.errors import ExecutionError
from repro.sql.parser import parse


@pytest.fixture
def cluster():
    c = EonCluster([f"n{i}" for i in range(6)], shard_count=3, seed=4)
    c.execute("create table t (k int, g int, v float)")
    c.execute("create table d (g2 int, lbl varchar)")
    c.create_projection("d_p", "d", ["g2", "lbl"], ["g2"], Segmentation.by_hash("g2"))
    c.load("t", [(i, i % 7, float(i)) for i in range(2000)])
    c.load("d", [(i, f"L{i}") for i in range(7)])
    return c


AGG_SQL = "select g, sum(v) s, count(*) n from t group by g order by g"
JOIN_SQL = "select lbl, sum(v) s from t join d on g = g2 group by lbl order by lbl"
DISTINCT_SQL = "select count(distinct g) from t"


def run(cluster, sql, **opts):
    session = cluster.create_session(**opts)
    with session:
        return cluster.query_statement(parse(sql)[0], session=session), session


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["hash", "container"])
    def test_aggregate_matches_baseline(self, cluster, mode):
        baseline = cluster.query(AGG_SQL)
        result, session = run(cluster, AGG_SQL, crunch=mode, nodes_per_shard=2, seed=8)
        assert result.rows.to_pylist() == baseline.rows.to_pylist()
        assert len(session.participants()) > 3

    @pytest.mark.parametrize("mode", ["hash", "container"])
    def test_join_matches_baseline(self, cluster, mode):
        baseline = cluster.query(JOIN_SQL)
        result, _ = run(cluster, JOIN_SQL, crunch=mode, nodes_per_shard=2, seed=8)
        assert result.rows.to_pylist() == baseline.rows.to_pylist()

    @pytest.mark.parametrize("mode", ["hash", "container"])
    def test_count_distinct_matches(self, cluster, mode):
        baseline = cluster.query(DISTINCT_SQL)
        result, _ = run(cluster, DISTINCT_SQL, crunch=mode, nodes_per_shard=2, seed=8)
        assert result.rows.to_pylist() == baseline.rows.to_pylist()

    def test_each_row_read_once_under_container_split(self, cluster):
        result, _ = run(
            cluster, "select count(*) from t", crunch="container",
            nodes_per_shard=2, seed=9,
        )
        assert result.rows.to_pylist() == [(2000,)]
        assert result.stats.total_rows_scanned == 2000

    def test_hash_filter_reads_everything_filters_locally(self, cluster):
        """Hash-filter: every sharing node fetches the shard's full files
        ("in the worst case each node reads the entire data-set for the
        shard") and keeps only its own hash slice."""
        baseline = cluster.query("select count(*) from t", seed=9)
        base_bytes = (
            baseline.stats.total_bytes_from_cache
            + baseline.stats.total_bytes_from_shared
        )
        result, session = run(
            cluster, "select count(*) from t", crunch="hash",
            nodes_per_shard=2, seed=9,
        )
        assert result.rows.to_pylist() == [(2000,)]
        crunch_bytes = (
            result.stats.total_bytes_from_cache
            + result.stats.total_bytes_from_shared
        )
        assert any(len(nodes) > 1 for nodes in session.sharing.values())
        assert crunch_bytes > base_bytes  # duplicated container reads


class TestSegmentationProperty:
    def test_hash_split_preserves_local_join(self, cluster):
        """The secondary hash re-segments by the same columns, so the
        co-located join stays correct without broadcast."""
        from repro.cluster.session import EonStorageProvider

        session = cluster.create_session(crunch="hash", nodes_per_shard=2, seed=3)
        with session:
            assert EonStorageProvider(session).preserves_segmentation

    def test_container_split_breaks_segmentation(self, cluster):
        from repro.cluster.session import EonStorageProvider

        session = cluster.create_session(crunch="container", nodes_per_shard=2, seed=3)
        with session:
            assert not EonStorageProvider(session).preserves_segmentation

    def test_sharing_lists_bounded_by_subscribers(self, cluster):
        session = cluster.create_session(crunch="hash", nodes_per_shard=10, seed=3)
        with session:
            for shard, nodes in session.sharing.items():
                assert len(nodes) <= len(cluster.active_up_subscribers(shard))
                assert len(set(nodes)) == len(nodes)

    def test_no_crunch_means_one_node_per_shard(self, cluster):
        session = cluster.create_session(seed=3)
        with session:
            assert all(len(nodes) == 1 for nodes in session.sharing.values())


class TestModes:
    @pytest.mark.parametrize("mode", ["auto", "bogus"])
    def test_an_unknown_mode_is_refused_typed(self, cluster, mode):
        """Only hash and container split a shard; any other mode would let
        every sharing node read the whole shard and count each row twice."""
        with pytest.raises(ExecutionError):
            cluster.query("select count(*) from t", crunch=mode, nodes_per_shard=2)
        with pytest.raises(ExecutionError):
            cluster.create_session(crunch=mode, nodes_per_shard=2)
        assert cluster.query("select count(*) from t", crunch="hash", nodes_per_shard=2) \
            .rows.to_pylist() == [(2000,)]
