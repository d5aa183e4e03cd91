"""Query cancellation and session bookkeeping."""

import pytest

from repro import EonCluster
from repro.errors import QueryCancelled
from repro.sql.parser import parse


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=17)
    c.execute("create table t (a int, b varchar)")
    for batch in range(4):
        c.load("t", [(batch * 100 + i, "x") for i in range(100)])
    return c


class TestCancellation:
    def test_cancelled_session_aborts_query(self, cluster):
        session = cluster.create_session(seed=1)
        session.cancel()
        with pytest.raises(QueryCancelled):
            cluster.query_statement(
                parse("select count(*) from t")[0], session=session
            )
        session.release()

    def test_cancel_mid_scan(self, cluster, monkeypatch):
        """Cancellation arriving between shared-storage reads aborts the
        query at the next fetch-unit boundary of the I/O scheduler."""
        from repro.shared_storage.s3 import SimulatedS3

        for node in cluster.nodes.values():
            node.cache.clear()  # cold depots: the scan must go to S3
        session = cluster.create_session(seed=1)
        calls = {"n": 0}
        original_read = SimulatedS3.read
        original_coalesced = SimulatedS3.read_coalesced

        def note_call():
            calls["n"] += 1
            if calls["n"] == 2:
                session.cancel()  # cancellation arrives between file reads

        def cancelling_read(fs, name):
            note_call()
            return original_read(fs, name)

        def cancelling_coalesced(fs, names):
            note_call()
            return original_coalesced(fs, names)

        monkeypatch.setattr(SimulatedS3, "read", cancelling_read)
        monkeypatch.setattr(SimulatedS3, "read_coalesced", cancelling_coalesced)
        with pytest.raises(QueryCancelled):
            cluster.query_statement(
                parse("select count(*) from t")[0], session=session
            )
        session.release()

    def test_cancel_mid_scan_serial_path(self, cluster, monkeypatch):
        """Under the file-by-file reference scheduler the scan stays
        cancellable: it polls between containers."""
        from tests.test_io_scheduler import SerialFetch

        cluster.io_scheduler = SerialFetch(cluster)
        session = cluster.create_session(seed=1)
        calls = {"n": 0}
        original = type(cluster.nodes["n1"]).fetch_storage

        def cancelling_fetch(node, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                session.cancel()  # cancellation arrives between file reads
            return original(node, *args, **kwargs)

        monkeypatch.setattr(type(cluster.nodes["n1"]), "fetch_storage", cancelling_fetch)
        with pytest.raises(QueryCancelled):
            cluster.query_statement(
                parse("select count(*) from t")[0], session=session
            )
        assert calls["n"] >= 2
        session.release()

    def test_cluster_usable_after_cancellation(self, cluster):
        session = cluster.create_session(seed=1)
        session.cancel()
        with pytest.raises(QueryCancelled):
            cluster.query_statement(
                parse("select count(*) from t")[0], session=session
            )
        session.release()
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(400,)]

    def test_cancelled_session_releases_snapshots(self, cluster):
        session = cluster.create_session(seed=1)
        pinned_at = cluster.version
        session.cancel()
        session.release()
        for node in cluster.up_nodes():
            assert node.catalog.min_pinned_version() == cluster.version


class TestSessionLifecycle:
    def test_context_manager_releases(self, cluster):
        with cluster.create_session(seed=2) as session:
            assert session.snapshots
        node = cluster.nodes[session.initiator]
        assert node.catalog.min_pinned_version() == cluster.version

    def test_double_release_harmless(self, cluster):
        session = cluster.create_session(seed=2)
        session.release()
        session.release()

    def test_participants_include_initiator(self, cluster):
        with cluster.create_session(seed=3) as session:
            assert session.initiator in session.participants()
