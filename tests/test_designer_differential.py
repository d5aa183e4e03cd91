"""TPC-H apply differential for the cost-based designer.

The contract of an online re-design is that it changes *physical layout
only*: every TPC-H query must return bit-identical row digests before the
designer runs, after it applies its winning projections, after an
idempotent re-apply, and after a workload shift supersedes those
projections with new versions.  The queries are the same Figure-10 set
the engine differential uses, digested with the same canonicalisation.
"""

from __future__ import annotations

import pytest

from repro import EonCluster
from repro.engine.designer import DatabaseDesigner, dbd_version
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TpchData,
    load_tpch,
    setup_tpch_schema,
)
from tests.helpers import row_digest

pytestmark = pytest.mark.differential


def fresh_tpch(data: TpchData) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    load_tpch(cluster, data)
    return cluster


def digests(cluster, sqls) -> dict:
    return {
        sql: row_digest(cluster.query(sql).rows.to_pylist()) for sql in sqls
    }


class TestTpchApplyDifferential:
    def test_digests_identical_before_and_after_apply(self, tpch_data):
        cluster = fresh_tpch(tpch_data)
        designer = DatabaseDesigner.for_cluster(
            cluster, row_counts=tpch_data.row_counts()
        )
        workload = [q.sql for q in TPCH_QUERIES]
        report = designer.add_workload(workload)
        assert report.used >= 15, report.skipped
        skipped = {sql for sql, _ in report.skipped}
        usable = [sql for sql in workload if sql not in skipped]
        before = digests(cluster, usable)
        run = designer.apply(cluster)
        assert run.created, "the designed layout should differ from super"
        assert all(
            (dbd_version(name.split("_dbd")[0], name) or 0) >= 1
            for name in run.created
        )
        assert digests(cluster, usable) == before

    def test_reapply_is_idempotent_and_shift_preserves_digests(self, tpch_data):
        cluster = fresh_tpch(tpch_data)
        workload = [q.sql for q in TPCH_QUERIES]
        designer = DatabaseDesigner.for_cluster(
            cluster, row_counts=tpch_data.row_counts()
        )
        report = designer.add_workload(workload)
        skipped = {sql for sql, _ in report.skipped}
        usable = [sql for sql in workload if sql not in skipped]
        before = digests(cluster, usable)
        first = designer.apply(cluster)
        assert first.created

        # Idempotent re-apply: same workload, nothing created or dropped.
        rerun = DatabaseDesigner.for_cluster(
            cluster, row_counts=tpch_data.row_counts()
        )
        rerun.add_workload(workload)
        second = rerun.apply(cluster)
        assert second.created == () and second.dropped == ()
        assert set(second.kept) >= set(first.created)
        assert digests(cluster, usable) == before

        # Workload shift: a dashboard-style slice over lineitem supersedes
        # the TPC-H design for that table with a new version — digests of
        # the *original* workload must still be bit-identical.
        shifted = DatabaseDesigner.for_cluster(
            cluster, row_counts=tpch_data.row_counts()
        )
        shifted.add_workload([
            "select sum(l_quantity) from lineitem where l_partkey > 100",
            "select count(*) from lineitem where l_partkey > 500",
        ])
        third = shifted.apply(cluster)
        lineitem_versions = {
            name: dbd_version("lineitem", name)
            for name in (*third.created, *third.dropped)
            if name.startswith("lineitem_dbd")
        }
        if third.created:
            state = cluster.any_up_node().catalog.state
            for name in third.dropped:
                assert name not in state.projections
            for name in third.created:
                assert name in state.projections
        assert all(v is not None for v in lineitem_versions.values())
        assert digests(cluster, usable) == before
