"""Database Designer v2: cost-based projection recommendations (§2.1).

Covers the two-stage designer (qualified ingestion + cost-based search)
and the regression fixes it ships:

* qualified ``(table, column)`` attribution — two tables sharing a column
  name no longer poison each other's statistics (and no longer fail to
  bind at all when the shared name is unreferenced);
* idempotent, versioned ``apply()`` — re-running the designer keeps
  matching projections instead of colliding, and a workload shift
  supersedes (creates v2, drops v1) atomically;
* ``add_workload`` reports skipped statements instead of swallowing
  every exception.
"""

import pytest

from repro import EonCluster
from repro.engine.designer import DatabaseDesigner, dbd_version
from repro.errors import CatalogError, SqlError


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=18)
    c.execute("""
        create table fact (fk int, dim_ref int, amount float, ts int)
    """)
    c.execute("create table dim (dim_id int, label varchar)")
    return c


WORKLOAD = [
    "select label, sum(amount) from fact, dim where dim_ref = dim_id group by label",
    "select sum(amount) from fact where ts between 100 and 200",
    "select label, count(*) from fact join dim on dim_ref = dim_id "
    "where ts > 500 group by label",
]


def designer_for(cluster, row_counts=None):
    state = cluster.any_up_node().catalog.state
    return DatabaseDesigner(state, row_counts=row_counts)


class TestProfiling:
    def test_rejects_non_select(self, cluster):
        designer = designer_for(cluster)
        with pytest.raises(SqlError):
            designer.add_query("create table zzz (a int)")

    def test_add_workload_reports_skipped(self, cluster):
        designer = designer_for(cluster)
        report = designer.add_workload(WORKLOAD + ["select ghost from fact"])
        assert report.used == len(WORKLOAD)
        assert len(report.skipped) == 1
        sql, reason = report.skipped[0]
        assert sql == "select ghost from fact"
        assert "ghost" in reason

    def test_repeated_queries_gain_weight(self, cluster):
        designer = designer_for(cluster)
        designer.add_query(WORKLOAD[1])
        designer.add_query(WORKLOAD[1])
        designer.add_query(WORKLOAD[1], weight=3.0)
        (stat,) = designer._queries.values()
        assert stat.weight == 5.0


class TestQualifiedAttribution:
    """Regression: designer v1 keyed column ownership by bare name, so
    same-named columns across tables collided (`designer.py:135-140` of
    the old module).  With the binder's eager duplicate check, the
    observable failure was that any join between two tables sharing an
    *unreferenced* column name refused to bind, and ``add_workload``'s
    bare ``except`` silently dropped the query — the designer ignored
    that part of the workload entirely."""

    @pytest.fixture
    def shared_name_cluster(self):
        c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=18)
        # Both tables have a ``day`` column — common in real schemas.
        c.execute(
            "create table orders (oid int, store_ref int, total float, day int)"
        )
        c.execute("create table stores (sid int, day int, size int)")
        return c

    def test_join_with_unreferenced_shared_column_binds(
        self, shared_name_cluster
    ):
        designer = designer_for(shared_name_cluster)
        report = designer.add_workload([
            "select sum(total) from orders, stores "
            "where store_ref = sid and total > 5",
        ])
        assert report.used == 1 and not report.skipped
        by_table = {p.table: p for p in designer.propose()}
        assert set(by_table) == {"orders", "stores"}

    def test_stats_attributed_to_owning_table(self, shared_name_cluster):
        designer = designer_for(shared_name_cluster)
        designer.add_workload([
            "select sum(total) from orders, stores "
            "where store_ref = sid and total > 5",
        ])
        by_table = {p.table: p for p in designer.propose()}
        # The filter on orders.total lands on orders, never on stores.
        assert "total" in by_table["orders"].sort_order
        assert "total" not in by_table["stores"].columns
        assert "day" not in by_table["stores"].columns
        # Join keys segment each side by its own column.
        assert by_table["orders"].segmentation.columns == ("store_ref",)
        assert by_table["stores"].segmentation.columns == ("sid",)

    def test_referencing_shared_name_is_reported_ambiguous(
        self, shared_name_cluster
    ):
        designer = designer_for(shared_name_cluster)
        with pytest.raises(SqlError, match="ambiguous"):
            designer.add_query(
                "select sum(total) from orders, stores "
                "where store_ref = sid and day > 5"
            )
        report = designer.add_workload([
            "select sum(total) from orders, stores "
            "where store_ref = sid and day > 5",
        ])
        assert report.used == 0
        assert "ambiguous" in report.skipped[0][1]


class TestProposals:
    def test_segmentation_follows_join_keys(self, cluster):
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        by_table = {p.table: p for p in designer.propose()}
        assert by_table["fact"].segmentation.columns == ("dim_ref",)
        assert by_table["dim"].segmentation.columns == ("dim_id",)

    def test_small_dimension_replicated(self, cluster):
        designer = designer_for(cluster, row_counts={"dim": 100})
        designer.add_workload(WORKLOAD)
        by_table = {p.table: p for p in designer.propose()}
        assert by_table["dim"].segmentation.is_replicated

    def test_sort_order_prefers_filtered_columns(self, cluster):
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        fact = {p.table: p for p in designer.propose()}["fact"]
        assert fact.sort_order[0] == "ts"  # range-filtered twice

    def test_columns_cover_workload_only(self, cluster):
        designer = designer_for(cluster)
        designer.add_query(
            "select sum(amount) from fact where ts > 10"
        )
        fact = {p.table: p for p in designer.propose()}["fact"]
        assert set(fact.columns) == {"amount", "ts"}

    def test_proposal_sql_parses(self, cluster):
        from repro.sql.parser import parse

        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        for proposal in designer.propose():
            statements = parse(proposal.to_sql())
            assert len(statements) == 1

    def test_reasons_explain_choices(self, cluster):
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        fact = {p.table: p for p in designer.propose()}["fact"]
        assert any("segmented" in r for r in fact.reasons)
        assert any("covers" in r for r in fact.reasons)
        assert any("scored" in r for r in fact.reasons)

    def test_encoding_advice_covers_columns(self, cluster):
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        for proposal in designer.propose():
            advised = [column for column, _enc in proposal.encodings]
            assert advised == list(proposal.columns)

    def test_search_never_worse_than_existing_layout(self, cluster):
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        designer.propose()
        search = designer._last_search
        assert search.estimated.seconds <= search.baseline.seconds + 1e-9


class TestApply:
    def _loaded(self, cluster):
        cluster.load("fact", [(i, i % 10, float(i), i) for i in range(500)])
        cluster.load("dim", [(i, f"L{i}") for i in range(10)])

    def test_applied_design_enables_local_joins(self, cluster):
        self._loaded(cluster)
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        run = designer.apply(cluster)
        assert run.created
        result = cluster.query(WORKLOAD[0])
        # The designed projections drive the plan, and the join is local.
        assert result.plan.projections_used["fact"] == "fact_dbd_v1"
        from repro.engine.plan import JoinNode, walk

        joins = [n for n in walk(result.plan.root) if isinstance(n, JoinNode)]
        assert joins and all(j.locality == "local" for j in joins)

    def test_applied_design_correctness(self, cluster):
        self._loaded(cluster)
        before = cluster.query(WORKLOAD[0]).rows.to_pylist()
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        designer.apply(cluster)  # triggers projection refresh
        after = cluster.query(WORKLOAD[0]).rows.to_pylist()
        assert sorted(after) == sorted(before)

    def test_apply_rerun_is_idempotent(self, cluster):
        """Regression: v1 always emitted ``<table>_dbd``, so a second
        apply collided with the first."""
        self._loaded(cluster)
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        first = designer.apply(cluster)
        assert first.created
        names_after_first = set(
            cluster.any_up_node().catalog.state.projections
        )
        rerun = designer_for(cluster)  # fresh designer, same workload
        rerun.add_workload(WORKLOAD)
        second = rerun.apply(cluster)
        assert second.created == ()
        assert second.dropped == ()
        assert set(second.kept) >= set(first.created)
        assert set(cluster.any_up_node().catalog.state.projections) == (
            names_after_first
        )

    def test_workload_shift_versions_and_drops(self, cluster):
        self._loaded(cluster)
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        first = designer.apply(cluster)
        assert "fact_dbd_v1" in first.created
        probe = "select sum(amount) from fact where fk between 0 and 3"
        before = sorted(cluster.query(probe).rows.to_pylist())
        shifted = designer_for(cluster)
        shifted.add_workload([probe])
        second = shifted.apply(cluster)
        assert "fact_dbd_v2" in second.created
        assert "fact_dbd_v1" in second.dropped
        state = cluster.any_up_node().catalog.state
        assert "fact_dbd_v1" not in state.projections
        assert sorted(cluster.query(probe).rows.to_pylist()) == before

    def test_designer_runs_system_table(self, cluster):
        self._loaded(cluster)
        cluster.enable_observability()
        designer = designer_for(cluster)
        designer.add_workload(WORKLOAD)
        designer.apply(cluster)
        rows = cluster.query(
            "select run_id, search_mode, created from v_monitor.designer_runs"
        ).rows.to_pylist()
        assert len(rows) == 1
        run_id, mode, created = rows[0]
        assert run_id == 1
        assert mode == "milp"
        assert "fact_dbd_v1" in created

    def test_ingest_recorded_builds_workload(self, cluster):
        self._loaded(cluster)
        cluster.enable_observability()
        for sql in WORKLOAD:
            cluster.query(sql)
        cluster.query(WORKLOAD[1])  # repeat: gains weight
        cluster.query("select run_id from v_monitor.designer_runs")  # excluded
        designer = DatabaseDesigner.for_cluster(cluster)
        report = designer.ingest_recorded(cluster)
        assert report.used == len(WORKLOAD) + 1 and not report.skipped
        assert len(designer._queries) == len(WORKLOAD)
        run = designer.apply(cluster)
        assert run.created


class TestDropProjections:
    def test_refuses_to_drop_last_projection(self, cluster):
        with pytest.raises(CatalogError, match="last projection"):
            cluster.drop_projections(["fact_super"])

    def test_drop_reclaims_catalog_entries(self, cluster):
        cluster.load("fact", [(i, i % 10, float(i), i) for i in range(100)])
        cluster.create_projection(
            "fact_extra", "fact", ["fk", "amount"], ["fk"],
            __import__("repro.catalog.objects", fromlist=["Segmentation"])
            .Segmentation.by_hash("fk"),
        )
        state = cluster.any_up_node().catalog.state
        assert "fact_extra" in state.projections
        cluster.drop_projection("fact_extra")
        state = cluster.any_up_node().catalog.state
        assert "fact_extra" not in state.projections
        assert not state.containers_of("fact_extra")


class TestDbdNames:
    def test_version_parsing(self):
        assert dbd_version("fact", "fact_dbd") == 1
        assert dbd_version("fact", "fact_dbd_v3") == 3
        assert dbd_version("fact", "fact_super") is None
        assert dbd_version("fact", "other_dbd") is None
        assert dbd_version("fact", "fact_dbd_v") is None
