"""Planner: projection choice, join locality, aggregation strategy, LAPs."""

import pytest

from repro.catalog.mvcc import (
    CatalogState,
    op_create_live_agg,
    op_create_projection,
    op_create_table,
)
from repro.catalog.objects import (
    AggregateSpec as LapAgg,
    LiveAggregateProjection,
    Projection,
    Segmentation,
    Table,
)
from repro.common.types import ColumnType, TableSchema
from repro.engine.plan import AggregateNode, JoinNode, ScanNode, walk
from repro.engine.planner import plan_query
from repro.errors import PlanningError
from repro.sql.binder import bind_select
from tests.test_sql import parse_one


def catalog() -> CatalogState:
    state = CatalogState()
    fact = Table("fact", TableSchema.of(
        ("fk", ColumnType.INT), ("dim_id", ColumnType.INT), ("v", ColumnType.FLOAT)))
    dim = Table("dim", TableSchema.of(
        ("d_id", ColumnType.INT), ("label", ColumnType.VARCHAR)))
    small = Table("small", TableSchema.of(
        ("s_id", ColumnType.INT), ("s_name", ColumnType.VARCHAR)))
    state.apply_all([op_create_table(fact)])
    state.apply_all([op_create_table(dim)])
    state.apply_all([op_create_table(small)])
    state.apply_all([op_create_projection(Projection(
        "fact_p", "fact", ("fk", "dim_id", "v"), ("fk",),
        Segmentation.by_hash("dim_id")))])
    state.apply_all([op_create_projection(Projection(
        "fact_narrow", "fact", ("fk", "v"), ("fk",), Segmentation.by_hash("fk")))])
    state.apply_all([op_create_projection(Projection(
        "dim_p", "dim", ("d_id", "label"), ("d_id",), Segmentation.by_hash("d_id")))])
    state.apply_all([op_create_projection(Projection(
        "small_p", "small", ("s_id", "s_name"), ("s_id",),
        Segmentation.replicated()))])
    return state


def plan_sql(sql: str):
    state = catalog()
    return plan_query(bind_select(parse_one(sql), state), state)


def find(plan, node_type):
    return [n for n in walk(plan.root) if isinstance(n, node_type)]


class TestProjectionChoice:
    def test_narrowest_covering_projection(self):
        plan = plan_sql("select sum(v) from fact")
        scan = find(plan, ScanNode)[0]
        assert scan.projection == "fact_narrow"

    def test_join_keys_prefer_co_segmentation(self):
        plan = plan_sql(
            "select label, sum(v) from fact, dim where dim_id = d_id group by label"
        )
        scan = [s for s in find(plan, ScanNode) if s.table == "fact"][0]
        assert scan.projection == "fact_p"  # segmented on dim_id

    def test_no_covering_projection_rejected(self):
        state = catalog()
        bound = bind_select(parse_one("select dim_id from fact where v > 0"), state)
        # Remove the wide projection to force the failure.
        del state.projections["fact_p"]
        with pytest.raises(PlanningError):
            plan_query(bound, state)

    def test_scan_reads_only_needed_columns(self):
        plan = plan_sql("select sum(v) from fact where fk > 0")
        scan = find(plan, ScanNode)[0]
        assert set(scan.columns) == {"fk", "v"}

    def test_filter_pushed_into_scan(self):
        plan = plan_sql("select sum(v) from fact where fk between 1 and 5")
        scan = find(plan, ScanNode)[0]
        assert scan.predicate is not None


class TestJoinLocality:
    def test_co_segmented_join_is_local(self):
        plan = plan_sql(
            "select label, sum(v) from fact, dim where dim_id = d_id group by label"
        )
        join = find(plan, JoinNode)[0]
        assert join.locality == "local"

    def test_replicated_build_side_is_local(self):
        plan = plan_sql(
            "select s_name, sum(v) from fact, small where fk = s_id group by s_name"
        )
        join = find(plan, JoinNode)[0]
        assert join.locality == "local"

    def test_mis_segmented_join_broadcasts(self):
        # Referencing dim_id forces the wide fact_p (segmented on dim_id),
        # while the join key is fk — not co-segmented, so broadcast.
        plan = plan_sql(
            "select label, sum(dim_id) from fact, dim where fk = d_id group by label"
        )
        join = find(plan, JoinNode)[0]
        assert join.locality == "broadcast"

    def test_projection_choice_rescues_locality(self):
        # Same join key, but without the dim_id reference the planner can
        # pick the fk-segmented narrow projection and keep the join local.
        plan = plan_sql(
            "select label, sum(v) from fact, dim where fk = d_id group by label"
        )
        join = find(plan, JoinNode)[0]
        assert join.locality == "local"


class TestAggregationStrategy:
    def test_group_on_segmentation_is_one_phase(self):
        plan = plan_sql("select dim_id, sum(v) from fact group by dim_id")
        agg = find(plan, AggregateNode)[0]
        assert agg.strategy == "one_phase"

    def test_group_elsewhere_is_two_phase(self):
        plan = plan_sql("select fk, sum(v) from fact group by fk")
        # fact_p is segmented by dim_id... fact_narrow by fk and covers.
        agg = find(plan, AggregateNode)[0]
        assert agg.strategy == "one_phase"  # narrow projection seg by fk wins

    def test_global_aggregate_two_phase(self):
        plan = plan_sql("select sum(v) from fact")
        agg = find(plan, AggregateNode)[0]
        assert agg.strategy == "two_phase"

    def test_mixed_distinct_gathers(self):
        plan = plan_sql(
            "select label, count(distinct fk), sum(v) "
            "from fact, dim where dim_id = d_id group by label"
        )
        agg = find(plan, AggregateNode)[0]
        assert agg.strategy == "gather_complete"

    def test_replicated_only_query_is_single_node(self):
        plan = plan_sql("select s_name from small where s_id = 1")
        assert plan.single_node


class TestLiveAggregateRewrite:
    def _state_with_lap(self):
        state = catalog()
        state.apply_all([op_create_live_agg(LiveAggregateProjection(
            name="fact_lap",
            anchor_table="fact",
            group_by=("dim_id",),
            aggregates=(
                LapAgg("sum", "v", "sum_v"),
                LapAgg("count", None, "n"),
            ),
            segmentation=Segmentation.by_hash("dim_id"),
        ))])
        return state

    def test_matching_query_uses_lap(self):
        state = self._state_with_lap()
        bound = bind_select(
            parse_one("select dim_id, sum(v), count(*) from fact group by dim_id"),
            state,
        )
        plan = plan_query(bound, state)
        assert plan.used_live_aggregate == "fact_lap"
        assert find(plan, ScanNode)[0].projection == "fact_lap"

    def test_filtered_query_skips_lap(self):
        state = self._state_with_lap()
        bound = bind_select(
            parse_one("select dim_id, sum(v) from fact where fk > 0 group by dim_id"),
            state,
        )
        plan = plan_query(bound, state)
        assert plan.used_live_aggregate is None

    def test_mismatched_aggregate_skips_lap(self):
        state = self._state_with_lap()
        bound = bind_select(
            parse_one("select dim_id, min(v) from fact group by dim_id"), state
        )
        plan = plan_query(bound, state)
        assert plan.used_live_aggregate is None

    def test_avg_skips_lap(self):
        state = self._state_with_lap()
        bound = bind_select(
            parse_one("select dim_id, avg(v) from fact group by dim_id"), state
        )
        assert plan_query(bound, state).used_live_aggregate is None
