"""Cost-based distributed planner.

Converts a :class:`~repro.sql.binder.BoundQuery` into a physical plan,
making the three decisions Vertica's optimizer makes that matter for Eon:

1. **Projection choice** per table: a covering projection, preferring a
   *local* one — segmentation matching the table's join keys, or
   replicated (either way the join needs no broadcast) — then the
   narrowest covering one.  Live aggregate projections rewrite matching
   single-table aggregations into LAP scans.
2. **Join locality**: a join is local when the build side is replicated or
   both sides are co-segmented through the equi-join keys (section 4:
   "identical values will be hashed to same value, be stored in the same
   shard, and served by the same node"); otherwise the build side is
   broadcast.
3. **Aggregation strategy**: one-phase when group keys cover the stream's
   segmentation columns (groups cannot straddle nodes), else two-phase
   partial/final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.mvcc import CatalogState
from repro.catalog.objects import LiveAggregateProjection, Projection
from repro.engine.expressions import ColumnRef, Expr
from repro.engine.operators import AggregateSpec
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    walk,
)
from repro.errors import PlanningError
from repro.sql.binder import BoundQuery


@dataclass
class PhysicalPlan:
    """A plan tree plus the distribution facts the executor needs."""

    root: PlanNode
    projections_used: Dict[str, str]  # table -> projection name
    #: Columns the final stream is segmented by, or None if the stream is
    #: fully replicated on every participant (single-node execution).
    alignment: Optional[Tuple[str, ...]]
    single_node: bool = False
    used_live_aggregate: Optional[str] = None

    def describe(self) -> str:
        mode = "single-node" if self.single_node else f"aligned on {self.alignment}"
        return f"-- {mode} --\n{self.root.describe()}"


def plan_query(bound: BoundQuery, catalog: CatalogState) -> PhysicalPlan:
    """Produce the physical plan for a bound query."""
    lap_plan = _try_live_aggregate(bound, catalog)
    if lap_plan is not None:
        return lap_plan

    projections: Dict[str, str] = {}
    # 1. Choose a projection per table.
    chosen: Dict[str, Projection] = {}
    join_keys_by_table = _join_keys_by_table(bound)
    for table in bound.tables:
        projection = _choose_projection(
            table,
            bound.columns_needed.get(table, set()),
            join_keys_by_table.get(table, set()),
            catalog,
        )
        chosen[table] = projection
        projections[table] = projection.name

    # 2. Build the join tree with locality decisions.
    first = bound.tables[0]
    node: PlanNode = _scan_node(first, chosen[first], bound)
    alignment = _scan_alignment(chosen[first])
    for edge in bound.join_edges:
        right_proj = chosen[edge.table]
        right_scan = _scan_node(edge.table, right_proj, bound)
        locality, new_alignment = _join_locality(
            alignment, right_proj, edge.left_keys, edge.right_keys
        )
        node = JoinNode(
            left=node,
            right=right_scan,
            left_keys=tuple(edge.left_keys),
            right_keys=tuple(edge.right_keys),
            how=edge.how,
            locality=locality,
            condition=edge.condition,
        )
        alignment = new_alignment

    if bound.residual_filter is not None:
        node = FilterNode(node, bound.residual_filter)

    # 3. Aggregation.
    if bound.is_aggregate:
        if bound.group_exprs:
            # Materialise computed group keys (plus everything aggregates
            # and outputs still need) before aggregating.
            passthrough = _columns_below_aggregate(bound)
            outputs = tuple(
                [(name, ColumnRef(name)) for name in sorted(passthrough)]
                + list(bound.group_exprs)
            )
            node = ProjectNode(node, outputs)
        strategy = _aggregate_strategy(bound, alignment)
        node = AggregateNode(
            node,
            tuple(bound.group_names),
            tuple(bound.agg_specs),
            strategy=strategy,
        )
        if bound.having is not None:
            node = FilterNode(node, bound.having)

    # 4. Final projection to the SELECT list.
    node = ProjectNode(node, tuple(bound.outputs))

    # 5. Order / limit.
    if bound.order:
        node = SortNode(node, tuple(bound.order))
    if bound.limit is not None or bound.offset:
        node = LimitNode(node, bound.limit, bound.offset)

    _annotate_pushdown(node)
    return PhysicalPlan(
        root=node,
        projections_used=projections,
        alignment=alignment,
        single_node=alignment is None,
    )


def _annotate_pushdown(root: PlanNode) -> None:
    """Mark scans that are candidates for server-side pushdown.

    A scan is eligible when its predicate can shrink what shared storage
    must return: it carries a bounded column predicate
    (``extract_column_bounds`` finds at least one interval — the same
    bounds container pruning uses).  Replicated projections stay
    ineligible: they are small by construction and every node scans all of
    them, so the depot pays for itself immediately.  Eligibility is a
    *candidacy* marker; the cost model still decides per container.
    """
    from repro.engine.expressions import extract_column_bounds

    for n in walk(root):
        if isinstance(n, ScanNode) and not n.replicated:
            n.pushdown_eligible = n.predicate is not None and bool(
                extract_column_bounds(n.predicate)
            )


# ---------------------------------------------------------------------------
# projection choice


def _choose_projection(
    table: str, needed: Set[str], join_keys: Set[str], catalog: CatalogState
) -> Projection:
    candidates = [
        p
        for p in catalog.projections_of(table)
        if not p.is_buddy and needed <= set(p.columns)
    ]
    if not candidates:
        raise PlanningError(
            f"no projection of {table!r} covers columns {sorted(needed)}"
        )
    # Prefer a *local* projection — one whose segmentation matches this
    # table's join keys, or a replicated one (``_join_locality`` treats
    # both the same: neither needs a broadcast) — then fewest columns
    # (narrowest covering projection).  Ranking replicated projections as
    # local keeps a query mix on one set of containers: without it, joins
    # pick the co-segmented super while scans pick a replicated designed
    # projection, and the depot pays cold fetches for both.
    def rank(p: Projection) -> tuple:
        seg_cols = set(p.segmentation.columns)
        co_segmented = bool(seg_cols) and seg_cols <= join_keys
        local = co_segmented or p.segmentation.is_replicated
        return (0 if local else 1, len(p.columns), p.name)

    return min(candidates, key=rank)


def _join_keys_by_table(bound: BoundQuery) -> Dict[str, Set[str]]:
    keys: Dict[str, Set[str]] = {}
    for edge in bound.join_edges:
        keys.setdefault(edge.table, set()).update(edge.right_keys)
        for left_key in edge.left_keys:
            # left keys belong to some earlier table; note them generously
            # (the binder guarantees uniqueness of column names).
            for table in bound.tables:
                if left_key in bound.columns_needed.get(table, set()):
                    keys.setdefault(table, set()).add(left_key)
    return keys


def _scan_node(table: str, projection: Projection, bound: BoundQuery) -> ScanNode:
    needed = bound.columns_needed.get(table, set())
    # Scan only needed columns, in projection column order for determinism.
    columns = tuple(c for c in projection.columns if c in needed)
    if not columns:
        # Count-only scans still need one column to know row counts; take
        # the first projection column.
        columns = (projection.columns[0],)
    return ScanNode(
        table=table,
        projection=projection.name,
        columns=columns,
        predicate=bound.table_filters.get(table),
        replicated=projection.segmentation.is_replicated,
    )


def _scan_alignment(projection: Projection) -> Optional[Tuple[str, ...]]:
    if projection.segmentation.is_replicated:
        return None
    return tuple(projection.segmentation.columns)


def _join_locality(
    alignment: Optional[Tuple[str, ...]],
    right: Projection,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Tuple[str, Optional[Tuple[str, ...]]]:
    """Decide local vs broadcast and the post-join alignment."""
    if right.segmentation.is_replicated:
        # Replicated build side is present on every node: always local.
        return "local", alignment
    right_seg = tuple(right.segmentation.columns)
    key_map = {r: l for l, r in zip(left_keys, right_keys)}
    if alignment is None:
        # Replicated probe side joined with segmented build side: each node
        # joins its shards of the build side against the full probe side.
        return "local", right_seg
    if all(r in key_map for r in right_seg):
        mapped = tuple(key_map[r] for r in right_seg)
        if mapped == alignment:
            return "local", alignment
    return "broadcast", alignment


def _aggregate_strategy(bound: BoundQuery, alignment: Optional[Tuple[str, ...]]) -> str:
    if alignment is None:
        # Whole stream on (each) node; executor runs single-node, so a
        # complete aggregate is correct.
        return "one_phase"
    if alignment and set(alignment) <= set(bound.group_names):
        return "one_phase"
    has_distinct = any(s.distinct for s in bound.agg_specs)
    if has_distinct and len(bound.agg_specs) > 1:
        # Mixed distinct + other aggregates cannot use mergeable partials;
        # fall back to shipping rows and aggregating on the initiator.
        return "gather_complete"
    return "two_phase"


def _columns_below_aggregate(bound: BoundQuery) -> Set[str]:
    needed: Set[str] = set()
    for spec in bound.agg_specs:
        if spec.argument is not None:
            needed |= spec.argument.columns_used()
    for name in bound.group_names:
        if not any(name == g for g, _ in bound.group_exprs):
            needed.add(name)
    return needed


# ---------------------------------------------------------------------------
# live aggregate projection rewrite


def _try_live_aggregate(
    bound: BoundQuery, catalog: CatalogState
) -> Optional[PhysicalPlan]:
    """Rewrite a matching single-table aggregate into a LAP scan.

    Conditions: one table, no filters, group-by is exactly the LAP's group
    columns, and every aggregate is a plain sum/count/min/max over a LAP
    aggregate column.
    """
    if len(bound.tables) != 1 or bound.join_edges:
        return None
    if bound.table_filters or bound.residual_filter is not None:
        return None
    if not bound.agg_specs or not bound.group_names:
        return None
    table = bound.tables[0]
    for lap in catalog.live_aggs_of(table):
        if tuple(bound.group_names) != tuple(lap.group_by):
            continue
        mapping = _match_lap_aggregates(bound.agg_specs, lap)
        if mapping is None:
            continue
        schema = lap.output_schema(catalog.table(table).schema)
        scan = ScanNode(
            table=table,
            projection=lap.name,
            columns=tuple(schema.names),
            predicate=None,
            replicated=lap.segmentation.is_replicated,
        )
        # LAP containers hold partial aggregates; merging them is exactly a
        # "final" aggregation over the pre-aggregated rows.
        merge_specs = tuple(
            AggregateSpec(merge_func, ColumnRef(lap_col), output)
            for merge_func, lap_col, output in mapping
        )
        alignment = _scan_alignment_lap(lap)
        strategy = (
            "one_phase"
            if alignment is not None and set(alignment) <= set(bound.group_names)
            else "two_phase"
        )
        node: PlanNode = AggregateNode(
            scan, tuple(bound.group_names), merge_specs, strategy=strategy
        )
        if bound.having is not None:
            node = FilterNode(node, bound.having)
        node = ProjectNode(node, tuple(bound.outputs))
        if bound.order:
            node = SortNode(node, tuple(bound.order))
        if bound.limit is not None:
            node = LimitNode(node, bound.limit)
        return PhysicalPlan(
            root=node,
            projections_used={table: lap.name},
            alignment=alignment,
            single_node=alignment is None,
            used_live_aggregate=lap.name,
        )
    return None


def _scan_alignment_lap(lap: LiveAggregateProjection) -> Optional[Tuple[str, ...]]:
    if lap.segmentation.is_replicated:
        return None
    return tuple(lap.segmentation.columns)


def _match_lap_aggregates(
    specs: Sequence[AggregateSpec], lap: LiveAggregateProjection
) -> Optional[List[Tuple[str, str, str]]]:
    """Match query aggregates to LAP columns; mergeable funcs only.

    A query ``sum(x)`` merges from a LAP ``sum(x)`` column by summing;
    ``count(...)`` merges by summing the LAP count; min/max by min/max.
    ``avg`` and distinct aggregates do not merge from partials.

    Returns ``(merge_func, lap_column, output_name)`` triples, or None when
    the LAP cannot answer the query.
    """
    mapping: List[Tuple[str, str, str]] = []
    merge_func = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
    for spec in specs:
        if spec.distinct or spec.func not in merge_func:
            return None
        arg_name = (
            spec.argument.name
            if isinstance(spec.argument, ColumnRef)
            else (None if spec.argument is None else False)
        )
        if arg_name is False:
            return None
        found = None
        for lap_agg in lap.aggregates:
            if lap_agg.func == spec.func and lap_agg.argument == arg_name:
                found = lap_agg.output_name
                break
        if found is None:
            return None
        mapping.append((merge_func[spec.func], found, spec.output))
    return mapping
