"""Cost model: translate work done into simulated seconds.

Absolute numbers are calibrated to commodity hardware orders of magnitude
only; experiments compare *configurations* (Enterprise vs Eon-cached vs
Eon-from-S3, 3 vs 6 vs 9 nodes), so what matters is that the relative
magnitudes — per-row CPU cost, local-disk vs S3 bandwidth, per-request S3
latency, network shipping — are realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import Ledger


@dataclass
class CostModel:
    """Per-unit simulated costs used by the executor."""

    #: CPU seconds per row per operator touch (scan decode, filter, join
    #: probe, aggregate update): ~50M rows/s/core.
    row_cpu_seconds: float = 2e-8
    #: Extra per-value decode cost applied per scanned cell.
    cell_cpu_seconds: float = 5e-9
    #: Node-to-node network: bandwidth and per-message latency.
    network_bandwidth: float = 1.0e9
    network_latency: float = 0.0005
    #: Fixed per-query planning/dispatch overhead on the initiator.
    dispatch_seconds: float = 0.002

    def network_seconds(self, nbytes: int, messages: int = 1) -> float:
        return messages * self.network_latency + nbytes / self.network_bandwidth


@dataclass
class NodeWork(Ledger):
    """Per-node accounting for one query: each of the node's scans'
    ``ScanResult`` folded in by ``add``, plus the CPU the executor charges."""

    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    bytes_from_cache: int = 0
    bytes_from_shared: int = 0
    rows_scanned: int = 0
    rows_processed: int = 0
    containers_scanned: int = 0
    containers_pruned: int = 0
    blocks_pruned: int = 0
    #: Parallel I/O scheduler accounting (see :mod:`repro.io.scheduler`).
    prefetch_hits: int = 0
    peer_fetches: int = 0
    coalesced_gets: int = 0
    #: Server-side pushdown accounting: containers scanned via
    #: ``select_scan`` and the stored bytes those scans touched.
    pushdown_scans: int = 0
    bytes_scanned: int = 0

    @property
    def busy_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds


@dataclass
class QueryStats(Ledger):
    """Aggregated execution statistics for one query."""

    per_node: Dict[str, NodeWork] = field(default_factory=dict)
    network_bytes: int = 0
    network_seconds: float = 0.0
    initiator_cpu_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    #: The query's deferred fetch makespans: what charging each scan on its
    #: own would have cost, and what the settled pool charged.
    io_serial_seconds: float = 0.0
    io_pipelined_seconds: float = 0.0

    def node(self, name: str) -> NodeWork:
        if name not in self.per_node:
            self.per_node[name] = NodeWork()
        return self.per_node[name]

    @property
    def latency_seconds(self) -> float:
        """Estimated wall-clock: slowest node + exchange + initiator work.

        Participating nodes execute their fragments in parallel, so the
        critical path is the busiest node, then network shipping, then the
        initiator's merge/sort work.
        """
        slowest = max((w.busy_seconds for w in self.per_node.values()), default=0.0)
        return (
            self.dispatch_seconds
            + slowest
            + self.network_seconds
            + self.initiator_cpu_seconds
        )

    def __getattr__(self, name: str):
        """``total_<field>``: that :class:`NodeWork` field summed over the
        nodes (``total_rows_scanned``, ``total_bytes_from_shared``, ...)."""
        if not name.startswith("total_"):
            raise AttributeError(name)
        return sum(getattr(work, name[6:]) for work in self.per_node.values())


# ---------------------------------------------------------------------------
# scan-strategy selection (depot vs raw GET vs server-side pushdown)


def estimate_selectivity(bounds: Dict[str, tuple], container) -> float:
    """Fraction of a container's rows a predicate plausibly keeps.

    Classic interval-overlap estimate against the container's per-column
    min/max metadata (the same stats container pruning uses): each bounded
    numeric column contributes ``overlap(bound, [min, max]) / span`` and
    columns multiply as if independent.  Non-numeric or stat-less columns
    contribute nothing (selectivity 1.0 for that column); a degenerate span
    (min == max) contributes 1.0 when the bound covers the point.  Purely a
    *planning* estimate — strategy choice may be wrong, never the rows.
    """
    selectivity = 1.0
    for column, (lo, hi) in bounds.items():
        cmin, cmax = container.min_of(column), container.max_of(column)
        if not isinstance(cmin, (int, float)) or not isinstance(cmax, (int, float)):
            continue
        if isinstance(cmin, bool) or isinstance(cmax, bool):
            continue
        lo_eff = cmin if lo is None or not isinstance(lo, (int, float)) else max(float(lo), float(cmin))
        hi_eff = cmax if hi is None or not isinstance(hi, (int, float)) else min(float(hi), float(cmax))
        if lo_eff > hi_eff:
            return 0.0
        span = float(cmax) - float(cmin)
        if span <= 0:
            continue
        selectivity *= (hi_eff - lo_eff) / span
    return selectivity


def estimate_pushdown_bytes(scanned_bytes: int, selectivity: float) -> int:
    """Bytes a select would *return* given bytes it must scan: the scanned
    columns shrunk by the predicate's estimated selectivity."""
    return int(scanned_bytes * max(0.0, min(1.0, selectivity)))


def choose_scan_strategy(
    mode: str,
    *,
    resident: bool,
    use_cache: bool,
    has_delete_vectors: bool,
    eligible: bool,
    supports_select: bool,
    fetch_seconds: float,
    pushdown_seconds: float,
) -> str:
    """Pick how one container reaches the scan: ``depot``, ``get``, or
    ``pushdown``.

    The decision table (also in DESIGN.md):

    * no depot session (``use_cache=False``) — raw ``get``, never cached;
    * container already resident — ``depot`` (nothing beats a warm hit);
    * ``mode=off``, backend without select support, delete vectors present,
      or a scan the planner did not mark eligible — ``depot`` (cold fetch);
    * ``mode=on`` — ``pushdown`` (operator override);
    * ``mode=auto`` — ``pushdown`` only when the cost model estimates the
      select to be strictly faster than the cold-depot fetch.
    """
    if not use_cache:
        return "get"
    if resident:
        return "depot"
    if mode == "off" or not supports_select or has_delete_vectors or not eligible:
        return "depot"
    if mode == "on":
        return "pushdown"
    return "pushdown" if pushdown_seconds < fetch_seconds else "depot"


# ---------------------------------------------------------------------------
# design-time estimation (Database Designer v2)
#
# The designer scores candidate physical layouts through the same per-unit
# charges the executor applies at run time: per-row/per-cell CPU, cold
# container fetches at S3 latency/bandwidth, broadcast shipping when a join's
# build side is not co-segmented with the probe stream, and a two-phase
# gather when group keys do not cover the stream's segmentation.  The result
# is a *work-proportional* estimate of the critical path (total work divided
# by scan parallelism), which is what makes per-table scan terms separable —
# the property the designer's branch-and-bound lower bound relies on.

#: Stored bytes per cell by column type, for sizing candidate containers.
#: VARCHAR assumes short dictionary-friendly strings; the write path picks
#: real per-block encodings, so these only need to rank layouts correctly.
DESIGN_BYTES_PER_CELL: Dict[str, float] = {
    "int": 8.0, "float": 8.0, "date": 8.0, "bool": 1.0, "varchar": 16.0,
}

#: Encoded-size discounts for sorted columns: the leading sort column is
#: run/delta friendly (RLE on low cardinality, DELTA on ints), trailing
#: sort columns still compress better than unsorted ones.
DESIGN_LEAD_SORT_DISCOUNT = 0.35
DESIGN_TRAIL_SORT_DISCOUNT = 0.8

#: Target container file size the estimator assumes when converting layout
#: bytes into GET counts (real sizes depend on load batching).
DESIGN_CONTAINER_BYTES = 1 << 20

#: Floor/ceiling for predicate-selectivity estimates: equality predicates
#: collapse interval overlap to ~0, but a scan still touches >= 1 container.
DESIGN_MIN_SELECTIVITY = 0.01


@dataclass
class TableLayout:
    """One candidate (or existing) physical layout of a table, as the
    design-time estimator sees it: the projection shape plus the row count
    and per-column raw cell widths needed to size scans and fetches."""

    table: str
    columns: Tuple[str, ...]
    sort_order: Tuple[str, ...]
    #: Hash-segmentation columns; empty means replicated.
    segmentation_columns: Tuple[str, ...]
    row_count: int
    bytes_per_cell: Mapping[str, float]

    @property
    def is_replicated(self) -> bool:
        return not self.segmentation_columns

    def cell_bytes(self, column: str) -> float:
        """Stored bytes per value, after the sort-encoding discount."""
        raw = self.bytes_per_cell.get(column, 8.0)
        if self.sort_order and column == self.sort_order[0]:
            return raw * DESIGN_LEAD_SORT_DISCOUNT
        if column in self.sort_order:
            return raw * DESIGN_TRAIL_SORT_DISCOUNT
        return raw

    def row_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        cols = self.columns if columns is None else columns
        return sum(self.cell_bytes(c) for c in cols)

    def total_bytes(self) -> float:
        """Stored footprint of one full copy of this layout."""
        return self.row_count * self.row_bytes()


@dataclass(frozen=True)
class DesignJoin:
    """One equi-join edge of a workload query, with the already-joined
    side's keys qualified by owning table (bare names collide across
    tables; qualification is what designer v1 got wrong)."""

    table: str  # the build-side table being joined in
    left_keys: Tuple[Tuple[str, str], ...]  # ((table, column), ...) probe side
    right_keys: Tuple[str, ...]  # columns of `table`


@dataclass
class QueryShape:
    """Designer-side summary of one workload query: exactly what layout
    cost depends on — scanned columns, predicate selectivities, join keys,
    group keys — and nothing else."""

    tables: Tuple[str, ...]
    columns: Mapping[str, Tuple[str, ...]]  # per-table scanned columns
    filters: Mapping[str, Mapping[str, float]]  # table -> column -> selectivity
    joins: Tuple[DesignJoin, ...] = ()
    group_columns: Tuple[Tuple[str, str], ...] = ()  # qualified (table, column)
    is_aggregate: bool = False
    weight: float = 1.0
    #: Fraction of scanned containers expected to miss the depot (from
    #: recorded RequestRecord stats; 1.0 = design for fully cold reads).
    cold_fraction: float = 1.0


@dataclass
class DesignCost:
    """Accumulated design-time cost of a workload under one layout set."""

    seconds: float = 0.0
    s3_gets: float = 0.0
    s3_dollars: float = 0.0

    def add(self, other: "DesignCost", weight: float = 1.0) -> None:
        self.seconds += weight * other.seconds
        self.s3_gets += weight * other.s3_gets
        self.s3_dollars += weight * other.s3_dollars


def _filtered_fraction(filters: Mapping[str, float]) -> float:
    fraction = 1.0
    for selectivity in filters.values():
        fraction *= max(DESIGN_MIN_SELECTIVITY, min(1.0, selectivity))
    return fraction


def _pruned_fraction(layout: TableLayout, filters: Mapping[str, float]) -> float:
    """Fraction of stored rows a scan must touch after container/block
    pruning: the product of selectivities along the sort-order prefix that
    the query actually filters (pruning stops at the first unfiltered sort
    column, mirroring how min/max metadata loses power off-prefix)."""
    fraction = 1.0
    for column in layout.sort_order:
        if column not in filters:
            break
        fraction *= max(DESIGN_MIN_SELECTIVITY, min(1.0, filters[column]))
    return fraction


def estimate_scan_cost(
    shape: QueryShape,
    table: str,
    layout: TableLayout,
    node_count: int,
    model: Optional[CostModel] = None,
    s3_latency=None,
    s3_cost=None,
) -> Optional[DesignCost]:
    """Cost of scanning one table of ``shape`` through ``layout``.

    Returns ``None`` when the layout cannot serve the query (a scanned
    column is missing).  Separable by construction: depends only on this
    table's layout, never on the other tables' — the branch-and-bound
    lower bound sums per-table minima of exactly this function.
    """
    from repro.shared_storage.s3 import S3CostModel, S3LatencyModel

    model = model or CostModel()
    s3_latency = s3_latency or S3LatencyModel()
    s3_cost = s3_cost or S3CostModel()
    scan_columns = shape.columns.get(table, ())
    if not set(scan_columns) <= set(layout.columns):
        return None
    filters = shape.filters.get(table, {})
    pruned = _pruned_fraction(layout, filters)
    rows_scanned = layout.row_count * pruned
    # Containers hold every column of the layout, so a cold fetch pays for
    # the layout's full width — the reason narrow projections win cold.
    container_bytes = max(1.0, layout.total_bytes())
    containers = max(1.0, container_bytes / DESIGN_CONTAINER_BYTES)
    # Replicated projections are scanned by a single participant; segmented
    # ones split the shard work across the up nodes — but never below
    # container granularity: a one-container scan is latency-bound and
    # gains nothing from more participants.  Whole containers only — a
    # fractional count here would hand *wider* layouts more parallelism
    # (same CPU divided by a bigger denominator), making fat projections
    # score faster than narrow ones.
    parallelism = (
        1.0 if layout.is_replicated
        else max(1.0, min(float(node_count), float(int(containers))))
    )
    cpu = rows_scanned * (
        model.row_cpu_seconds
        + len(scan_columns) * model.cell_cpu_seconds
        + (model.row_cpu_seconds if filters else 0.0)
    )
    fetched_bytes = container_bytes * pruned
    gets = max(1.0, containers * pruned) * shape.cold_fraction
    io = shape.cold_fraction * (
        max(1.0, containers * pruned) * s3_latency.request_seconds
        + fetched_bytes / s3_latency.read_bandwidth
    )
    return DesignCost(
        seconds=(cpu + io) / parallelism,
        s3_gets=gets,
        s3_dollars=gets * s3_cost.get_cost(),
    )


def estimate_maintenance_cost(
    layout: TableLayout, s3_latency=None, s3_cost=None
) -> DesignCost:
    """One-time cost of materialising a layout: uploading its containers.

    Charged once per layout per workload window so "add every projection
    you can imagine" does not come out free."""
    from repro.shared_storage.s3 import S3CostModel, S3LatencyModel

    s3_latency = s3_latency or S3LatencyModel()
    s3_cost = s3_cost or S3CostModel()
    nbytes = layout.total_bytes()
    containers = max(1.0, nbytes / DESIGN_CONTAINER_BYTES)
    return DesignCost(
        seconds=containers * s3_latency.request_seconds
        + nbytes / s3_latency.write_bandwidth,
        s3_dollars=containers * s3_cost.put_cost(),
    )


#: Bytes per row the estimator assumes crossing the wire for shipped build
#: sides, gathered partial aggregates, and final result rows.
_DESIGN_SHIP_ROW_BYTES = 16.0
#: Cap on distinct groups assumed per node when sizing two-phase gathers.
_DESIGN_MAX_GROUPS = 4096.0


def estimate_query_cost(
    shape: QueryShape,
    layouts: Mapping[str, TableLayout],
    node_count: int,
    model: Optional[CostModel] = None,
    s3_latency=None,
    s3_cost=None,
) -> Optional[DesignCost]:
    """Work-proportional cost of one query under a full layout assignment:
    per-table scan terms (separable) plus join locality, aggregation
    phases, and dispatch (the non-negative interaction terms)."""
    model = model or CostModel()
    cost = DesignCost(seconds=model.dispatch_seconds)
    for table in shape.tables:
        layout = layouts.get(table)
        if layout is None:
            return None
        scan = estimate_scan_cost(
            shape, table, layout, node_count, model, s3_latency, s3_cost
        )
        if scan is None:
            return None
        cost.add(scan)
    first = layouts[shape.tables[0]]
    # The probe stream's hash alignment: qualified columns it is currently
    # distributed on (None = single-node / replicated stream).
    alignment = (
        None
        if first.is_replicated
        else {(shape.tables[0], c) for c in first.segmentation_columns}
    )
    probe_rows = first.row_count * _filtered_fraction(
        shape.filters.get(shape.tables[0], {})
    )
    for join in shape.joins:
        build = layouts[join.table]
        build_rows = build.row_count * _filtered_fraction(
            shape.filters.get(join.table, {})
        )
        build_bytes = build_rows * build.row_bytes(
            shape.columns.get(join.table, build.columns)
        )
        paired = dict(zip(join.right_keys, join.left_keys))
        co_segmented = (
            not build.is_replicated
            and alignment is not None
            and all(c in paired for c in build.segmentation_columns)
            and {paired[c] for c in build.segmentation_columns} <= alignment
        )
        local = build.is_replicated or alignment is None or co_segmented
        if not local:
            # Broadcast the build side to every other participant.
            cost.seconds += model.network_seconds(
                int(build_bytes * max(0, node_count - 1)),
                messages=max(1, node_count - 1),
            )
        cost.seconds += (
            (build_rows + probe_rows)
            * model.row_cpu_seconds
            / (1 if alignment is None else max(1, node_count))
        )
    if shape.is_aggregate:
        group_set = set(shape.group_columns)
        one_phase = alignment is not None and alignment <= group_set
        if alignment is not None and not one_phase:
            partials = min(probe_rows, _DESIGN_MAX_GROUPS) * max(1, node_count)
            cost.seconds += model.network_seconds(
                int(partials * _DESIGN_SHIP_ROW_BYTES), messages=max(1, node_count)
            )
            cost.seconds += partials * model.row_cpu_seconds
    elif alignment is not None:
        cost.seconds += model.network_seconds(
            int(probe_rows * _DESIGN_SHIP_ROW_BYTES), messages=max(1, node_count)
        )
    return cost


def estimate_workload_cost(
    shapes: Sequence[QueryShape],
    layouts: Mapping[str, TableLayout],
    node_count: int,
    model: Optional[CostModel] = None,
    s3_latency=None,
    s3_cost=None,
) -> Optional[DesignCost]:
    """Workload-wide score of a layout assignment: the weighted sum of
    per-query costs plus each layout's one-time maintenance charge.
    ``None`` when any layout cannot serve a query it anchors."""
    total = DesignCost()
    for shape in shapes:
        query = estimate_query_cost(
            shape, layouts, node_count, model, s3_latency, s3_cost
        )
        if query is None:
            return None
        total.add(query, weight=shape.weight)
    for table in sorted(layouts):
        total.add(estimate_maintenance_cost(layouts[table], s3_latency, s3_cost))
    return total
