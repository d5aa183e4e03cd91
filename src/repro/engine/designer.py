"""Database Designer v2 (section 2.1): cost-based physical design.

"Vertica has a Database Designer utility that uses the schema, some sample
data, and queries from the workload to automatically determine an
optimized set of projections."

The designer runs in two stages, echoing how the production Vertica
designer evaluates candidates *through the optimizer* rather than through
ad-hoc rules ("C-Store 7 Years Later"):

**Stage 1 — ingestion.**  Workload queries arrive either as SQL text
(:meth:`DatabaseDesigner.add_query` / :meth:`add_workload`) or straight
from the cluster's request history (:meth:`ingest_recorded`, reading the
same ``RequestRecord`` / ``QueryProfile`` stream that backs
``v_monitor.query_requests`` and ``v_monitor.query_profiles``).  Recorded
queries carry more than their text: execution counts become weights,
depot hit/miss counts become per-query cold fractions, and operator scan
strategies are kept for the proposal rationale.  Every statistic is keyed
by the **qualified** ``(table, column)`` pair taken from the binder's own
resolution — never by bare column name, which is what designer v1 got
wrong (same-named columns across tables silently overwrote each other).
Predicate selectivities come from container min/max statistics, the same
metadata the executor uses for pruning.

**Stage 2 — search.**  Per table the designer enumerates candidate
layouts — column sets (workload-only vs. full), sort orders (filtered
columns first for container pruning, then group-by columns), segmentation
(observed equi-join key sets, replication for explicitly small tables)
and per-column encoding advice — and scores complete assignments
workload-wide through the design-time estimator in
:mod:`repro.engine.cost` (cold fetches, broadcast joins, aggregation
phases, maintenance).  That score splits exactly into per-candidate
terms and per-(first table, build table) broadcast terms, so the search
is one exact integer program (solved by scipy's HiGHS), as in "Vertical
partitioning of relational OLTP databases using integer programming".

:meth:`apply` is idempotent: proposals carry versioned names
(``<table>_dbd_v<n>``), re-running a design that matches an existing
projection keeps it instead of colliding, and superseded ``_dbd``
projections are dropped in one transaction after their replacements are
in place.  Each application appends a :class:`DesignerRun` record, which
``v_monitor.designer_runs`` exposes.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.mvcc import CatalogState
from repro.catalog.objects import Projection, Segmentation
from repro.common.types import ColumnType
from repro.engine.cost import (
    DESIGN_BYTES_PER_CELL,
    DESIGN_MIN_SELECTIVITY,
    CostModel,
    DesignCost,
    DesignJoin,
    QueryShape,
    TableLayout,
    estimate_broadcast_seconds,
    estimate_first_table_seconds,
    estimate_maintenance_cost,
    estimate_query_cost,
    estimate_scan_cost,
    estimate_workload_cost,
)
from repro.engine.expressions import extract_column_bounds
from repro.errors import CatalogError, PlanningError, SqlError
from repro.obs.metrics import Ledger
from repro.sharding.subscription import holders
from repro.sql.ast import Select
from repro.sql.binder import bind_select
from repro.sql.parser import parse

#: Tables at or below this row count are proposed as replicated — only
#: when the caller states the row count explicitly (``row_counts``); a
#: sample loaded for design is not evidence the table stays small.
REPLICATION_ROW_THRESHOLD = 10_000

#: Row estimate for a table with no loaded containers and no declared
#: row count: assume it will grow, so narrow/sorted layouts pay off.
DESIGN_DEFAULT_ROW_ESTIMATE = 100_000

#: Selectivity assumed for a filtered column with no container stats.
DEFAULT_FILTER_SELECTIVITY = 0.25

#: Designer projection names: ``<table>_dbd`` (legacy v1) or
#: ``<table>_dbd_v<n>``.
_DBD_SUFFIX = re.compile(r"_dbd(?:_v(?P<version>\d+))?$")


def dbd_version(table: str, projection_name: str) -> Optional[int]:
    """Version of a designer projection of ``table`` (legacy ``_dbd`` is
    version 1), or None when the name is not a designer name."""
    if not projection_name.startswith(table):
        return None
    match = _DBD_SUFFIX.fullmatch(projection_name[len(table):])
    if match is None:
        return None
    return int(match.group("version") or 1)


def _shape_join_keys(shape: QueryShape) -> Dict[str, Set[str]]:
    """Per-table join-key columns of one query, mirroring the planner's
    ``_join_keys_by_table`` — the set its projection rank checks
    segmentations against."""
    keys: Dict[str, Set[str]] = {}
    for join in shape.joins:
        keys.setdefault(join.table, set()).update(join.right_keys)
        for table, column in join.left_keys:
            keys.setdefault(table, set()).add(column)
    return keys


@dataclass
class WorkloadReport:
    """Outcome of bulk ingestion: how many statements were usable and
    which were skipped, with the reason (so callers can report them
    instead of the designer silently eating the workload)."""

    used: int = 0
    skipped: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class ProjectionProposal:
    """One recommended projection, with its rationale."""

    table: str
    columns: Tuple[str, ...]
    sort_order: Tuple[str, ...]
    segmentation: Segmentation
    name: str
    #: Per-column encoding advice ((column, encoding), ...) — advisory:
    #: the write path picks real per-block encodings, but the advice
    #: records what the cost model assumed about the layout.
    encodings: Tuple[Tuple[str, str], ...] = ()
    reasons: List[str] = field(default_factory=list)
    #: True when an existing projection already has exactly this shape;
    #: apply() keeps it instead of creating a duplicate.
    already_applied: bool = False

    def to_sql(self) -> str:
        cols = ", ".join(self.columns)
        order = ", ".join(self.sort_order)
        if self.segmentation.is_replicated:
            seg = "unsegmented all nodes"
        else:
            seg = f"segmented by hash({', '.join(self.segmentation.columns)})"
        return (
            f"create projection {self.name} ({cols}) as select * from "
            f"{self.table} order by {order} {seg}"
        )


@dataclass
class DesignerRun(Ledger):
    """Record of one ``apply()``: what the search saw, what it decided,
    and what changed on the cluster.  Surfaced as
    ``v_monitor.designer_runs``."""

    run_id: int
    at_seconds: float
    queries_used: int
    queries_skipped: int
    candidates_scored: int
    search_mode: str
    estimated_seconds: float
    baseline_seconds: float
    estimated_s3_gets: float
    baseline_s3_gets: float
    created: Tuple[str, ...]
    dropped: Tuple[str, ...]
    kept: Tuple[str, ...]


@dataclass
class _QueryStat:
    """One distinct workload query with its recorded statistics."""

    sql: str
    bound: object
    weight: float = 1.0
    #: Weighted-mean fraction of depot misses observed for this query;
    #: None means never recorded (design for fully cold reads).
    cold_fraction: Optional[float] = None
    strategies: Counter = field(default_factory=Counter)

    def merge(self, weight: float, cold: Optional[float],
              strategies: Sequence[str]) -> None:
        if cold is not None:
            have = self.cold_fraction if self.cold_fraction is not None else cold
            total = self.weight + weight
            self.cold_fraction = (have * self.weight + cold * weight) / total
        self.weight += weight
        self.strategies.update(strategies)


@dataclass
class _TableStats:
    """Qualified per-table workload statistics (stage-1 output)."""

    columns: Counter = field(default_factory=Counter)
    filters: Counter = field(default_factory=Counter)
    groups: Counter = field(default_factory=Counter)
    join_sets: Counter = field(default_factory=Counter)  # tuple(cols) -> weight
    strategies: Counter = field(default_factory=Counter)
    query_weight: float = 0.0


@dataclass
class _Candidate:
    """One candidate layout for a table, ready to score."""

    layout: TableLayout
    encodings: Tuple[Tuple[str, str], ...] = ()
    #: Separable cost (weighted scans + maintenance), filled by search.
    sep_seconds: float = math.inf
    #: Weighted share of this table's scans the planner would route to a
    #: *rival* projection instead of this candidate, filled by search.
    fallback_weight: float = 0.0


@dataclass
class _SearchResult:
    assignment: Dict[str, _Candidate]
    estimated: DesignCost
    baseline: DesignCost
    mode: str
    candidates_scored: int


class DatabaseDesigner:
    """Workload-driven, cost-based projection recommendation."""

    def __init__(self, catalog: CatalogState,
                 row_counts: Optional[Dict[str, int]] = None,
                 extra_states: Optional[Sequence[CatalogState]] = None):
        self.catalog = catalog
        self.row_counts = row_counts or {}
        #: Catalog states consulted for container statistics (row counts,
        #: min/max extents).  One node's state only covers its subscribed
        #: shards, so :meth:`for_cluster` passes every up node's state.
        self._states: List[CatalogState] = [catalog] + list(extra_states or [])
        self._queries: Dict[str, _QueryStat] = {}
        self._extent_cache: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self._row_cache: Dict[str, int] = {}
        self._last_search: Optional[_SearchResult] = None
        self._last_report: Optional[WorkloadReport] = None
        self._stats_cache: Dict[str, _TableStats] = {}

    @classmethod
    def for_cluster(cls, cluster,
                    row_counts: Optional[Dict[str, int]] = None
                    ) -> "DatabaseDesigner":
        """Build a designer over a live cluster's catalog, pooling
        container statistics across every up node (a single node's state
        only sees its subscribed shards)."""
        states = _cluster_states(cluster)
        return cls(states[0], row_counts=row_counts, extra_states=states[1:])

    # -- stage 1: workload ingestion -------------------------------------------

    def add_query(self, sql: str, weight: float = 1.0,
                  cold_fraction: Optional[float] = None,
                  scan_strategies: Sequence[str] = ()) -> None:
        """Analyse one SELECT; non-SELECT statements are rejected."""
        statements = parse(sql)
        for index, statement in enumerate(statements):
            if not isinstance(statement, Select):
                raise SqlError("the designer analyses SELECT statements only")
            bound = bind_select(statement, self.catalog)
            key = " ".join(sql.split())
            if len(statements) > 1:
                key = f"{key}#{index}"
            stat = self._queries.get(key)
            if stat is None:
                self._queries[key] = _QueryStat(
                    sql=key, bound=bound, weight=weight,
                    cold_fraction=cold_fraction,
                    strategies=Counter(scan_strategies),
                )
            else:
                stat.merge(weight, cold_fraction, scan_strategies)

    def add_workload(self, queries: Sequence[str]) -> WorkloadReport:
        """Analyse many queries.  Statements the designer cannot use are
        collected (with the reason) instead of silently dropped; only
        SQL-level errors are caught — a genuine designer defect still
        raises."""
        report = WorkloadReport()
        for sql in queries:
            try:
                self.add_query(sql)
                report.used += 1
            except (SqlError, PlanningError, CatalogError) as exc:
                report.skipped.append((sql, str(exc)))
        self._last_report = report
        return report

    def ingest_recorded(self, cluster) -> WorkloadReport:
        """Pull the workload from the cluster's request history (the
        stream behind ``v_monitor.query_requests`` /
        ``v_monitor.query_profiles``): repeated queries gain weight,
        depot hit/miss counts become per-query cold fractions, and
        operator scan strategies are recorded for the rationale."""
        report = WorkloadReport()
        obs = getattr(cluster, "obs", None)
        records = list(getattr(obs, "requests", ()) or ())
        profiles = {}
        for profile in getattr(obs, "profiles", ()) or ():
            profiles[profile.request_id] = profile
        for record in records:
            sql = (record.request or "").strip()
            if not sql or "v_monitor." in sql:
                continue  # monitoring reads are not the workload
            try:
                statements = parse(sql)
            except SqlError:
                continue
            if len(statements) != 1 or not isinstance(statements[0], Select):
                continue  # DML/DDL shape the data, not the layout
            touched = record.depot_hits + record.depot_misses
            cold = (record.depot_misses / touched) if touched else None
            strategies = []
            profile = profiles.get(record.request_id)
            if profile is not None:
                strategies = [
                    op.scan_strategy
                    for op in profile.operators
                    if getattr(op, "scan_strategy", "")
                ]
            try:
                self.add_query(sql, cold_fraction=cold,
                               scan_strategies=strategies)
                report.used += 1
            except (SqlError, PlanningError, CatalogError) as exc:
                report.skipped.append((sql, str(exc)))
        self._last_report = report
        return report

    # -- qualified attribution (the v1 bare-name bug, fixed) -------------------

    def _owner_map(self, bound) -> Dict[str, str]:
        """Bare column name -> owning table, derived from the *binder's*
        resolution (``columns_needed``) rather than from raw schemas.
        A name the binder attributed to two tables is dropped entirely:
        better no statistic than one credited to the wrong table."""
        owner: Dict[str, str] = {}
        ambiguous = set()
        for table in sorted(bound.columns_needed):
            for column in bound.columns_needed[table]:
                if owner.get(column, table) != table:
                    ambiguous.add(column)
                owner[column] = table
        for column in ambiguous:
            owner.pop(column, None)
        return owner

    def _shape_for(self, stat: _QueryStat) -> QueryShape:
        bound = stat.bound
        owner = self._owner_map(bound)
        columns = {}
        for table in bound.tables:
            schema = self.catalog.table(table).schema
            needed = bound.columns_needed.get(table, set())
            columns[table] = tuple(c for c in schema.names if c in needed)
        filters: Dict[str, Dict[str, float]] = {}
        for table, predicate in bound.table_filters.items():
            bounds = extract_column_bounds(predicate)
            selectivities = {
                column: self._selectivity(table, column, lo_hi)
                for column, lo_hi in bounds.items()
            }
            if selectivities:
                filters[table] = selectivities
        joins = []
        for edge in bound.join_edges:
            qualified = []
            for key in edge.left_keys:
                table = owner.get(key)
                if table is None:
                    qualified = None
                    break
                qualified.append((table, key))
            if qualified is None:
                continue
            joins.append(DesignJoin(
                table=edge.table,
                left_keys=tuple(qualified),
                right_keys=tuple(edge.right_keys),
            ))
        group_columns = tuple(
            (owner[name], name)
            for name in bound.group_names
            if name in owner
        )
        return QueryShape(
            tables=tuple(bound.tables),
            columns=columns,
            filters=filters,
            joins=tuple(joins),
            group_columns=group_columns,
            is_aggregate=bound.is_aggregate,
            weight=stat.weight,
            cold_fraction=(
                stat.cold_fraction if stat.cold_fraction is not None else 1.0
            ),
        )

    def _build(self) -> Tuple[List[QueryShape], Dict[str, _TableStats]]:
        shapes: List[QueryShape] = []
        stats: Dict[str, _TableStats] = {}
        for key in sorted(self._queries):
            stat = self._queries[key]
            shape = self._shape_for(stat)
            shapes.append(shape)
            for table in shape.tables:
                entry = stats.setdefault(table, _TableStats())
                entry.query_weight += shape.weight
                entry.strategies.update(stat.strategies)
                for column in shape.columns[table]:
                    entry.columns[column] += shape.weight
                for column in shape.filters.get(table, {}):
                    entry.filters[column] += shape.weight
            for table, column in shape.group_columns:
                stats[table].groups[column] += shape.weight
            for join in shape.joins:
                stats[join.table].join_sets[
                    tuple(sorted(join.right_keys))
                ] += shape.weight
                by_table: Dict[str, List[str]] = {}
                for table, column in join.left_keys:
                    by_table.setdefault(table, []).append(column)
                for table, cols in by_table.items():
                    stats[table].join_sets[tuple(sorted(cols))] += shape.weight
        return shapes, stats

    # -- container statistics --------------------------------------------------

    def _estimate_rows(self, table: str) -> int:
        if table in self.row_counts:
            return self.row_counts[table]
        cached = self._row_cache.get(table)
        if cached is not None:
            return cached
        per_projection: Dict[str, int] = {}
        seen = set()
        for state in self._states:
            for projection in state.projections_of(table):
                if projection.is_buddy:
                    continue
                for container in state.containers_of(projection.name):
                    key = (projection.name, str(container.sid))
                    if key in seen:
                        continue
                    seen.add(key)
                    per_projection[projection.name] = (
                        per_projection.get(projection.name, 0)
                        + container.row_count
                    )
        rows = max(per_projection.values(), default=0)
        rows = rows or DESIGN_DEFAULT_ROW_ESTIMATE
        self._row_cache[table] = rows
        return rows

    def _extents(self, table: str) -> Dict[str, Tuple[float, float]]:
        """Per-column (min, max) pooled over up to 64 containers of the
        table's projections — the same min/max metadata pruning uses."""
        cached = self._extent_cache.get(table)
        if cached is not None:
            return cached
        extents: Dict[str, Tuple[float, float]] = {}
        seen = set()
        for state in self._states:
            for projection in sorted(
                state.projections_of(table), key=lambda p: p.name
            ):
                if projection.is_buddy:
                    continue
                for container in sorted(
                    state.containers_of(projection.name),
                    key=lambda c: str(c.sid),
                ):
                    if str(container.sid) in seen or len(seen) >= 64:
                        continue
                    seen.add(str(container.sid))
                    for column in projection.columns:
                        lo, hi = container.bounds.get(column, (None, None))
                        if not isinstance(lo, (int, float)) or not isinstance(
                            hi, (int, float)
                        ) or isinstance(lo, bool) or isinstance(hi, bool):
                            continue
                        old = extents.get(column)
                        if old is None:
                            extents[column] = (float(lo), float(hi))
                        else:
                            extents[column] = (
                                min(old[0], float(lo)), max(old[1], float(hi))
                            )
        self._extent_cache[table] = extents
        return extents

    def _selectivity(self, table: str, column: str, lo_hi: tuple) -> float:
        lo, hi = lo_hi
        extent = self._extents(table).get(column)
        rows = max(1, self._estimate_rows(table))
        floor = max(DESIGN_MIN_SELECTIVITY, 1.0 / rows)
        if extent is None:
            return DEFAULT_FILTER_SELECTIVITY
        column_min, column_max = extent
        try:
            lo_f = float(lo) if lo is not None else column_min
            hi_f = float(hi) if hi is not None else column_max
        except (TypeError, ValueError):
            return DEFAULT_FILTER_SELECTIVITY
        span = column_max - column_min
        if span <= 0:
            return 1.0 if lo_f <= column_min <= hi_f else floor
        if lo_f == hi_f:
            # Equality: about one distinct value out of the span.
            if column_min <= lo_f <= column_max:
                return max(floor, 1.0 / (span + 1.0))
            return floor
        overlap = max(0.0, min(hi_f, column_max) - max(lo_f, column_min))
        return max(floor, min(1.0, overlap / span))

    # -- stage 2: candidate enumeration ----------------------------------------

    def _bytes_per_cell(self, table: str) -> Dict[str, float]:
        schema = self.catalog.table(table).schema
        return {
            column.name: DESIGN_BYTES_PER_CELL.get(column.ctype.value, 8.0)
            for column in schema.columns
        }

    def _encodings_for(self, table: str, columns: Tuple[str, ...],
                       sort_order: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
        schema = self.catalog.table(table).schema
        advice = []
        for column in columns:
            ctype = schema.column(column).ctype
            if sort_order and column == sort_order[0]:
                enc = "delta" if ctype in (ColumnType.INT, ColumnType.DATE) else "rle"
            elif column in sort_order:
                enc = "delta" if ctype in (ColumnType.INT, ColumnType.DATE) else "rle"
            elif ctype is ColumnType.VARCHAR:
                enc = "dict"
            elif ctype is ColumnType.BOOL:
                enc = "rle"
            else:
                enc = "plain"
            advice.append((column, enc))
        return tuple(advice)

    def _ranked(self, counter: Counter, schema_names: Sequence[str]
                ) -> List[str]:
        index = {name: i for i, name in enumerate(schema_names)}
        return sorted(
            counter,
            key=lambda c: (-counter[c], index.get(c, len(index))),
        )

    def _candidates_for(self, table: str, stats: _TableStats
                        ) -> List[_Candidate]:
        schema = self.catalog.table(table).schema
        cells = self._bytes_per_cell(table)
        rows = self._estimate_rows(table)
        used = tuple(c for c in schema.names if stats.columns.get(c))
        if not used:
            # Touched but no columns read (e.g. bare count(*)): the
            # narrowest possible layout serves it.
            used = (schema.names[0],)
        column_sets = [used]
        full = tuple(schema.names)
        if full != used:
            column_sets.append(full)

        ranked_filters = self._ranked(stats.filters, schema.names)
        ranked_groups = self._ranked(stats.groups, schema.names)
        leads = []
        for column in ranked_filters[:2] + ranked_groups[:1]:
            if column not in leads:
                leads.append(column)

        declared_rows = self.row_counts.get(table)
        replicate_ok = (
            declared_rows is not None
            and declared_rows <= REPLICATION_ROW_THRESHOLD
        )

        seen: Dict[tuple, _Candidate] = {}

        def add(columns: Tuple[str, ...], sort: Tuple[str, ...],
                seg: Tuple[str, ...]) -> None:
            key = (columns, sort, seg)
            if key in seen:
                return
            seen[key] = _Candidate(
                layout=TableLayout(
                    table=table, columns=columns, sort_order=sort,
                    segmentation_columns=seg, row_count=rows,
                    bytes_per_cell=cells,
                ),
                encodings=self._encodings_for(table, columns, sort),
            )

        for columns in column_sets:
            column_set = set(columns)
            sorts: List[Tuple[str, ...]] = []
            for lead in [c for c in leads if c in column_set] or [columns[0]]:
                order = [lead]
                for column in ranked_filters + ranked_groups:
                    if len(order) >= 3:
                        break
                    if column in column_set and column not in order:
                        order.append(column)
                if tuple(order) not in sorts:
                    sorts.append(tuple(order))
            segmentations: List[Tuple[str, ...]] = []
            if replicate_ok:
                # Declared-small tables are replicated by policy; ties in
                # the cost model then keep replication (generation order
                # breaks ties), and a big-table mistake still loses on
                # the single-participant scan penalty.
                segmentations.append(())
            for key_set, _weight in stats.join_sets.most_common():
                ordered = tuple(c for c in schema.names if c in key_set)
                if (
                    ordered
                    and set(ordered) <= column_set
                    and ordered not in segmentations
                ):
                    segmentations.append(ordered)
                if len(segmentations) >= 3:
                    break
            if not any(seg for seg in segmentations) and not replicate_ok:
                segmentations.append((columns[0],))
            for sort in sorts:
                for seg in segmentations:
                    add(columns, sort, seg)

        # Existing covering projections are always candidates: the search
        # can never do worse than what the cluster already has, and a
        # winner that matches one becomes "already applied".
        for projection in sorted(
            self.catalog.projections_of(table), key=lambda p: p.name
        ):
            if projection.is_buddy:
                continue
            if set(used) <= set(projection.columns):
                layout = self._layout_of(table, projection)
                add(layout.columns, layout.sort_order, layout.segmentation_columns)
        return list(seen.values())

    # -- stage 2: search -------------------------------------------------------

    def _rival_layouts(self, table: str) -> List[Tuple[str, TableLayout]]:
        """Existing projections a candidate must *beat in the planner* to
        be scanned at all: every non-buddy projection that survives an
        apply.  The table's own ``_dbd`` versions are excluded — a new
        version supersedes and drops them."""
        return [
            (projection.name, self._layout_of(table, projection))
            for projection in sorted(self.catalog.projections_of(table), key=lambda p: p.name)
            if not projection.is_buddy and dbd_version(table, projection.name) is None
        ]

    def _layout_of(self, table: str, projection: Projection) -> TableLayout:
        """The estimator's view of an existing projection of ``table``."""
        return TableLayout(
            table=table, columns=tuple(projection.columns),
            sort_order=tuple(projection.sort_order),
            segmentation_columns=(
                () if projection.segmentation.is_replicated
                else tuple(projection.segmentation.columns)
            ),
            row_count=self._estimate_rows(table),
            bytes_per_cell=self._bytes_per_cell(table),
        )

    def _node_count(self) -> int:
        return max(1, len(holders(self.catalog.subscriptions)) or len(self._states))

    def _baseline_layouts(self, tables: Sequence[str],
                          stats: Dict[str, _TableStats]
                          ) -> Dict[str, TableLayout]:
        """What the workload runs on today: per table, the narrowest
        existing projection covering its scanned columns (the super
        projection when nothing narrower exists)."""
        layouts = {}
        for table in tables:
            schema = self.catalog.table(table).schema
            used = {c for c in schema.names if stats[table].columns.get(c)}
            best: Optional[Projection] = None
            for projection in sorted(
                self.catalog.projections_of(table), key=lambda p: p.name
            ):
                if projection.is_buddy or not used <= set(projection.columns):
                    continue
                if best is None or len(projection.columns) < len(best.columns):
                    best = projection
            if best is not None:
                layouts[table] = self._layout_of(table, best)
            else:
                layouts[table] = TableLayout(
                    table=table, columns=tuple(schema.names),
                    sort_order=(schema.names[0],),
                    segmentation_columns=(schema.names[0],),
                    row_count=self._estimate_rows(table),
                    bytes_per_cell=self._bytes_per_cell(table),
                )
        return layouts

    def _search(self, shapes: List[QueryShape],
                candidates: Dict[str, List[_Candidate]]) -> _SearchResult:
        node_count = self._node_count()
        model = CostModel()
        tables = sorted(candidates)
        rivals = {table: self._rival_layouts(table) for table in tables}
        shape_keys = [_shape_join_keys(shape) for shape in shapes]

        def effective(index: int, shape: QueryShape, table: str,
                      layout: TableLayout) -> Optional[TableLayout]:
            """The layout the *planner* will actually scan for this query:
            the candidate competes with the projections that survive an
            apply, under the planner's own rank — local (co-segmented with
            the query's join keys, or replicated) first, then narrowest.
            Scoring the planner's pick rather than the candidate is what
            makes the search optimizer-grade: a layout the planner would
            ignore scores exactly like not creating it, and a candidate
            that only covers part of the workload is charged the true cost
            of the other queries falling back to a wider projection."""
            needed = set(shape.columns.get(table, ()))
            join_keys = shape_keys[index].get(table, set())

            def rank(name: str, lt: TableLayout, rival: int) -> tuple:
                seg = set(lt.segmentation_columns)
                local = lt.is_replicated or (bool(seg) and seg <= join_keys)
                return (0 if local else 1, len(lt.columns), rival, name)

            best: Optional[TableLayout] = None
            best_rank: Optional[tuple] = None
            if needed <= set(layout.columns):
                best, best_rank = layout, rank("", layout, 0)
            for name, alternative in rivals[table]:
                if not needed <= set(alternative.columns):
                    continue
                contender = rank(name, alternative, 1)
                if best_rank is None or contender < best_rank:
                    best, best_rank = alternative, contender
            return best

        # Separable per-candidate cost: weighted scans (through the
        # planner's pick) + maintenance.  Infeasible candidates (no layout
        # can serve a scan) drop out here.
        for table in tables:
            kept = []
            for candidate in candidates[table]:
                total = estimate_maintenance_cost(candidate.layout).seconds
                fallback = 0.0
                feasible = True
                for index, shape in enumerate(shapes):
                    if table not in shape.tables:
                        continue
                    layout = effective(index, shape, table, candidate.layout)
                    scan = (
                        estimate_scan_cost(
                            shape, table, layout, node_count, model
                        )
                        if layout is not None else None
                    )
                    if scan is None:
                        feasible = False
                        break
                    if layout is not candidate.layout:
                        fallback += shape.weight
                    total += shape.weight * scan.seconds
                if feasible:
                    candidate.sep_seconds = total
                    candidate.fallback_weight = fallback
                    kept.append(candidate)
            # Traffic concentration: among cost-tied candidates prefer the
            # one the planner routes the *most* weighted scans to.  Every
            # rival projection a query falls back to adds its containers
            # to the depot working set, and a split working set is what a
            # small depot cannot keep warm.  Stable sort keeps generation
            # order (replication for declared-small tables, then join-key
            # segmentations) as the final tie-break.
            kept.sort(key=lambda c: (c.sep_seconds, c.fallback_weight))
            candidates[table] = kept

        # A table with no feasible candidate (impossible from ``propose``:
        # generation includes the full schema) fails the search with
        # PlanningError (``_min_cost_assignment``).
        candidates_scored = sum(len(candidates[t]) for t in tables)

        # The rest of the objective: a query's first-table terms join its
        # first table's candidate cost, and each join's broadcast term is
        # a cell of (first table's candidate, build table's candidate).
        offset: Dict[str, int] = {}
        pool: List[_Candidate] = []
        for table in tables:
            offset[table] = len(pool)
            pool += candidates[table]
        unary = [candidate.sep_seconds for candidate in pool]
        pairs: Dict[Tuple[int, int], float] = {}
        row_counts = {table: self._estimate_rows(table) for table in tables}
        for index, shape in enumerate(shapes):
            head = shape.tables[0]
            firsts = [
                effective(index, shape, head, c.layout) for c in candidates[head]
            ]
            for i, layout in enumerate(firsts, offset[head]):
                unary[i] += shape.weight * estimate_first_table_seconds(
                    shape, layout, row_counts, node_count, model
                )
            for join in shape.joins:
                builds = candidates[join.table]
                for j, candidate in enumerate(builds, offset[join.table]):
                    build = effective(index, shape, join.table, candidate.layout)
                    for i, layout in enumerate(firsts, offset[head]):
                        seconds = shape.weight * estimate_broadcast_seconds(
                            shape, join, layout, build, node_count, model
                        )
                        if seconds:
                            pairs[i, j] = pairs.get((i, j), 0.0) + seconds
        assignment = {
            pool[i].layout.table: pool[i]
            for i in _min_cost_assignment(
                [len(candidates[table]) for table in tables], unary, pairs
            )
        }

        estimated = DesignCost()
        for index, shape in enumerate(shapes):
            layouts = {
                table: effective(index, shape, table, assignment[table].layout)
                for table in shape.tables
            }
            estimated.add(
                estimate_query_cost(shape, layouts, node_count, model),
                weight=shape.weight,
            )
        for table in tables:
            estimated.add(estimate_maintenance_cost(assignment[table].layout))

        _shapes_tables = {t for s in shapes for t in s.tables}
        baseline = estimate_workload_cost(
            shapes,
            self._baseline_layouts(sorted(_shapes_tables), self._stats_cache),
            node_count, model,
        ) or DesignCost(seconds=math.inf)
        return _SearchResult(assignment, estimated, baseline, "milp",
                             candidates_scored)

    # -- proposals -------------------------------------------------------------

    def propose(self) -> List[ProjectionProposal]:
        shapes, stats = self._build()
        self._stats_cache = stats
        if not shapes:
            self._last_search = None
            return []
        candidates = {
            table: self._candidates_for(table, stats[table])
            for table in sorted(stats)
        }
        search = self._search(shapes, candidates)
        self._last_search = search
        proposals = []
        for table in sorted(search.assignment):
            proposals.append(
                self._proposal_for(table, search.assignment[table],
                                   stats[table], search)
            )
        return proposals

    def _proposal_for(self, table: str, candidate: _Candidate,
                      stats: _TableStats, search: _SearchResult
                      ) -> ProjectionProposal:
        layout = candidate.layout
        schema = self.catalog.table(table).schema
        segmentation = (
            Segmentation.replicated()
            if layout.is_replicated
            else Segmentation.by_hash(*layout.segmentation_columns)
        )
        match = self._matching_projection(table, layout)
        if match is not None:
            name = match.name
        else:
            name = f"{table}_dbd_v{self._next_version(table)}"
        reasons = [
            f"covers the {len(layout.columns)} columns the workload reads "
            f"(of {len(schema)})"
        ]
        if layout.is_replicated:
            reasons.append(
                f"replicated: {self._estimate_rows(table)} rows fit on "
                "every node and all joins become local"
            )
        elif stats.join_sets:
            reasons.append(
                f"segmented by {list(layout.segmentation_columns)}: "
                "co-locates the workload's join keys (local joins)"
            )
        else:
            reasons.append(
                f"segmented by {layout.segmentation_columns[0]!r} "
                "(no joins observed)"
            )
        if any(c in stats.filters or c in stats.groups
               for c in layout.sort_order):
            reasons.append(
                f"sorted by {list(layout.sort_order)}: range filters prune "
                "containers and blocks"
            )
        reasons.append(
            f"scored {search.estimated.seconds:.4f}s (est.) vs baseline "
            f"{search.baseline.seconds:.4f}s over the weighted workload "
            f"({search.mode} search)"
        )
        if stats.strategies:
            observed = ", ".join(
                f"{name}x{count}"
                for name, count in sorted(stats.strategies.items())
            )
            reasons.append(f"observed scan strategies: {observed}")
        if match is not None:
            reasons.append(
                f"existing projection {match.name!r} already has this "
                "layout; apply keeps it"
            )
        return ProjectionProposal(
            table=table,
            columns=layout.columns,
            sort_order=layout.sort_order,
            segmentation=segmentation,
            name=name,
            encodings=candidate.encodings,
            reasons=reasons,
            already_applied=match is not None,
        )

    def _matching_projection(self, table: str,
                             layout: TableLayout) -> Optional[Projection]:
        for projection in sorted(
            self.catalog.projections_of(table), key=lambda p: p.name
        ):
            if projection.is_buddy:
                continue
            mine = self._layout_of(table, projection)
            if (mine.columns, mine.sort_order, mine.segmentation_columns) == (
                layout.columns, layout.sort_order, layout.segmentation_columns
            ):
                return projection
        return None

    def _next_version(self, table: str) -> int:
        versions = [
            dbd_version(table, p.name)
            for p in self.catalog.projections_of(table)
        ]
        return max([v for v in versions if v is not None], default=0) + 1

    # -- application -----------------------------------------------------------

    def apply(self, cluster) -> DesignerRun:
        """Create the winning projections, drop superseded ``_dbd``
        versions, and record the run.  Idempotent: a proposal matching an
        existing projection is kept, never recreated, so re-running the
        same design is a no-op that still logs a :class:`DesignerRun`."""
        proposals = self.propose()
        created: List[str] = []
        kept: List[str] = []
        state = _cluster_states(cluster)[0]
        for proposal in proposals:
            if proposal.already_applied or proposal.name in state.projections:
                kept.append(proposal.name)
                continue
            cluster.create_projection(
                proposal.name,
                proposal.table,
                list(proposal.columns),
                list(proposal.sort_order),
                proposal.segmentation,
            )
            created.append(proposal.name)
        # Superseded designer projections: every _dbd of a designed table
        # other than the one this run decided on.  Dropped after the
        # replacements are in place, in one transaction.
        state = _cluster_states(cluster)[0]
        stale = set()
        for proposal in proposals:
            for projection in state.projections_of(proposal.table):
                if projection.is_buddy or projection.name == proposal.name:
                    continue
                if dbd_version(proposal.table, projection.name) is not None:
                    stale.add(projection.name)
        dropped = tuple(sorted(stale))
        if dropped:
            cluster.drop_projections(list(dropped))
        search = self._last_search
        report = self._last_report
        runs = getattr(cluster, "designer_runs", None)
        if runs is None:
            runs = []
            setattr(cluster, "designer_runs", runs)
        clock = getattr(cluster, "clock", None)
        run = DesignerRun(
            run_id=len(runs) + 1,
            at_seconds=float(getattr(clock, "now", 0.0)),
            queries_used=len(self._queries),
            queries_skipped=len(report.skipped) if report else 0,
            candidates_scored=search.candidates_scored if search else 0,
            search_mode=search.mode if search else "empty",
            estimated_seconds=search.estimated.seconds if search else 0.0,
            baseline_seconds=search.baseline.seconds if search else 0.0,
            estimated_s3_gets=search.estimated.s3_gets if search else 0.0,
            baseline_s3_gets=search.baseline.s3_gets if search else 0.0,
            created=tuple(created),
            dropped=dropped,
            kept=tuple(kept),
        )
        runs.append(run)
        return run


def _min_cost_assignment(sizes: List[int], unary: List[float],
                         pairs: Dict[Tuple[int, int], float]) -> List[int]:
    """The indices of one candidate per group (``sizes`` consecutive ones
    per table) minimizing their ``unary`` seconds plus each ``pairs[i, j]``
    whose two candidates are both picked.

    A binary ``x`` per candidate, one per group, and a continuous
    ``y >= x_i + x_j - 1`` per pair: every cost is >= 0, so ``y`` settles
    at the AND of the two.  The objective is in microseconds because HiGHS
    stops within an absolute gap of 1e-6, which scipy does not expose.  A
    second solve, capped at the optimum, takes the optimum of smallest
    summed index: candidates arrive in rank order."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_array

    if 0 in sizes:
        raise PlanningError("designer search: a table has no feasible candidate")
    n, m, groups = len(unary), len(pairs), len(sizes)
    cells = sorted(pairs)
    first, second = np.array(cells, dtype=int).reshape(m, 2).T
    row = groups + np.arange(m)
    matrix = coo_array((
        np.r_[np.ones(n + 2 * m), -np.ones(m)],
        (np.r_[np.repeat(np.arange(groups), sizes), row, row, row],
         np.r_[np.arange(n), first, second, n + np.arange(m)]),
    ), shape=(groups + m, n + m))
    rows = LinearConstraint(matrix, np.r_[np.ones(groups), np.full(m, -np.inf)], 1.0)
    micros = 1e6 * np.r_[unary, [pairs[cell] for cell in cells]]

    def solve(objective, *constraints):
        result = milp(objective, constraints=constraints, bounds=(0, 1),
                      integrality=np.r_[np.ones(n), np.zeros(m)],
                      options={"mip_rel_gap": 0.0})
        if not result.success:
            raise PlanningError(f"designer search: {result.message}")
        return result

    best = solve(micros, rows)
    tied = solve(np.r_[np.arange(n), np.zeros(m)], rows,
                 LinearConstraint(micros, -np.inf, best.fun))
    return [int(i) for i in np.flatnonzero(tied.x[:n] > 0.5)]


def _cluster_states(cluster) -> List[CatalogState]:
    """Catalog states of every up node (Eon) or the single shared
    catalog (Enterprise), primary first."""
    nodes = getattr(cluster, "nodes", None)
    if isinstance(nodes, dict):
        states = [
            node.catalog.state
            for node in nodes.values()
            if getattr(node, "is_up", False)
        ]
        if states:
            return states
    return [cluster.catalog.state]
