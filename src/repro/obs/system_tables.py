"""``v_monitor`` virtual system tables, served through the real SQL path.

Vertica exposes its Data Collector through system tables; so do we.  Each
table is a :class:`SystemTableDef`: a schema plus a producer that reads
*live* cluster state into deterministic rows.  At query time the cluster
injects, into a copy of the session's catalog snapshot, a ``Table`` and a
replicated ``Projection`` per referenced system table, and wraps the
session's storage provider in :class:`SystemTableProvider`, which serves
those projections from rows materialized at bind time.  Binding, planning,
predicate evaluation, joins, and aggregation all run through the ordinary
binder/planner/executor — a ``SELECT … FROM v_monitor.query_profiles
WHERE …`` is just a query whose scan happens to read the monitor.

Replicated segmentation means a pure system-table query plans single-node
(the initiator serves it), while joins against user tables treat the
virtual table as a replicated build side — both exactly the planner's
existing rules.

The ``dc_*`` event-history tables are *partitioned*: their producers take
the column bounds extracted from the query's WHERE clause and prune on
``time``/``node`` before materializing rows (vDBAHelper's predicate
pushdown).  Pruning is conservative — bounds come from AND-conjuncts
only, and the executor re-applies the full predicate after the scan — so
it can only skip rows that could never match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.objects import Projection, Segmentation, Table
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.executor import ScanResult, StorageProvider
from repro.engine.expressions import Expr, extract_column_bounds
from repro.errors import CatalogError
from repro.obs.datacollector import DC_TABLES
from repro.shared_storage.s3 import OP_CLASSES
from repro.storage.container import RowSet

SCHEMA_PREFIX = "v_monitor."

_I = ColumnType.INT
_F = ColumnType.FLOAT
_S = ColumnType.VARCHAR


def _schema(*cols: Tuple[str, ColumnType]) -> TableSchema:
    return TableSchema([SchemaColumn(name, ctype) for name, ctype in cols])


@dataclass(frozen=True)
class SystemTableDef:
    name: str  # short name, without the v_monitor. prefix
    schema: TableSchema
    producer: Callable[[object], List[tuple]]
    #: Columns the producer can prune on before materializing rows.  When
    #: non-empty, the producer is called as ``producer(cluster, bounds)``
    #: with the (possibly empty) extracted bounds for these columns.
    partition_columns: Tuple[str, ...] = ()

    @property
    def qualified_name(self) -> str:
        return SCHEMA_PREFIX + self.name

    @property
    def projection_name(self) -> str:
        return f"{self.qualified_name}_vproj"


# -- producers (rows must be deterministically ordered) --------------------------


def _depot_activity(cluster) -> List[tuple]:
    rows = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        stats = node.cache.stats
        rows.append(
            (
                name,
                stats.hits,
                stats.misses,
                stats.insertions,
                stats.evictions,
                stats.rejected_by_policy,
                stats.bytes_read,
                stats.bytes_written,
                stats.bytes_evicted,
                stats.bytes_missed,
                stats.prefetch_hits,
                stats.prefetch_bytes_read,
                float(stats.hit_rate),
                float(stats.byte_hit_rate),
                node.cache.used_bytes,
                node.cache.capacity_bytes,
                node.cache.file_count,
            )
        )
    return rows


def _dc_requests_issued(cluster) -> List[tuple]:
    return [
        (
            r.request_id,
            r.node_name,
            r.request,
            r.start_seconds,
            r.duration_seconds,
            r.rows_produced,
            r.depot_hits,
            r.depot_misses,
            r.s3_requests,
            r.s3_dollars,
        )
        for r in sorted(cluster.obs.requests, key=lambda r: r.request_id)
    ]


def _query_profiles(cluster) -> List[tuple]:
    rows = []
    for profile in sorted(cluster.obs.profiles, key=lambda p: p.request_id):
        for op in profile.operators:
            rows.append(
                (
                    profile.request_id,
                    op.node,
                    op.operator,
                    op.path_id,
                    op.rows,
                    op.sim_seconds,
                    op.bytes_from_cache,
                    op.bytes_from_shared,
                    op.depot_hits,
                    op.depot_misses,
                    op.s3_requests,
                    op.s3_dollars,
                    op.detail,
                    op.scan_strategy,
                )
            )
    return rows


def _storage_containers(cluster) -> List[tuple]:
    # Eon catalogs are shard-filtered per node, so the union over up nodes
    # is the cluster-wide container inventory; an Enterprise cluster keeps
    # one global catalog.
    catalog = getattr(cluster, "catalog", None)
    catalogs = [catalog] if catalog else [n.catalog for n in cluster.up_nodes()]
    seen: Dict[str, object] = {}
    for catalog in catalogs:
        for sid, container in catalog.state.containers.items():
            seen[str(sid)] = container
    rows = []
    for sid in sorted(seen):
        c = seen[sid]
        rows.append(
            (
                sid,
                c.projection,
                c.shard_id,
                c.row_count,
                c.size_bytes,
                "" if c.partition_key is None else str(c.partition_key),
            )
        )
    return rows


def _resource_usage(cluster) -> List[tuple]:
    admission = cluster.admission
    rows = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        shards = sorted(node.catalog.subscribed_shards or ())
        rows.append(
            (
                name,
                node.state.value,
                len(shards),
                node.execution_slots,
                admission.slots_in_use(name),
                node.cache.used_bytes,
                node.cache.capacity_bytes,
                node.cache_reads,
                node.shared_reads,
            )
        )
    return rows


def _resource_pools(cluster) -> List[tuple]:
    admission = cluster.admission
    rows = []
    for name in sorted(admission.pools):
        pool = admission.pools[name]
        rows.append(
            (
                name,
                len(pool.members),
                admission.pool_capacity(pool),
                admission.pool_in_use(pool),
                pool.config.max_queue_depth,
                pool.config.queue_timeout_seconds,
                pool.admitted,
            )
        )
    return rows


def _resource_queues(cluster) -> List[tuple]:
    admission = cluster.admission
    rows = []
    for name in sorted(admission.pools):
        pool = admission.pools[name]
        rows.append(
            (
                name,
                pool.queued,
                pool.peak_queue_depth,
                pool.queued_admissions,
                pool.queue_wait_seconds,
                pool.timeouts,
                pool.rejected_queue_full,
                pool.rejected_busy,
                pool.sheds,
                pool.rejected_draining,
                1 if pool.draining else 0,
            )
        )
    return rows


def _dc_storage_operations(cluster) -> List[tuple]:
    shared = getattr(cluster, "shared", None)
    if shared is None:
        return []  # no shared storage (Enterprise): absent is empty
    op_stats = getattr(shared, "op_stats", None)
    rows = []
    if op_stats:
        for op in sorted(op_stats):
            stats = op_stats[op]
            rows.append(
                (
                    op,
                    stats.requests,
                    stats.bytes,
                    stats.sim_seconds,
                    stats.dollars,
                    stats.transient_faults,
                    stats.throttled,
                )
            )
    else:
        # Generic backend: per-class detail unavailable, report from the
        # aggregate StorageMetrics.  The row set is derived from the same
        # OP_CLASSES the simulated backend uses, so both code paths report
        # identical op classes; metrics fields a generic backend doesn't
        # track (select_requests/bytes_scanned) read as zero.
        m = shared.metrics
        rows = [
            (
                op,
                getattr(m, requests_field, 0),
                getattr(m, bytes_field, 0) if bytes_field else 0,
                0.0, 0.0, 0, 0,
            )
            for op, (requests_field, bytes_field) in sorted(
                _FALLBACK_OP_FIELDS.items()
            )
        ]
    return rows


#: StorageMetrics fields backing each op class in the generic-backend
#: fallback of :func:`_dc_storage_operations`; must cover ``OP_CLASSES``.
_FALLBACK_OP_FIELDS: Dict[str, Tuple[str, Optional[str]]] = {
    "DELETE": ("delete_requests", None),
    "GET": ("get_requests", "bytes_read"),
    "LIST": ("list_requests", None),
    "PUT": ("put_requests", "bytes_written"),
    "SELECT": ("select_requests", "bytes_scanned"),
}
assert set(_FALLBACK_OP_FIELDS) == set(OP_CLASSES)


def _services(cluster) -> List[tuple]:
    # Served from the scheduler the cluster registered (if any); a cluster
    # running without background services reports an empty table rather
    # than failing the bind.
    scheduler = getattr(cluster, "service_scheduler", None)
    if scheduler is None:
        return []
    names = set(scheduler.run_counts) | set(scheduler.error_counts)
    return [
        (
            name,
            scheduler.run_counts.get(name, 0),
            scheduler.error_counts.get(name, 0),
            scheduler.last_errors.get(name, ""),
        )
        for name in sorted(names)
    ]


def _autoscale_events(cluster) -> List[tuple]:
    # Served from the autoscaler the cluster registered (if any); same
    # absent-is-empty discipline as v_monitor.services.
    scaler = getattr(cluster, "autoscaler", None)
    if scaler is None:
        return []
    return [
        (
            e.event_id,
            e.at_seconds,
            e.action,
            e.subcluster,
            e.node,
            e.outcome,
            e.detail,
        )
        for e in scaler.events
    ]


def _designer_runs(cluster) -> List[tuple]:
    # Served from DesignerRun records appended by DatabaseDesigner.apply()
    # (if any); same absent-is-empty discipline as v_monitor.services.
    runs = getattr(cluster, "designer_runs", None)
    if not runs:
        return []
    return [
        (
            r.run_id,
            r.at_seconds,
            r.queries_used,
            r.queries_skipped,
            r.candidates_scored,
            r.search_mode,
            r.regret_bound,
            r.estimated_seconds,
            r.baseline_seconds,
            r.estimated_s3_gets,
            r.baseline_s3_gets,
            ",".join(r.created),
            ",".join(r.dropped),
            ",".join(r.kept),
        )
        for r in runs
    ]


def _dc_event_producer(table: str):
    """Producer for one Data Collector event table.

    Reads the cluster's collector (empty when observability is disabled)
    and lets it prune on the extracted time/node bounds before a single
    row is materialized.
    """

    def produce(cluster, bounds=None) -> List[tuple]:
        dc = cluster.obs.dc
        return dc.rows(table, bounds) if dc.enabled else []

    return produce


#: Column types for the dc_* event tables; anything unlisted is VARCHAR.
_DC_COLUMN_TYPES: Dict[str, ColumnType] = {
    "time": _F, "value": _F, "wait_seconds": _F,
    "request_id": _I, "slots": _I, "bytes": _I,
}

_DC_EVENT_DEFS: Tuple[SystemTableDef, ...] = tuple(
    SystemTableDef(
        table,
        _schema(*[(c, _DC_COLUMN_TYPES.get(c, _S)) for c in columns]),
        _dc_event_producer(table),
        partition_columns=tuple(
            c for c in ("time", "node") if c in columns
        ),
    )
    for table, columns in sorted(DC_TABLES.items())
)


SYSTEM_TABLES: Dict[str, SystemTableDef] = {
    d.name: d
    for d in _DC_EVENT_DEFS + (
        SystemTableDef(
            "depot_activity",
            _schema(
                ("node_name", _S), ("hits", _I), ("misses", _I),
                ("insertions", _I), ("evictions", _I),
                ("rejected_by_policy", _I), ("bytes_read", _I),
                ("bytes_written", _I), ("bytes_evicted", _I),
                ("bytes_missed", _I), ("prefetch_hits", _I),
                ("prefetch_bytes_read", _I), ("hit_rate", _F),
                ("byte_hit_rate", _F), ("used_bytes", _I),
                ("capacity_bytes", _I), ("file_count", _I),
            ),
            _depot_activity,
        ),
        SystemTableDef(
            "dc_requests_issued",
            _schema(
                ("request_id", _I), ("node_name", _S), ("request", _S),
                ("start_seconds", _F), ("duration_seconds", _F),
                ("rows_produced", _I), ("depot_hits", _I),
                ("depot_misses", _I), ("s3_requests", _I),
                ("s3_dollars", _F),
            ),
            _dc_requests_issued,
        ),
        SystemTableDef(
            "query_profiles",
            _schema(
                ("request_id", _I), ("node_name", _S), ("operator", _S),
                ("path_id", _I), ("rows_produced", _I),
                ("sim_seconds", _F), ("bytes_from_cache", _I),
                ("bytes_from_shared", _I), ("depot_hits", _I),
                ("depot_misses", _I), ("s3_requests", _I),
                ("s3_dollars", _F), ("detail", _S),
                ("scan_strategy", _S),
            ),
            _query_profiles,
        ),
        SystemTableDef(
            "storage_containers",
            _schema(
                ("sid", _S), ("projection", _S), ("shard_id", _I),
                ("row_count", _I), ("size_bytes", _I), ("partition_key", _S),
            ),
            _storage_containers,
        ),
        SystemTableDef(
            "resource_usage",
            _schema(
                ("node_name", _S), ("node_state", _S), ("subscriptions", _I),
                ("execution_slots", _I), ("slots_in_use", _I),
                ("cache_used_bytes", _I), ("cache_capacity_bytes", _I),
                ("cache_reads", _I), ("shared_reads", _I),
            ),
            _resource_usage,
        ),
        SystemTableDef(
            "resource_pools",
            _schema(
                ("pool_name", _S), ("node_count", _I), ("capacity", _I),
                ("slots_in_use", _I), ("max_queue_depth", _I),
                ("queue_timeout_seconds", _F), ("admitted", _I),
            ),
            _resource_pools,
        ),
        SystemTableDef(
            "resource_queues",
            _schema(
                ("pool_name", _S), ("queue_depth", _I),
                ("peak_queue_depth", _I), ("queued_admissions", _I),
                ("queue_wait_seconds", _F), ("timeouts", _I),
                ("rejected_queue_full", _I), ("rejected_busy", _I),
                ("sheds", _I), ("rejected_draining", _I), ("draining", _I),
            ),
            _resource_queues,
        ),
        SystemTableDef(
            "services",
            _schema(
                ("service", _S), ("runs", _I), ("errors", _I),
                ("last_error", _S),
            ),
            _services,
        ),
        SystemTableDef(
            "autoscale_events",
            _schema(
                ("event_id", _I), ("at_seconds", _F), ("action", _S),
                ("subcluster", _S), ("node", _S), ("outcome", _S),
                ("detail", _S),
            ),
            _autoscale_events,
        ),
        SystemTableDef(
            "designer_runs",
            _schema(
                ("run_id", _I), ("at_seconds", _F), ("queries_used", _I),
                ("queries_skipped", _I), ("candidates_scored", _I),
                ("search_mode", _S), ("regret_bound", _F),
                ("estimated_seconds", _F), ("baseline_seconds", _F),
                ("estimated_s3_gets", _F), ("baseline_s3_gets", _F),
                ("created", _S), ("dropped", _S), ("kept", _S),
            ),
            _designer_runs,
        ),
        SystemTableDef(
            "dc_storage_operations",
            _schema(
                ("operation", _S), ("requests", _I), ("bytes", _I),
                ("sim_seconds", _F), ("dollars", _F),
                ("transient_faults", _I), ("throttled", _I),
            ),
            _dc_storage_operations,
        ),
    )
}


def system_tables_referenced(statement) -> List[str]:
    """Qualified ``v_monitor.*`` names a SELECT references (FROM + JOINs).

    Raises :class:`CatalogError` for an unknown ``v_monitor`` table so the
    user gets the available names instead of a generic bind failure.
    """
    refs = [t.name for t in statement.tables]
    refs += [j.table.name for j in statement.joins]
    names: List[str] = []
    for name in refs:
        if not name.startswith(SCHEMA_PREFIX):
            continue
        short = name[len(SCHEMA_PREFIX):]
        if short not in SYSTEM_TABLES:
            available = ", ".join(sorted(SYSTEM_TABLES))
            raise CatalogError(
                f"unknown system table {name!r}; available: {available}"
            )
        if name not in names:
            names.append(name)
    return names


def bind_system_tables(
    cluster,
    state,
    provider: StorageProvider,
    names: Sequence[str],
    statement=None,
):
    """Inject virtual tables into a copy of ``state``; wrap ``provider``.

    Rows are materialized here — at bind time — so one query sees one
    consistent reading of the monitor, and the query's own execution does
    not show up in its result.

    When ``statement`` is a single-table, join-free SELECT with a WHERE
    clause, its AND-conjunct column bounds are handed to partitioned
    producers (the ``dc_*`` tables) so they prune on ``time``/``node``
    before materializing.  Bounds are only a necessary condition — the
    executor still applies the full predicate — so multi-table or
    aliased queries simply skip pruning rather than risking wrong rows.
    """
    bounds: Dict[str, Tuple[object, object]] = {}
    if (
        statement is not None
        and len(getattr(statement, "tables", ())) == 1
        and not getattr(statement, "joins", ())
        and getattr(statement, "where", None) is not None
    ):
        bounds = extract_column_bounds(statement.where)
    virtual = state.copy()
    rowsets: Dict[str, RowSet] = {}
    for name in names:
        definition = SYSTEM_TABLES[name[len(SCHEMA_PREFIX):]]
        virtual.tables[name] = Table(name=name, schema=definition.schema)
        projection = Projection(
            name=definition.projection_name,
            anchor_table=name,
            columns=tuple(definition.schema.names),
            sort_order=(),
            segmentation=Segmentation.replicated(),
        )
        virtual.projections[projection.name] = projection
        if definition.partition_columns:
            pruned = {
                column: bounds[column]
                for column in definition.partition_columns
                if column in bounds and bounds[column] != (None, None)
            }
            rows = definition.producer(cluster, pruned or None)
        else:
            rows = definition.producer(cluster)
        rowsets[projection.name] = RowSet.from_rows(definition.schema, rows)
    return virtual, SystemTableProvider(provider, rowsets)


class SystemTableProvider(StorageProvider):
    """Serves injected ``v_monitor`` projections; delegates everything else."""

    def __init__(self, base: StorageProvider, rowsets: Dict[str, RowSet]):
        self._base = base
        self._rowsets = rowsets

    def participants(self) -> List[str]:
        return self._base.participants()

    def initiator(self) -> str:
        return self._base.initiator()

    @property
    def preserves_segmentation(self) -> bool:
        return self._base.preserves_segmentation

    def settle_io(self) -> Dict[str, float]:
        return self._base.settle_io()

    def set_pushdown(self, mode: str) -> None:
        self._base.set_pushdown(mode)

    def note_scan_eligibility(self, eligible: bool) -> None:
        note = getattr(self._base, "note_scan_eligibility", None)
        if note is not None:
            note(eligible)

    def scan(
        self,
        node: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        rows = self._rowsets.get(projection)
        if rows is None:
            return self._base.scan(node, projection, columns, predicate, replicated)
        # Virtual scans are free: no containers, no IO, no depot traffic.
        # The executor re-applies the predicate after every scan, so
        # ignoring it here is correct (just unpruned).
        return ScanResult(rows=rows.select(list(columns)))
