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

from repro.autoscale.actuator import AutoscaleEvent
from repro.cache.disk_cache import CacheStats
from repro.catalog.objects import Projection, Segmentation, Table
from repro.cluster.services import ServiceRuns
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.designer import DesignerRun
from repro.engine.executor import ScanResult, StorageProvider
from repro.engine.expressions import Expr, extract_column_bounds
from repro.errors import CatalogError
from repro.obs.datacollector import DC_TABLES
from repro.obs.profile import OperatorProfile, RequestRecord
from repro.shared_storage.api import OpStats
from repro.storage.container import RowSet
from repro.wm.pool import PoolStats

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
#
# A table over a ledger (``repro.obs.metrics.Ledger``) takes its columns from
# the dataclass's fields and its rows from ``row()``: what is named here is
# only what the ledger does not hold (whose row it is, live readings).

_COLUMN_TYPES = {int: _I, float: _F, str: _S}


def _ledger_schema(ledger, before=(), after=()) -> TableSchema:
    typed = [(name, _COLUMN_TYPES[kind]) for name, kind in ledger.columns()]
    return _schema(*before, *typed, *after)


def _depot_activity(cluster) -> List[tuple]:
    return [
        (
            name, *node.cache.stats.row(), node.cache.used_bytes,
            node.cache.capacity_bytes, node.cache.file_count,
        )
        for name, node in sorted(cluster.nodes.items())
    ]


def _dc_requests_issued(cluster) -> List[tuple]:
    return [
        r.row() for r in sorted(cluster.obs.requests, key=lambda r: r.request_id)
    ]


def _query_profiles(cluster) -> List[tuple]:
    return [
        (profile.request_id, *op.row())
        for profile in sorted(cluster.obs.profiles, key=lambda p: p.request_id)
        for op in profile.operators
    ]


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
    pools = cluster.admission.pools
    return [(name, *pools[name].row()) for name in sorted(pools)]


def _dc_storage_operations(cluster) -> List[tuple]:
    shared = getattr(cluster, "shared", None)
    if shared is None:
        return []  # no shared storage (Enterprise): absent is empty
    return [(op, *stats.row()) for op, stats in sorted(shared.op_stats.items())]


def _services(cluster) -> List[tuple]:
    # Served from the scheduler the cluster registered (if any); a cluster
    # running without background services reports an empty table rather
    # than failing the bind.
    scheduler = getattr(cluster, "service_scheduler", None)
    if scheduler is None:
        return []
    return [(name, *runs.row()) for name, runs in sorted(scheduler.stats.services.items())]


def _autoscale_events(cluster) -> List[tuple]:
    # Served from the autoscaler the cluster registered (if any); same
    # absent-is-empty discipline as v_monitor.services.
    scaler = getattr(cluster, "autoscaler", None)
    return [e.row() for e in scaler.events] if scaler is not None else []


def _designer_runs(cluster) -> List[tuple]:
    # DesignerRun records appended by DatabaseDesigner.apply() (if any).
    return [r.row() for r in getattr(cluster, "designer_runs", None) or ()]


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


def _data_collector(cluster) -> List[tuple]:
    dc = cluster.obs.dc
    return dc.ring_counts() if dc.enabled else []


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
            "data_collector",
            _schema(
                ("table_name", _S), ("node_name", _S), ("records", _I), ("dropped", _I),
            ),
            _data_collector,
        ),
        SystemTableDef(
            "depot_activity",
            _ledger_schema(
                CacheStats,
                [("node_name", _S)],
                [("used_bytes", _I), ("capacity_bytes", _I), ("file_count", _I)],
            ),
            _depot_activity,
        ),
        SystemTableDef(
            "dc_requests_issued",
            _ledger_schema(RequestRecord),
            _dc_requests_issued,
        ),
        SystemTableDef(
            "query_profiles",
            _ledger_schema(OperatorProfile, [("request_id", _I)]),
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
            _ledger_schema(PoolStats, [("pool_name", _S)]),
            _resource_queues,
        ),
        SystemTableDef(
            "services",
            _ledger_schema(ServiceRuns, [("service", _S)]),
            _services,
        ),
        SystemTableDef(
            "autoscale_events",
            _ledger_schema(AutoscaleEvent),
            _autoscale_events,
        ),
        SystemTableDef(
            "designer_runs",
            _ledger_schema(DesignerRun),
            _designer_runs,
        ),
        SystemTableDef(
            "dc_storage_operations",
            _ledger_schema(OpStats, [("operation", _S)]),
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
