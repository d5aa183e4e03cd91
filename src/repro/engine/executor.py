"""Distributed plan executor.

Executes a :class:`~repro.engine.planner.PhysicalPlan` against a
:class:`StorageProvider` (implemented by the Eon and Enterprise clusters).
Subtrees without aggregation run as per-participant *fragments* whose
results are gathered to the initiator; aggregation marks the fragment
boundary (one-phase, two-phase partial/final, or gather-and-aggregate),
and everything above it runs on the initiator.

There is one engine: every operator evaluates its whole input, as array
kernels, before the next starts.  What a query's scans share is the fetch
charge: a provider with lane-scheduled I/O defers each scan's lane makespan
into one per-node pool, and :meth:`Executor.execute` settles that pool once,
at the end (:meth:`StorageProvider.settle_io`) — the whole query's fetches
behave like one prefetch stream, so lanes do not drain at scan boundaries.
Pooling moves *when* a makespan is charged and nothing that is demanded:
scans run in the same order (a join's probe side, then its build), with the
same ``cache.get`` calls, misses, puts and S3 requests.

The provider tells the executor whether the session's data placement still
preserves the segmentation property (it does not under container-split
crunch scaling — section 4.4); if not, local joins are downgraded to
broadcast and one-phase aggregation to two-phase, exactly the "data must be
shuffled" consequence the paper describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.cost import CostModel, QueryStats
from repro.engine.expressions import Expr
from repro.engine.operators import JoinBuild, aggregate, hash_join, sort_limit
from repro.engine.pipeline import PipelineCharges
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
from repro.engine.planner import PhysicalPlan
from repro.errors import ExecutionError
from repro.obs.metrics import Ledger
from repro.obs.profile import OperatorProfile
from repro.storage.container import RowSet, rowset_bytes
from repro.storage.encoding import Held


@dataclass
class ScanResult(Ledger):
    """What a storage provider returns for one fragment scan: the rows and
    the scan's ledger, which the executor folds (``add``) into the node's
    ``NodeWork`` and the Scan's ``OperatorProfile`` by field name.
    ``bytes_from_cache`` is the blocks the scan decoded and paid for, not
    the whole files the depot handed out (``CacheStats.bytes_read``)."""

    rows: RowSet
    #: What the scan charges at once, outside the pool — retry backoff, which
    #: stalls a request's retry loop rather than a lane.
    io_seconds: float = 0.0
    #: The reads this scan deferred into the provider's per-query pool, as
    #: scan-by-scan charging would count them: its fetch batch's and its
    #: selects' lane makespans, and its local-disk reads one after another.
    #: Charged by ``settle_io``, not part of ``io_seconds``.
    io_pooled_seconds: float = 0.0
    bytes_from_cache: int = 0
    bytes_from_shared: int = 0
    containers_scanned: int = 0
    containers_pruned: int = 0
    blocks_pruned: int = 0
    # Depot/S3 accounting (per-file events; providers without a depot
    # leave these at zero).
    depot_hits: int = 0
    depot_misses: int = 0
    s3_requests: int = 0
    s3_dollars: float = 0.0
    #: Shared-store retries, their backoff (in ``io_seconds`` too), GET/select seconds.
    retries: int = 0
    retry_backoff_seconds: float = 0.0
    storage_io_seconds: float = 0.0
    # Parallel I/O scheduler accounting (zero when the scheduler is off
    # or the provider has no depot).
    prefetch_hits: int = 0
    peer_fetches: int = 0
    coalesced_gets: int = 0
    # Server-side pushdown accounting: containers answered by select_scan,
    # stored bytes those selects touched, and the scan's strategy label
    # ("depot" | "get" | "pushdown"; "" for providers without the notion).
    pushdown_scans: int = 0
    bytes_scanned: int = 0
    scan_strategy: str = ""
    #: Rows the server-side predicate removed before the wire; added back
    #: into ``rows_scanned`` so scan accounting is strategy-invariant.
    pushdown_rows_filtered: int = 0


class StorageProvider(abc.ABC):
    """The cluster-facing interface the executor runs against."""

    @abc.abstractmethod
    def participants(self) -> List[str]:
        """Nodes executing fragments for this session."""

    @abc.abstractmethod
    def initiator(self) -> str:
        """The session's initiator node (also a participant)."""

    @abc.abstractmethod
    def scan(
        self,
        node: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        """Scan the projection data this node serves in this session."""

    @property
    def preserves_segmentation(self) -> bool:
        """False when the session splits shards in a way that breaks the
        co-location property (container-split crunch scaling)."""
        return True

    def set_pushdown(self, mode: str) -> None:
        """Accept the session's pushdown mode (off | auto | on).

        Default: ignore — providers without server-side compute (the
        Enterprise cluster, test fakes) scan exactly as before.
        """
        return None

    def replica_reads(self, node: str) -> Optional[tuple]:
        """What the last replicated scan on ``node`` read, as a key that two
        nodes' scans share only when their rows are the same; None when the
        provider cannot tell (the default), and each node keeps its own
        join build.
        """
        return None

    #: The query's deferred reads (a :class:`~repro.engine.pipeline.
    #: PipelineCharges`): every fetch, select and local-disk read a scan
    #: makes, pooled per node as lane units.  None for a provider that
    #: charges every scan in its own ``io_seconds`` (a test fake, say).
    _pool: Optional[PipelineCharges] = None

    def settle_io(self) -> Dict[str, float]:
        """Seconds to add to each node's ``io_seconds`` for the reads this
        query's scans deferred (``ScanResult.io_pooled_seconds``), pooled
        per node and scheduled as one lane stream.  Called once, when the
        query's last scan has run."""
        return {} if self._pool is None else self._pool.settle()


@dataclass
class QueryResult:
    rows: RowSet
    stats: QueryStats
    plan: PhysicalPlan


def check_query_options(given: Iterable[str], accepted: Sequence[str]) -> None:
    """Typed failure for a per-query option that does not exist."""
    unknown = sorted(option for option in given if option not in accepted)
    if unknown:
        raise ExecutionError(
            f"unknown query option(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(accepted)})"
        )


class Executor:
    def __init__(
        self,
        provider: StorageProvider,
        cost_model: Optional[CostModel] = None,
        obs=None,
        pushdown: str = "auto",
    ):
        self.provider = provider
        self.cost = cost_model or CostModel()
        if pushdown not in ("auto", "on", "off"):
            raise ExecutionError(
                f"pushdown must be auto|on|off, got {pushdown!r}"
            )
        self.pushdown = pushdown
        self.provider.set_pushdown(pushdown)
        self.stats = QueryStats()
        self._broadcast_cache: Dict[int, JoinBuild] = {}
        self._replica_builds: Dict[tuple, JoinBuild] = {}
        # Observability is opt-in; ``None`` keeps every hot path at a
        # single attribute check (the zero-overhead-when-disabled contract).
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.op_profiles: List = []
        self._fragment_spans: Dict[str, object] = {}

    # -- public ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> QueryResult:
        self.stats = QueryStats()
        self.stats.dispatch_seconds = self.cost.dispatch_seconds
        self._broadcast_cache = {}
        self._replica_builds = {}
        self.op_profiles = []
        self._fragment_spans = {}
        if plan.single_node:
            self._participants = [self.provider.initiator()]
        else:
            self._participants = self.provider.participants()
        if not self._participants:
            raise ExecutionError("no participating nodes")
        try:
            rows = self._eval_top(plan.root)
        finally:
            # Also on failure: nothing stays pooled for the provider's next query.
            self._settle_io()
        return QueryResult(rows=rows, stats=self.stats, plan=plan)

    def _settle_io(self) -> None:
        """Charge each node's pooled fetch makespan, and credit it to that
        node's fragment span so the trace still reconciles with
        ``QueryStats`` (an ``s3_get`` never outlasts its fragment).  The
        saving against per-scan charging shows once, on the ``pipeline``
        span: ``io_serial_seconds - duration``."""
        settled = self.provider.settle_io()
        for node_name, makespan in settled.items():
            self.stats.node(node_name).io_seconds += makespan
            span = self._fragment_spans.get(node_name)
            if span is not None:
                span.duration += makespan
        self.stats.io_pipelined_seconds = sum(settled.values())
        if self._obs is not None and settled:
            self._obs.tracer.record(
                "pipeline",
                duration=self.stats.io_pipelined_seconds,
                io_serial_seconds=self.stats.io_serial_seconds,
            )

    # -- initiator-side evaluation ----------------------------------------------

    def _eval_top(self, node: PlanNode) -> RowSet:
        if self._is_fragment_safe(node):
            return self._gather(node)
        if isinstance(node, AggregateNode):
            return self._eval_aggregate(node)
        if isinstance(node, FilterNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            out = rows.filter(node.predicate.evaluate(rows).astype(bool))
            self._note_op("Filter", self.provider.initiator(), out.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return out
        if isinstance(node, ProjectNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            self._note_op("Project", self.provider.initiator(), rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return _project(rows, node.outputs)
        if isinstance(node, SortNode):
            rows = self._eval_top(node.child)
            self._charge_initiator(rows.num_rows)
            self._note_op("Sort", self.provider.initiator(), rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return sort_limit(rows, node.order)
        if isinstance(node, LimitNode):
            stop = None if node.limit is None else node.offset + node.limit
            rows = self._eval_top(node.child)
            return rows.slice(node.offset, stop)
        raise ExecutionError(
            f"unsupported node above aggregation: {type(node).__name__}"
        )

    @staticmethod
    def _is_fragment_safe(node: PlanNode) -> bool:
        """True when the whole subtree can run per-participant and be
        gathered (no aggregation/sort/limit anywhere inside)."""
        return not any(
            isinstance(n, (AggregateNode, SortNode, LimitNode)) for n in walk(node)
        )

    def _eval_aggregate(self, node: AggregateNode) -> RowSet:
        strategy = self._effective_strategy(node)
        group = list(node.group_names)
        specs = list(node.specs)
        if strategy == "one_phase":
            parts = [
                aggregate(self._run_fragment(node.child, p), group, specs, "complete")
                for p in self._participants
            ]
            for p, part in zip(self._participants, parts):
                self.stats.node(p).cpu_seconds += part.num_rows * self.cost.row_cpu_seconds
                self._note_op("Aggregate", p, part.num_rows,
                              part.num_rows * self.cost.row_cpu_seconds,
                              detail="one_phase")
            return self._collect(parts)
        if strategy == "two_phase":
            parts = []
            for p in self._participants:
                fragment = self._run_fragment(node.child, p)
                self.stats.node(p).cpu_seconds += (
                    fragment.num_rows * self.cost.row_cpu_seconds
                )
                self._note_op("Aggregate", p, fragment.num_rows,
                              fragment.num_rows * self.cost.row_cpu_seconds,
                              detail="partial")
                parts.append(aggregate(fragment, group, specs, "partial"))
            merged = self._collect(parts)
            self._charge_initiator(merged.num_rows)
            self._note_op("Aggregate", self.provider.initiator(), merged.num_rows,
                          merged.num_rows * self.cost.row_cpu_seconds,
                          detail="final")
            return aggregate(merged, group, specs, "final")
        # gather_complete
        fragments = [self._run_fragment(node.child, p) for p in self._participants]
        gathered = self._collect(fragments)
        self._charge_initiator(gathered.num_rows)
        self._note_op("Aggregate", self.provider.initiator(), gathered.num_rows,
                      gathered.num_rows * self.cost.row_cpu_seconds,
                      detail="gather_complete")
        return aggregate(gathered, group, specs, "complete")

    def _effective_strategy(self, node: AggregateNode) -> str:
        strategy = node.strategy
        if len(self._participants) == 1:
            return "one_phase"  # complete aggregation is exact on one node
        if strategy == "one_phase" and not self.provider.preserves_segmentation:
            has_distinct = any(s.distinct for s in node.specs)
            strategy = (
                "gather_complete" if has_distinct and len(node.specs) > 1 else "two_phase"
            )
        if strategy == "two_phase" and any(s.distinct for s in node.specs) and len(node.specs) > 1:
            strategy = "gather_complete"
        return strategy

    def _gather(self, node: PlanNode) -> RowSet:
        fragments = [self._run_fragment(node, p) for p in self._participants]
        return self._collect(fragments)

    def _collect(self, parts: List[RowSet]) -> RowSet:
        """Concatenate per-node results, charging one gather of the remote
        parts with rows (:meth:`CostModel.gather_seconds`)."""
        initiator = self.provider.initiator()
        remote = [
            rowset_bytes(part)
            for participant, part in zip(self._participants, parts)
            if participant != initiator and part.num_rows
        ]
        if remote:
            self.stats.network_bytes += sum(remote)
            self.stats.network_seconds += self.cost.gather_seconds(remote)
        return RowSet.concat(parts) if parts else RowSet.empty(TableSchema([]))

    def _charge_initiator(self, rows: int) -> None:
        self.stats.initiator_cpu_seconds += rows * self.cost.row_cpu_seconds

    # -- observability hooks -------------------------------------------------------

    def _hint_pushdown(self, node: ScanNode) -> None:
        """Hand the planner's eligibility verdict to providers that care
        (getattr-based so bare test providers need no new surface)."""
        note = getattr(self.provider, "note_scan_eligibility", None)
        if note is not None:
            note(node.pushdown_eligible)

    def _note_op(self, operator: str, node_name: str, rows: int, seconds: float,
                 *, detail: str = "", scan: Optional[ScanResult] = None) -> None:
        if self._obs is None:
            return
        profile = OperatorProfile(
            node_name, operator, len(self.op_profiles), rows, seconds, detail=detail
        )
        if scan is not None:
            profile.scan_strategy = scan.scan_strategy
            profile.add(scan)
        self.op_profiles.append(profile)

    # -- fragment (per-participant) evaluation -------------------------------------

    def _run_fragment(self, node: PlanNode, participant: str) -> RowSet:
        """Top-level fragment invocation: one traced span per participant.

        The span's duration is the participant's busy-seconds delta — plus,
        at :meth:`_settle_io`, the node's pooled fetch makespan — the same
        quantities the cost model folds into query latency, so the trace's
        fragment durations reconcile with ``QueryStats``.
        """
        if self._obs is None:
            return self._eval_fragment(node, participant)
        busy_before = self.stats.node(participant).busy_seconds
        with self._obs.tracer.span("fragment", node=participant) as span:
            rows = self._eval_fragment(node, participant)
            span.duration = self.stats.node(participant).busy_seconds - busy_before
            span.annotate(rows=rows.num_rows)
        self._fragment_spans[participant] = span
        return rows

    def _eval_fragment(self, node: PlanNode, participant: str) -> RowSet:
        work = self.stats.node(participant)
        if isinstance(node, ScanNode):
            self._hint_pushdown(node)
            result = self.provider.scan(
                participant,
                node.projection,
                node.columns,
                node.predicate,
                node.replicated,
            )
            work.add(result)
            self.stats.io_serial_seconds += result.io_pooled_seconds
            self.stats.retries += result.retries
            self.stats.retry_backoff_seconds += result.retry_backoff_seconds
            self.stats.storage_io_seconds += result.storage_io_seconds
            work.rows_scanned += result.rows.num_rows + result.pushdown_rows_filtered
            decode_cpu = (
                result.rows.num_rows * len(node.columns) * self.cost.cell_cpu_seconds
            )
            work.cpu_seconds += decode_cpu
            # The profile row keeps the scan's own fetch seconds, pooled or not.
            op_seconds = result.io_seconds + result.io_pooled_seconds + decode_cpu
            rows = result.rows
            if node.predicate is not None:
                predicate_cpu = rows.num_rows * self.cost.row_cpu_seconds
                work.cpu_seconds += predicate_cpu
                op_seconds += predicate_cpu
                rows = rows.filter(node.predicate.evaluate(rows).astype(bool))
                work.rows_processed += rows.num_rows
            self._note_op(
                "Scan", participant, rows.num_rows, op_seconds,
                detail=node.projection, scan=result,
            )
            return rows
        if isinstance(node, FilterNode):
            rows = self._eval_fragment(node.child, participant)
            work.cpu_seconds += rows.num_rows * self.cost.row_cpu_seconds
            out = rows.filter(node.predicate.evaluate(rows).astype(bool))
            self._note_op("Filter", participant, out.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return out
        if isinstance(node, ProjectNode):
            rows = self._eval_fragment(node.child, participant)
            work.cpu_seconds += rows.num_rows * self.cost.row_cpu_seconds
            self._note_op("Project", participant, rows.num_rows,
                          rows.num_rows * self.cost.row_cpu_seconds)
            return _project(rows, node.outputs)
        if isinstance(node, JoinNode):
            return self._eval_join(node, participant)
        raise ExecutionError(
            f"node type {type(node).__name__} cannot appear inside a fragment"
        )

    def _eval_join(self, node: JoinNode, participant: str) -> RowSet:
        work = self.stats.node(participant)
        left = self._eval_fragment(node.left, participant)
        build, locality = self._join_build(node, participant)
        out = hash_join(
            left, build, list(node.left_keys), list(node.right_keys), node.how,
            node.condition,
        )
        join_cpu = (
            (left.num_rows + build.num_rows + out.num_rows) * self.cost.row_cpu_seconds
        )
        work.cpu_seconds += join_cpu
        work.rows_processed += out.num_rows
        self._note_op("Join", participant, out.num_rows, join_cpu,
                      detail=f"{locality} {node.how}")
        return out

    def _join_build(self, node: JoinNode, participant: str) -> Tuple[JoinBuild, str]:
        """A join's build side on one participant, and its effective locality.

        A local build is the participant's own fragment; a broadcast build
        is gathered, shipped and factorized once and shared by every
        participant.  A local build that is a replicated scan is scanned
        and charged on every participant, and factorized once for all whose
        scans read the same (:meth:`StorageProvider.replica_reads`)."""
        replicated = isinstance(node.right, ScanNode) and node.right.replicated
        locality = node.locality
        if locality == "local" and not self.provider.preserves_segmentation:
            # Container-split crunch broke co-location; replicated build
            # sides are still safe, segmented ones must be broadcast.
            if not replicated:
                locality = "broadcast"
        if locality != "local":
            return self._broadcast(node), locality
        rows = self._eval_fragment(node.right, participant)
        reads = self.provider.replica_reads(participant) if replicated else None
        if reads is None:
            return JoinBuild(rows, node.right_keys), locality
        key = (id(node), reads)
        build = self._replica_builds.get(key)
        if build is None:
            build = self._replica_builds[key] = JoinBuild(rows, node.right_keys)
        return build, locality

    def _broadcast(self, join: JoinNode) -> JoinBuild:
        """Gather a build side once, ship it to every participant: one
        all-to-all exchange of the fragments
        (:meth:`CostModel.broadcast_seconds`); with no peer, or no rows,
        nothing is shipped."""
        key = id(join.right)
        if key not in self._broadcast_cache:
            fragments = [self._eval_fragment(join.right, p) for p in self._participants]
            peers = len(fragments) - 1
            if peers and any(part.num_rows for part in fragments):
                sizes = [rowset_bytes(part) for part in fragments]
                self.stats.network_bytes += sum(sizes) * peers
                self.stats.network_seconds += self.cost.broadcast_seconds(sizes)
            self._broadcast_cache[key] = JoinBuild(RowSet.concat(fragments), join.right_keys)
        return self._broadcast_cache[key]


def _project(rows: RowSet, outputs: Tuple[Tuple[str, Expr], ...]) -> RowSet:
    columns: Dict[str, Held] = {}
    schema_cols: List[SchemaColumn] = []
    for name, expr in outputs:
        values = expr.held(rows)
        columns[name] = values
        schema_cols.append(SchemaColumn(name, _ctype_of(values)))
    return RowSet(TableSchema(schema_cols), columns)


def _ctype_of(values: Held):
    kind = values.dtype.kind
    if kind == "O":
        return ColumnType.VARCHAR
    if kind == "f":
        return ColumnType.FLOAT
    if kind == "b":
        return ColumnType.BOOL
    return ColumnType.INT
