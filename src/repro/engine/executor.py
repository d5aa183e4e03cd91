"""Distributed plan executor.

Executes a :class:`~repro.engine.planner.PhysicalPlan` against a
:class:`StorageProvider` (implemented by the Eon and Enterprise clusters).
Subtrees without aggregation run as per-participant *fragments* whose
results are gathered to the initiator; aggregation marks the fragment
boundary (one-phase, two-phase partial/final, or gather-and-aggregate),
and everything above it runs on the initiator.

Fragments run in one of two modes:

* **materializing** (default): every operator evaluates its whole input
  before the next starts — the volcano baseline and the differential
  oracle;
* **batched** (``batched=True``): scan→filter→project→join chains stream
  fixed-size row batches through fused generators.  Joins build once, then
  probe batch-at-a-time; single-key inner joins push an IN-list of build
  key values sideways (SIP) into the probe-side scan's predicate so
  container/block pruning and the I/O scheduler fetch less; and each
  scan's fetch durations are pooled per node and settled once per query
  (:class:`~repro.engine.pipeline.PipelineCharges`) — the pipeline driver
  keeps prefetch lanes full across scan boundaries instead of draining
  them at every operator.  Aggregates and sorts stay materializing
  pipeline breakers so results (including float summation order) are
  bit-identical to the materializing path.

The provider tells the executor whether the session's data placement still
preserves the segmentation property (it does not under container-split
crunch scaling — section 4.4); if not, local joins are downgraded to
broadcast and one-phase aggregation to two-phase, exactly the "data must be
shuffled" consequence the paper describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.types import SchemaColumn, TableSchema
from repro.engine.cost import CostModel, QueryStats
from repro.engine.expressions import BinaryOp, ColumnRef, Expr, InList
from repro.engine.operators import (
    JoinBuild,
    aggregate,
    hash_join,
    join_match_mask,
    sort_limit,
)
from repro.engine.pipeline import PipelineCharges, chunk_rows
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    has_node,
)
from repro.engine.planner import PhysicalPlan
from repro.errors import ExecutionError
from repro.storage.container import RowSet


@dataclass
class ScanResult:
    """What a storage provider returns for one fragment scan."""

    rows: RowSet
    io_seconds: float = 0.0
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

    # -- pipelined (batched) execution hooks -----------------------------------
    # Providers with a parallel I/O scheduler override these so the batched
    # executor can pool fetch charges across scans; the defaults keep every
    # other provider on per-scan charging.

    def make_pipeline_charges(self) -> Optional[PipelineCharges]:
        """Return a fresh per-query charge pool, or None when the provider
        has no lane-scheduled I/O to pool."""
        return None

    def attach_pipeline(self, charges: Optional[PipelineCharges]) -> None:
        """Route subsequent scans' fetch charging through ``charges``."""
        return None


@dataclass
class QueryResult:
    rows: RowSet
    stats: QueryStats
    plan: PhysicalPlan


def rowset_bytes(rows: RowSet) -> int:
    """Approximate wire size of a batch."""
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype.kind == "O":
            # 4 bytes a value plus the length of each string.
            values = column.tolist()
            strings = compress(values, map(isinstance, values, repeat(str)))
            total += 4 * len(values) + sum(map(len, strings))
        else:
            total += column.dtype.itemsize * len(column)
    return total


class Executor:
    #: Build sides with more distinct keys than this don't produce a SIP
    #: filter — an IN-list that long prunes nothing and bloats predicates.
    SIP_MAX_KEYS = 4096

    def __init__(
        self,
        provider: StorageProvider,
        cost_model: Optional[CostModel] = None,
        obs=None,
        batched: bool = False,
        batch_size: int = 1024,
        sip: bool = True,
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
        # Observability is opt-in; ``None`` keeps every hot path at a
        # single attribute check (the zero-overhead-when-disabled contract).
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.op_profiles: List = []
        self.batched = bool(batched)
        self.batch_size = int(batch_size)
        if self.batched and self.batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        self.sip_enabled = bool(sip) and self.batched
        self.pipeline: Optional[PipelineCharges] = None
        self.batches_emitted = 0
        self.sip_filters_built = 0
        # (id(scan_node), participant) -> {id(join): IN-list expression}
        self._sip_filters: Dict[Tuple[int, str], Dict[int, Expr]] = {}

    # -- public ------------------------------------------------------------------

    def execute(self, plan: PhysicalPlan) -> QueryResult:
        self.stats = QueryStats()
        self.stats.dispatch_seconds = self.cost.dispatch_seconds
        self._broadcast_cache = {}
        self.op_profiles = []
        self._sip_filters = {}
        self.batches_emitted = 0
        self.sip_filters_built = 0
        self.pipeline = None
        if self.batched:
            self.pipeline = self.provider.make_pipeline_charges()
            self.provider.attach_pipeline(self.pipeline)
        if plan.single_node:
            self._participants = [self.provider.initiator()]
        else:
            self._participants = self.provider.participants()
        if not self._participants:
            raise ExecutionError("no participating nodes")
        try:
            rows = self._eval_top(plan.root)
        finally:
            if self.pipeline is not None:
                self._settle_pipeline()
                self.provider.attach_pipeline(None)
        if self.batched:
            self._note_pipeline(rows)
        if self._obs is not None and self.stats.total_pushdown_scans:
            self._obs.metrics.counter("engine.pushdown_scans").inc(
                self.stats.total_pushdown_scans
            )
            self._obs.metrics.counter("s3.bytes_scanned").inc(
                self.stats.total_bytes_scanned
            )
        return QueryResult(rows=rows, stats=self.stats, plan=plan)

    def _settle_pipeline(self) -> None:
        """Charge each node's pooled fetch durations as one lane schedule —
        the whole query's fetches behave like a single prefetch stream."""
        for node_name, makespan in self.pipeline.settle().items():
            self.stats.node(node_name).io_seconds += makespan

    def _note_pipeline(self, rows: RowSet) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter("engine.batches").inc(self.batches_emitted)
        if self.sip_filters_built:
            self._obs.metrics.counter("engine.sip_filters").inc(self.sip_filters_built)
        pooled = self.pipeline
        self._obs.tracer.record(
            "pipeline",
            duration=pooled.pipelined_seconds if pooled else 0.0,
            batches=self.batches_emitted,
            batch_size=self.batch_size,
            sip_filters=self.sip_filters_built,
            io_serial_seconds=pooled.serial_seconds if pooled else 0.0,
            rows=rows.num_rows,
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
            if self.batched and stop is not None and self._is_fragment_safe(node.child):
                # Streaming LIMIT: stop pulling batches once enough rows
                # arrived.  Participants and batches are consumed in the
                # same order the materializing path concatenates them, so
                # the kept prefix is identical.
                return self._gather_limited(node.child, stop).slice(node.offset, stop)
            rows = self._eval_top(node.child)
            return rows.slice(node.offset, stop)
        raise ExecutionError(
            f"unsupported node above aggregation: {type(node).__name__}"
        )

    @staticmethod
    def _is_fragment_safe(node: PlanNode) -> bool:
        """True when the whole subtree can run per-participant and be
        gathered (no aggregation/sort/limit anywhere inside)."""
        from repro.engine.plan import walk

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

    def _gather_limited(self, node: PlanNode, stop: int) -> RowSet:
        """Gather fragments but stop consuming batches at ``stop`` rows.

        Abandoned generators never run their remaining batches — scans on
        later participants may not fetch at all, which is the LIMIT
        early-exit the streaming engine buys (row content of the kept
        prefix is unchanged)."""
        collected: List[RowSet] = []
        taken = 0
        for participant in self._participants:
            per_node: List[RowSet] = []
            done = False
            for batch in self._stream_fragment(node, participant):
                per_node.append(batch)
                taken += batch.num_rows
                if taken >= stop:
                    done = True
                    break
            non_empty = [p for p in per_node if p.num_rows]
            if non_empty:
                collected.append(RowSet.concat(non_empty))
            elif per_node:
                collected.append(per_node[0])
            if done:
                break
        # _collect zips against participants; a truncated list only charges
        # network for the fragments actually shipped.
        return self._collect(collected)

    def _collect(self, parts: List[RowSet]) -> RowSet:
        """Concatenate per-node results, charging network for shipping."""
        initiator = self.provider.initiator()
        for participant, part in zip(self._participants, parts):
            if participant != initiator and part.num_rows:
                nbytes = rowset_bytes(part)
                self.stats.network_bytes += nbytes
                self.stats.network_seconds += self.cost.network_seconds(nbytes)
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
                 *, bytes_from_cache: int = 0, bytes_from_shared: int = 0,
                 depot_hits: int = 0, depot_misses: int = 0,
                 s3_requests: int = 0, s3_dollars: float = 0.0,
                 detail: str = "", scan_strategy: str = "") -> None:
        if self._obs is None:
            return
        from repro.obs.profile import OperatorProfile

        self.op_profiles.append(
            OperatorProfile(
                path_id=len(self.op_profiles),
                operator=operator,
                node=node_name,
                rows=rows,
                sim_seconds=seconds,
                bytes_from_cache=bytes_from_cache,
                bytes_from_shared=bytes_from_shared,
                depot_hits=depot_hits,
                depot_misses=depot_misses,
                s3_requests=s3_requests,
                s3_dollars=s3_dollars,
                detail=detail,
                scan_strategy=scan_strategy,
            )
        )

    # -- fragment (per-participant) evaluation -------------------------------------

    def _run_fragment(self, node: PlanNode, participant: str) -> RowSet:
        """Top-level fragment invocation: one traced span per participant.

        The span's duration is the participant's busy-seconds delta, the
        same quantity the cost model folds into query latency — so the
        trace's fragment durations reconcile with ``QueryStats``.
        """
        if self._obs is None:
            return self._fragment_rows(node, participant)
        busy_before = self.stats.node(participant).busy_seconds
        with self._obs.tracer.span("fragment", node=participant) as span:
            rows = self._fragment_rows(node, participant)
            span.duration = self.stats.node(participant).busy_seconds - busy_before
            span.annotate(rows=rows.num_rows)
        return rows

    def _fragment_rows(self, node: PlanNode, participant: str) -> RowSet:
        """Evaluate a fragment fully: materializing directly, or by
        draining the batched stream (the result rows are identical — the
        stream is consecutive slices of the same evaluation order)."""
        if not self.batched:
            return self._eval_fragment(node, participant)
        parts = list(self._stream_fragment(node, participant))
        non_empty = [p for p in parts if p.num_rows]
        if non_empty:
            return RowSet.concat(non_empty)
        return parts[0]

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
            work.io_seconds += result.io_seconds
            work.bytes_from_cache += result.bytes_from_cache
            work.bytes_from_shared += result.bytes_from_shared
            work.rows_scanned += result.rows.num_rows + result.pushdown_rows_filtered
            work.containers_scanned += result.containers_scanned
            work.containers_pruned += result.containers_pruned
            work.blocks_pruned += result.blocks_pruned
            work.prefetch_hits += result.prefetch_hits
            work.peer_fetches += result.peer_fetches
            work.coalesced_gets += result.coalesced_gets
            work.pushdown_scans += result.pushdown_scans
            work.bytes_scanned += result.bytes_scanned
            decode_cpu = (
                result.rows.num_rows * len(node.columns) * self.cost.cell_cpu_seconds
            )
            work.cpu_seconds += decode_cpu
            op_seconds = result.io_seconds + decode_cpu
            rows = result.rows
            if node.predicate is not None:
                predicate_cpu = rows.num_rows * self.cost.row_cpu_seconds
                work.cpu_seconds += predicate_cpu
                op_seconds += predicate_cpu
                rows = rows.filter(node.predicate.evaluate(rows).astype(bool))
                work.rows_processed += rows.num_rows
            self._note_op(
                "Scan", participant, rows.num_rows, op_seconds,
                bytes_from_cache=result.bytes_from_cache,
                bytes_from_shared=result.bytes_from_shared,
                depot_hits=result.depot_hits,
                depot_misses=result.depot_misses,
                s3_requests=result.s3_requests,
                s3_dollars=result.s3_dollars,
                detail=node.projection,
                scan_strategy=result.scan_strategy,
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
            left, build, list(node.left_keys), list(node.right_keys), node.how
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
        participant."""
        locality = node.locality
        if locality == "local" and not self.provider.preserves_segmentation:
            # Container-split crunch broke co-location; replicated build
            # sides are still safe, segmented ones must be broadcast.
            if not (isinstance(node.right, ScanNode) and node.right.replicated):
                locality = "broadcast"
        if locality == "local":
            rows = self._fragment_rows(node.right, participant)
            return JoinBuild(rows, node.right_keys), locality
        return self._broadcast(node), locality

    def _broadcast(self, join: JoinNode) -> JoinBuild:
        """Gather a build side once, ship it to every participant."""
        key = id(join.right)
        if key not in self._broadcast_cache:
            fragments = [self._fragment_rows(join.right, p) for p in self._participants]
            full = RowSet.concat(fragments)
            nbytes = rowset_bytes(full)
            fanout = max(len(self._participants) - 1, 1)
            self.stats.network_bytes += nbytes * fanout
            self.stats.network_seconds += self.cost.network_seconds(
                nbytes * fanout, messages=fanout
            )
            self._broadcast_cache[key] = JoinBuild(full, join.right_keys)
        return self._broadcast_cache[key]

    # -- batched (pipelined) fragment evaluation -----------------------------------

    def _stream_fragment(self, node: PlanNode, participant: str):
        """Yield a fragment's rows as consecutive batches.

        Generators are lazy: nothing below runs until the first batch is
        pulled.  Join builds therefore complete top-down along the probe
        spine *before* the bottom scan executes — which is exactly the
        ordering SIP needs to land every IN-list in the scan's predicate.
        """
        work = self.stats.node(participant)
        if isinstance(node, ScanNode):
            predicate = self._effective_predicate(node, participant)
            self._hint_pushdown(node)
            result = self.provider.scan(
                participant,
                node.projection,
                node.columns,
                predicate,
                node.replicated,
            )
            work.io_seconds += result.io_seconds
            work.bytes_from_cache += result.bytes_from_cache
            work.bytes_from_shared += result.bytes_from_shared
            work.rows_scanned += result.rows.num_rows + result.pushdown_rows_filtered
            work.containers_scanned += result.containers_scanned
            work.containers_pruned += result.containers_pruned
            work.blocks_pruned += result.blocks_pruned
            work.prefetch_hits += result.prefetch_hits
            work.peer_fetches += result.peer_fetches
            work.coalesced_gets += result.coalesced_gets
            work.pushdown_scans += result.pushdown_scans
            work.bytes_scanned += result.bytes_scanned
            decode_cpu = (
                result.rows.num_rows * len(node.columns) * self.cost.cell_cpu_seconds
            )
            work.cpu_seconds += decode_cpu
            op_seconds = result.io_seconds + decode_cpu
            total_out = 0
            for batch in chunk_rows(result.rows, self.batch_size):
                self.batches_emitted += 1
                out = batch
                if predicate is not None:
                    predicate_cpu = batch.num_rows * self.cost.row_cpu_seconds
                    work.cpu_seconds += predicate_cpu
                    op_seconds += predicate_cpu
                    if batch.num_rows:
                        out = batch.filter(predicate.evaluate(batch).astype(bool))
                    work.rows_processed += out.num_rows
                total_out += out.num_rows
                yield out
            self._note_op(
                "Scan", participant, total_out, op_seconds,
                bytes_from_cache=result.bytes_from_cache,
                bytes_from_shared=result.bytes_from_shared,
                depot_hits=result.depot_hits,
                depot_misses=result.depot_misses,
                s3_requests=result.s3_requests,
                s3_dollars=result.s3_dollars,
                detail=node.projection,
                scan_strategy=result.scan_strategy,
            )
            return
        if isinstance(node, FilterNode):
            total_in = total_out = 0
            for batch in self._stream_fragment(node.child, participant):
                work.cpu_seconds += batch.num_rows * self.cost.row_cpu_seconds
                out = batch
                if batch.num_rows:
                    out = batch.filter(node.predicate.evaluate(batch).astype(bool))
                total_in += batch.num_rows
                total_out += out.num_rows
                yield out
            self._note_op("Filter", participant, total_out,
                          total_in * self.cost.row_cpu_seconds)
            return
        if isinstance(node, ProjectNode):
            total = 0
            for batch in self._stream_fragment(node.child, participant):
                work.cpu_seconds += batch.num_rows * self.cost.row_cpu_seconds
                total += batch.num_rows
                yield _project(batch, node.outputs)
            self._note_op("Project", participant, total,
                          total * self.cost.row_cpu_seconds)
            return
        if isinstance(node, JoinNode):
            yield from self._stream_join(node, participant)
            return
        raise ExecutionError(
            f"node type {type(node).__name__} cannot appear inside a fragment"
        )

    def _stream_join(self, node: JoinNode, participant: str):
        """Build once, then stream probe batches through the join.

        One :class:`JoinBuild` serves every batch (and, for a broadcast
        join, every participant).  Inner joins probe each batch directly;
        the per-batch outputs concatenate to exactly the materializing
        join's output (probe order × build order).  LEFT joins split each
        batch by :func:`join_match_mask`, join the matched rows inner per
        batch, and hold the unmatched rows for one padded tail batch —
        reproducing the serial all-matched-then-all-unmatched row order.
        """
        work = self.stats.node(participant)
        build, locality = self._join_build(node, participant)
        self._register_sip(node, build, participant)
        left_keys, right_keys = list(node.left_keys), list(node.right_keys)
        build_cpu_charged = False
        total_in = total_out = 0
        unmatched: List[RowSet] = []
        for batch in self._stream_fragment(node.left, participant):
            if not build_cpu_charged:
                work.cpu_seconds += build.num_rows * self.cost.row_cpu_seconds
                build_cpu_charged = True
            if node.how == "left":
                mask = join_match_mask(batch, build, left_keys, right_keys)
                missed = batch.filter(~mask)
                if missed.num_rows:
                    unmatched.append(missed)
                out = hash_join(
                    batch.filter(mask), build, left_keys, right_keys, "inner"
                )
            else:
                out = hash_join(batch, build, left_keys, right_keys, node.how)
            join_cpu = (batch.num_rows + out.num_rows) * self.cost.row_cpu_seconds
            work.cpu_seconds += join_cpu
            work.rows_processed += out.num_rows
            total_in += batch.num_rows
            total_out += out.num_rows
            yield out
        if not build_cpu_charged:
            work.cpu_seconds += build.num_rows * self.cost.row_cpu_seconds
        if node.how == "left" and unmatched:
            tail = hash_join(
                RowSet.concat(unmatched), build, left_keys, right_keys, "left"
            )
            join_cpu = (tail.num_rows * 2) * self.cost.row_cpu_seconds
            work.cpu_seconds += join_cpu
            work.rows_processed += tail.num_rows
            total_out += tail.num_rows
            yield tail
        self._note_op(
            "Join", participant, total_out,
            (total_in + build.num_rows + total_out) * self.cost.row_cpu_seconds,
            detail=f"{locality} {node.how} batched",
        )

    def _register_sip(self, join: JoinNode, build: JoinBuild, participant: str) -> None:
        """Push an IN-list of build-side key values into the probe scan.

        Skipped for float keys (NaN equality differs between the join's
        probing and array membership), for builds containing NULL keys
        (``None`` probes match ``None`` builds in :func:`hash_join`, which
        ``InList.could_match`` pruning would not honour), and for builds
        wider than ``SIP_MAX_KEYS``.  An *empty* build is pushed: the empty
        IN-list prunes every container, matching the empty inner-join
        output."""
        if not self.sip_enabled or join.how != "inner":
            return
        target, column = join.sip_scan, join.sip_column
        if target is None or column is None:
            return
        registered = self._sip_filters.setdefault((id(target), participant), {})
        if id(join) in registered:
            return
        if build.rows.column(join.right_keys[0]).dtype.kind == "f":
            return
        keys = build.distinct_keys()
        if len(keys) > self.SIP_MAX_KEYS:
            return
        values = keys.tolist()
        if None in values:
            return
        registered[id(join)] = InList(ColumnRef(column), tuple(sorted(values)))
        self.sip_filters_built += 1

    def _effective_predicate(self, node: ScanNode, participant: str) -> Optional[Expr]:
        extra = self._sip_filters.get((id(node), participant))
        if not extra:
            return node.predicate
        predicate = node.predicate
        for expr in extra.values():  # insertion order: deterministic
            predicate = expr if predicate is None else BinaryOp("and", predicate, expr)
        return predicate


def _project(rows: RowSet, outputs: Tuple[Tuple[str, Expr], ...]) -> RowSet:
    columns: Dict[str, np.ndarray] = {}
    schema_cols: List[SchemaColumn] = []
    for name, expr in outputs:
        values = expr.evaluate(rows)
        columns[name] = values
        schema_cols.append(SchemaColumn(name, _ctype_of(values)))
    return RowSet(TableSchema(schema_cols), columns)


def _ctype_of(values: np.ndarray):
    from repro.common.types import ColumnType

    kind = values.dtype.kind
    if kind == "O":
        return ColumnType.VARCHAR
    if kind == "f":
        return ColumnType.FLOAT
    if kind == "b":
        return ColumnType.BOOL
    return ColumnType.INT
