"""Query-wide pooled read charging, and the engine's lifetime counters.

Charged scan by scan, a fragment's scans would pay one lane makespan each: a
fragment with six single-file scans would pay six request rounds although
the scheduler has four lanes.  A storage provider instead *pools* every read
its scans make per node (:class:`PipelineCharges`) and the executor settles
the pool once per query with :meth:`SimClock.charge_parallel` — a driver
that issues the next scan's reads while the current scan is still being
decoded, so lanes never drain at scan boundaries and the six scans pay
``ceil(6 / LANES)`` rounds.  A read is one unit whatever it reads from: an
Eon scan's GETs, peer copies and SELECTs, and its depot hits' local-disk
reads (one per container, of the blocks it decodes); an Enterprise scan's
local-disk reads the same way.

Demand accounting is untouched by pooling: the scheduler performs exactly
the same ``cache.get`` calls, misses, puts, coalesced groups, and S3
requests in the same order — only *when the lane makespan is charged*
changes.  That is what lets the differential suite require depot demand
stats to be bit-identical against a per-scan charging reference (kept in
the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.io.scheduler import LANES
from repro.obs.metrics import Ledger


class PipelineCharges:
    """Per-node pooled read durations, settled once per query.

    ``add`` is called by the I/O scheduler in place of charging a batch's
    lane makespan, and by a provider for a scan's local-disk reads;
    ``settle`` schedules every pooled duration onto the
    scheduler's :data:`~repro.io.scheduler.LANES`, returns the per-node
    makespans the executor folds into :class:`NodeWork.io_seconds`, and
    leaves the pool empty.
    """

    def __init__(self, clock):
        self.clock = clock
        self.per_node: Dict[str, List[float]] = {}

    def add(self, node_name: str, durations: List[float]) -> None:
        if durations:
            self.per_node.setdefault(node_name, []).extend(durations)

    def settle(self) -> Dict[str, float]:
        pooled, self.per_node = self.per_node, {}
        return {
            name: self.clock.charge_parallel(pooled[name], LANES)[0]
            for name in sorted(pooled)
        }


@dataclass
class EngineStats(Ledger):
    """Cluster-lifetime accounting for the engine (the ``engine`` section
    of :func:`repro.obs.metrics.cluster_metrics`): every finished query's
    ``QueryStats`` and ``NodeWork`` folded in by ``add``."""

    derived = ("io_overlap_seconds",)

    queries: int = 0
    #: What per-scan charging would have cost vs what pooling charged —
    #: their gap is the I/O overlap the pooled settlement won.
    io_serial_seconds: float = 0.0
    io_pipelined_seconds: float = 0.0
    #: Server-side pushdown: containers answered by select_scan and the
    #: stored bytes those selects touched.
    pushdown_scans: int = 0
    bytes_scanned: int = 0
    #: SELECTs bound and planned, and those that found their plan kept
    #: (``cluster/query_path.py``'s ``PlanCache``).
    statements_prepared: int = 0
    plans_reused: int = 0

    @property
    def io_overlap_seconds(self) -> float:
        return max(0.0, self.io_serial_seconds - self.io_pipelined_seconds)
