"""Resource pools: named admission-capacity groups over cluster nodes.

A :class:`ResourcePool` is the workload manager's accounting unit — one
per subcluster plus a ``general`` pool for nodes outside any subcluster
(mirroring Vertica's GENERAL pool).  Capacity is not stored here: it is
derived live from the member nodes' ``execution_slots`` by the
:class:`~repro.wm.admission.AdmissionController`, so resizing a node or
moving it between subclusters takes effect on the next admission.  The
pool itself carries the queueing policy (max depth, timeout) and its
ledger (:class:`PoolStats`), which ``v_monitor.resource_pools`` /
``resource_queues`` and ``cluster_metrics()['wm']`` render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.obs.metrics import Ledger

#: Pool for nodes that belong to no subcluster (Vertica's GENERAL pool).
GENERAL_POOL = "general"


@dataclass(frozen=True)
class PoolConfig:
    """Queueing policy for one pool (shared by all pools by default)."""

    #: Admissions allowed to wait concurrently; beyond this the pool
    #: rejects immediately (fail fast beats unbounded queues).
    max_queue_depth: int = 64
    #: A queued admission that waited longer than this is rejected when
    #: its turn finally comes (simulated seconds).
    queue_timeout_seconds: float = 30.0
    #: After the queue overflows, arrivals are shed (fast typed rejection,
    #: no queueing) for this many simulated seconds — the circuit-breaker
    #: half of the backpressure pattern: under sustained overload new work
    #: fails in O(1) instead of every waiter riding to ``queue_timeout``.
    shed_cooldown_seconds: float = 5.0


@dataclass(eq=False)
class PoolStats(Ledger):
    """One pool's ledger, declared in ``v_monitor.resource_queues`` column
    order (``cluster_metrics()['wm']['pools']`` renders the same fields)."""

    #: Admissions currently waiting in this pool's queue.
    queued: int = field(default=0, metadata={"column": "queue_depth"})
    peak_queue_depth: int = 0
    #: Admissions that had to wait before being granted.
    queued_admissions: int = 0
    #: Total simulated seconds spent waiting in the queue.
    queue_wait_seconds: float = 0.0
    timeouts: int = 0
    rejected_queue_full: int = 0
    #: Synchronous (non-queueing) admissions refused because slots
    #: were busy.
    rejected_busy: int = 0
    #: Arrivals shed while the breaker was open.
    sheds: int = 0
    #: Admissions refused because the pool was draining.
    rejected_draining: int = 0
    #: While True the pool admits nothing new (sync or queued) but
    #: lets already-granted tickets run to completion — the graceful
    #: drain a caller sets (``AdmissionController.set_draining``) before
    #: it removes the pool's nodes.
    draining: bool = False
    #: Total tickets issued (immediate grants and queued grants).
    admitted: int = 0
    #: Times the breaker tripped (queue overflow under overload).
    breaker_trips: int = 0


class ResourcePool(PoolStats):
    """One admission pool: membership, policy, and its :class:`PoolStats`."""

    def __init__(self, name: str, config: PoolConfig):
        super().__init__()
        self.name = name
        self.config = config
        #: Member node names, kept current by the controller's refresh.
        self.members: List[str] = []
        #: Sim-clock instant until which arrivals are shed (circuit
        #: breaker open); 0.0 means closed.
        self.shed_until = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourcePool({self.name!r}, members={self.members}, "
            f"queued={self.queued}, admitted={self.admitted})"
        )
