"""Slot-based admission control over per-node execution slots.

The paper's throughput model (section 4.2) says a query needs ``S``
execution slots — one per shard it scans — on a cluster whose nodes have
``E`` slots each.  This module makes that capacity real: every node gets
a :class:`~repro.common.clock.Resource` of ``execution_slots`` units on
the cluster's :class:`~repro.common.clock.SimClock`, and every query
must hold its per-node slot demand for the duration of its execution.

Two admission paths exist because two kinds of caller exist:

* **Synchronous** (:meth:`AdmissionController.admit`) — ordinary
  ``cluster.query()`` calls run start-to-finish with no event loop
  driving the clock, so they cannot wait.  Free slots are taken
  immediately; busy slots raise :class:`~repro.errors.AdmissionRejected`
  (``reason="busy"``).  Sequential callers therefore never notice
  admission — slots are always free between statements.
* **Queued** (:meth:`AdmissionController.enqueue`) — concurrent drivers
  (:mod:`repro.wm.driver`) run as clock processes and *can* wait: they
  yield the pending admission's :class:`~repro.common.clock.AcquireAll`
  effect, resuming only when every demanded slot is granted atomically
  (no convoy: a query never holds slots on one node while queueing on
  another).  The measured queue wait is charged to the query's
  ``dispatch_seconds`` so it shows up in latency, profiles, and spans.

Slot accounting is the subsystem's safety contract: every ticket is
released exactly once on every exit path (success, error, cancel,
failover retry, degraded rejection), and the sim invariant
``wm-slot-accounting`` asserts slots-in-use equals the demand of active
tickets — zero leaks — after every campaign action.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.common.clock import AcquireAll, Resource
from repro.errors import AdmissionRejected
from repro.wm.pool import GENERAL_POOL, PoolConfig, ResourcePool


class AdmissionTicket:
    """Proof of admission: the slots one running query holds."""

    def __init__(
        self,
        ticket_id: int,
        pool: str,
        demand: Dict[str, int],
        queue_wait_seconds: float,
    ):
        self.ticket_id = ticket_id
        self.pool = pool
        #: node -> slots held there (already clamped to capacity).
        self.demand = dict(demand)
        #: Simulated seconds spent queued before the grant (0 for
        #: immediate grants); callers charge this to ``dispatch_seconds``.
        self.queue_wait_seconds = queue_wait_seconds
        self.released = False

    @property
    def total_slots(self) -> int:
        return sum(self.demand.values())


class PendingAdmission:
    """A queued admission: yield :attr:`effect` from a clock process,
    then call :meth:`granted` to turn the grant into a ticket (or, if the
    process never ran to the grant, :meth:`cancel` to leave the queue)."""

    def __init__(
        self,
        controller: "AdmissionController",
        pool: ResourcePool,
        demand: Dict[str, int],
        resources: List[Resource],
        enqueued_at: float,
        initiator: str = "",
    ):
        self._controller = controller
        self._pool = pool
        self.demand = dict(demand)
        #: Yield this from the waiting process; it resumes on atomic grant.
        self.effect = AcquireAll(resources)
        self.enqueued_at = enqueued_at
        self.initiator = initiator
        self._settled = False

    def granted(self) -> AdmissionTicket:
        """Account the grant the process just received.

        Raises :class:`AdmissionRejected` (releasing the just-granted
        slots) when the wait exceeded the pool's queue timeout — the
        deterministic-clock equivalent of timing out in the queue.
        """
        controller = self._controller
        pool = self._pool
        self._settle()
        wait = controller.clock.now - self.enqueued_at
        if wait > pool.config.queue_timeout_seconds:
            self.effect.release()
            pool.timeouts += 1
            controller._dc_record(
                self.initiator, pool, "reject", "timeout",
                sum(self.demand.values()), wait,
            )
            raise AdmissionRejected(
                f"pool {pool.name!r}: queued {wait:.3f}s, timeout "
                f"{pool.config.queue_timeout_seconds:.3f}s",
                pool=pool.name,
                reason="timeout",
            )
        return controller._issue(pool, self.demand, wait, self.initiator)

    def cancel(self) -> None:
        """Withdraw without a grant (the waiting process never resumed).

        Removes the effect from every slot resource's waiter list so a
        later release cannot resume a dead process, and corrects the
        pool's queue accounting.  Idempotent; a no-op after settling.
        """
        if self._settled:
            return
        for resource in {id(r): r for r in self.effect.resources}.values():
            while self.effect in resource._multi_waiters:
                resource._multi_waiters.remove(self.effect)
        self._settle()

    def _settle(self) -> None:
        if self._settled:
            return
        self._settled = True
        pool = self._pool
        controller = self._controller
        pool.queued -= 1
        controller.pending -= 1
        controller._waiting.remove(self)


class AdmissionController:
    """Per-cluster workload manager: pools, slot resources, tickets.

    Works against both :class:`~repro.cluster.eon.EonCluster` (pools from
    ``cluster.subclusters``) and
    :class:`~repro.cluster.enterprise.EnterpriseCluster` (no subclusters:
    everything lands in the ``general`` pool).  Membership and capacities
    are refreshed lazily at each admission, so node add/remove/resize and
    subcluster changes need no registration hooks.
    """

    def __init__(self, cluster, config: Optional[PoolConfig] = None):
        self.cluster = cluster
        self.config = config or PoolConfig()
        self.node_slots: Dict[str, Resource] = {}
        self.pools: Dict[str, ResourcePool] = {
            GENERAL_POOL: ResourcePool(GENERAL_POOL, self.config)
        }
        self._node_pool: Dict[str, str] = {}
        #: Live tickets by id — the slot-accounting invariant's ground truth.
        self.active: Dict[int, AdmissionTicket] = {}
        #: Queued admissions not yet granted/cancelled.
        self.pending = 0
        self._waiting: List[PendingAdmission] = []
        self._ticket_ids = itertools.count(1)
        self.refresh()

    @property
    def clock(self):
        return self.cluster.clock

    # -- topology sync -----------------------------------------------------------

    def refresh(self) -> None:
        """Sync pools and slot resources with current cluster topology."""
        cluster = self.cluster
        subclusters = getattr(cluster, "subclusters", None) or {}
        node_pool: Dict[str, str] = {}
        for pool_name in sorted(subclusters):
            for node_name in sorted(subclusters[pool_name]):
                node_pool[node_name] = pool_name
        for node_name in cluster.nodes:
            node_pool.setdefault(node_name, GENERAL_POOL)
        for node_name in sorted(cluster.nodes):
            node = cluster.nodes[node_name]
            resource = self.node_slots.get(node_name)
            if resource is None:
                self.node_slots[node_name] = Resource(
                    self.clock, node.execution_slots, name=f"slots:{node_name}"
                )
            elif resource.capacity != node.execution_slots:
                resource.set_capacity(node.execution_slots)
        # Removed nodes drop their resource once idle; a held ticket keeps
        # it alive so release() stays well-defined.
        for node_name in list(self.node_slots):
            if node_name not in cluster.nodes and not self.node_slots[node_name].in_use:
                del self.node_slots[node_name]
        for pool_name in sorted(set(node_pool.values())):
            if pool_name not in self.pools:
                self.pools[pool_name] = ResourcePool(pool_name, self.config)
        # Pools outlive their subcluster (stats are monotone); membership
        # just empties.
        for pool in self.pools.values():
            pool.members = sorted(
                n for n, p in node_pool.items() if p == pool.name
            )
        self._node_pool = node_pool

    def pool_for(self, initiator: str) -> ResourcePool:
        return self.pools[self._node_pool.get(initiator, GENERAL_POOL)]

    def clamp_demand(self, demand: Dict[str, int]) -> Dict[str, int]:
        """Cap per-node demand at capacity so a query asking for more
        shards than a node has slots still admits (it just serializes
        internally) instead of deadlocking the queue."""
        out: Dict[str, int] = {}
        for node_name in sorted(demand):
            resource = self.node_slots.get(node_name)
            if resource is None or resource.capacity <= 0:
                continue
            amount = min(int(demand[node_name]), resource.capacity)
            if amount > 0:
                out[node_name] = amount
        return out

    # -- admission ---------------------------------------------------------------

    def admit(self, demand: Dict[str, int], initiator: str) -> AdmissionTicket:
        """Synchronous admission: grant free slots now or refuse.

        There is no event loop to wait on in the synchronous query path,
        so busy slots raise :class:`AdmissionRejected` (``reason="busy"``)
        rather than blocking.
        """
        self.refresh()
        demand = self.clamp_demand(demand)
        pool = self.pool_for(initiator)
        self._check_draining(pool, initiator)
        busy = [
            node
            for node, amount in demand.items()
            if self.node_slots[node].available < amount
        ]
        if busy:
            pool.rejected_busy += 1
            self._dc_record(
                initiator, pool, "reject", "busy", sum(demand.values()), 0.0
            )
            raise AdmissionRejected(
                f"pool {pool.name!r}: slots busy on {sorted(busy)}",
                pool=pool.name,
                reason="busy",
            )
        for node, amount in demand.items():
            self.node_slots[node].in_use += amount
        return self._issue(pool, demand, 0.0, initiator)

    def enqueue(self, demand: Dict[str, int], initiator: str) -> PendingAdmission:
        """Queued admission for clock processes; see :class:`PendingAdmission`."""
        self.refresh()
        demand = self.clamp_demand(demand)
        pool = self.pool_for(initiator)
        self._check_draining(pool, initiator)
        if self.clock.now < pool.shed_until:
            # Breaker open: shed in O(1).  Waiters already in the queue
            # keep their place — a queued AcquireAll cannot be revoked
            # without stranding its blocked process — so shedding is an
            # arrival-side guarantee only.
            pool.sheds += 1
            self._dc_record(
                initiator, pool, "reject", "shed", sum(demand.values()), 0.0
            )
            raise AdmissionRejected(
                f"pool {pool.name!r}: shedding load until "
                f"t={pool.shed_until:.3f} (queue overflowed)",
                pool=pool.name,
                reason="shed",
            )
        if pool.queued >= pool.config.max_queue_depth:
            pool.rejected_queue_full += 1
            if pool.config.shed_cooldown_seconds > 0:
                pool.shed_until = (
                    self.clock.now + pool.config.shed_cooldown_seconds
                )
                pool.breaker_trips += 1
            self._dc_record(
                initiator, pool, "reject", "queue_full",
                sum(demand.values()), 0.0,
            )
            raise AdmissionRejected(
                f"pool {pool.name!r}: queue full "
                f"({pool.queued}/{pool.config.max_queue_depth})",
                pool=pool.name,
                reason="queue_full",
            )
        resources: List[Resource] = []
        for node in sorted(demand):
            resources.extend([self.node_slots[node]] * demand[node])
        pending = PendingAdmission(
            self, pool, demand, resources, self.clock.now, initiator
        )
        pool.queued += 1
        pool.queued_admissions += 1
        pool.peak_queue_depth = max(pool.peak_queue_depth, pool.queued)
        self.pending += 1
        self._waiting.append(pending)
        self._dc_record(
            initiator, pool, "queue", "", sum(demand.values()), 0.0
        )
        return pending

    def _check_draining(self, pool: ResourcePool, initiator: str = "") -> None:
        if not pool.draining:
            return
        pool.rejected_draining += 1
        self._dc_record(initiator, pool, "reject", "draining", 0, 0.0)
        raise AdmissionRejected(
            f"pool {pool.name!r}: draining (no new admissions)",
            pool=pool.name,
            reason="draining",
        )

    def set_draining(self, pool_name: str, draining: bool = True) -> None:
        """Mark a pool draining (admit nothing new, let tickets finish)
        or reopen it.  Unknown pools are created so a drain can be staged
        before the first admission ever touches the pool."""
        pool = self.pools.get(pool_name)
        if pool is None:
            pool = self.pools[pool_name] = ResourcePool(pool_name, self.config)
        pool.draining = draining

    def draining_nodes(self) -> List[str]:
        """Members of draining pools (initiator steering skips these)."""
        if not any(pool.draining for pool in self.pools.values()):
            return []
        self.refresh()
        out: List[str] = []
        for pool in self.pools.values():
            if pool.draining:
                out.extend(pool.members)
        return sorted(out)

    def release(self, ticket: AdmissionTicket) -> None:
        """Give a ticket's slots back; idempotent (finally-block safe)."""
        if ticket.released:
            return
        ticket.released = True
        del self.active[ticket.ticket_id]
        for node in sorted(ticket.demand):
            resource = self.node_slots.get(node)
            if resource is not None:
                resource.release(ticket.demand[node])

    def cancel_waiting(self) -> int:
        """Withdraw every still-queued admission (driver cleanup after a
        drained event loop; a starved waiter must not haunt later runs)."""
        stuck = list(self._waiting)
        for pending in stuck:
            pending.cancel()
        return len(stuck)

    def _issue(
        self,
        pool: ResourcePool,
        demand: Dict[str, int],
        wait: float,
        initiator: str = "",
    ) -> AdmissionTicket:
        ticket = AdmissionTicket(next(self._ticket_ids), pool.name, demand, wait)
        self.active[ticket.ticket_id] = ticket
        pool.admitted += 1
        if wait:
            pool.queue_wait_seconds += wait
        obs = self._obs()
        if obs is not None:
            obs.metrics.histogram("wm.queue_wait_seconds").observe(wait)
        self._dc_record(
            initiator, pool, "admit", "", sum(demand.values()), wait
        )
        return ticket

    # -- introspection (system tables, metrics, invariants) ----------------------

    def slots_in_use(self, node_name: str) -> int:
        resource = self.node_slots.get(node_name)
        return resource.in_use if resource is not None else 0

    def total_in_use(self) -> int:
        return sum(r.in_use for r in self.node_slots.values())

    def active_demand(self) -> int:
        """Total slots the live tickets claim to hold (invariant twin of
        :meth:`total_in_use`)."""
        return sum(t.total_slots for t in self.active.values())

    def pool_capacity(self, pool: ResourcePool) -> int:
        return sum(
            self.node_slots[n].capacity for n in pool.members if n in self.node_slots
        )

    def pool_in_use(self, pool: ResourcePool) -> int:
        return sum(
            self.node_slots[n].in_use for n in pool.members if n in self.node_slots
        )

    # -- metrics plumbing --------------------------------------------------------

    def _obs(self):
        obs = self.cluster.obs
        return obs if obs.enabled else None

    def _dc_record(
        self,
        initiator: str,
        pool: ResourcePool,
        decision: str,
        reason: str,
        slots: int,
        wait: float,
    ) -> None:
        """One row into ``dc_admission_decisions`` (no-op when disabled)."""
        obs = self._obs()
        if obs is not None:
            obs.dc.record(
                "dc_admission_decisions",
                initiator,
                (pool.name, decision, reason, int(slots), float(wait)),
            )
