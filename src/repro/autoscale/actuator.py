"""Topology actuation: the multi-step transitions behind each decision.

Every autoscale action is a *sequence* of cluster operations, any of
which can fail mid-flight (a commit hits an S3 outage, a node dies while
subscribing).  The actuator's safety argument rests on three rules:

1. **Monotone names.** Managed nodes are named ``<prefix>0, <prefix>1,
   ...`` from a counter that never rewinds, so a retried scale-out can
   never collide with the debris of a failed one.
2. **Drain before remove.** Scale-in marks the managed pool draining
   (new admissions are refused and sessions are steered elsewhere) and
   only removes a victim once its slot count is zero — which the
   ``wm-slot-accounting`` invariant guarantees happens at rest.  A
   removal therefore never yanks slots from under a running query.
3. **Repair first.** Every control-loop tick starts by finishing what a
   previous tick left half-done: partially added nodes are removed along
   the one Figure-4 walk to no subscription (``subscriptions.retire``:
   ACTIVE goes REMOVING behind the coverage check, every state then
   drops), and drained victims whose slots have emptied are removed.  Chaos can
   interrupt any step; it can only ever leave work for the next tick.

Hibernation persists a manifest to shared storage *before* draining, so
a crash mid-hibernate can always be revived from the newest manifest —
the same latest-sequenced-object-wins discipline as ``cluster_info``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster import subscriptions
from repro.cluster.node import has_quorum
from repro.errors import ReproError
from repro.obs.metrics import Ledger
from repro.shared_storage.api import retrying

#: The managed subcluster's name, and its nodes' name prefix.
BURST_SUBCLUSTER = "burst"

#: Actuation events kept for ``v_monitor.autoscale_events`` (oldest dropped).
MAX_EVENTS = 512

#: Shared-storage prefix for hibernation manifests.
HIBERNATE_PREFIX = "autoscale_hibernate_"


@dataclass(frozen=True)
class AutoscaleEvent(Ledger):
    """One actuation step, for ``v_monitor.autoscale_events``."""

    event_id: int
    at_seconds: float
    action: str
    subcluster: str
    node: str
    outcome: str
    detail: str = ""


class TopologyActuator:
    """Sequences scale-out / scale-in / hibernate / revive against one
    managed subcluster, tolerating interruption at every step."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: Never-reused suffix for managed node names (safety rule 1).
        self._next_node = 0
        #: Drained victims awaiting an idle slot count (safety rule 2).
        self.pending_removals: List[str] = []
        #: Nodes a failed scale-out may have left half-created.
        self.incomplete: List[str] = []
        self.hibernated = False
        #: Hibernate decided, members still draining.
        self.hibernating = False
        self.events: List[AutoscaleEvent] = []
        self._event_ids = 0
        #: Node names removed by the most recent actuation pass — the sim
        #: action uses this to release pins touching removed nodes.
        self.last_removed: List[str] = []

    # -- introspection -----------------------------------------------------------

    def members(self) -> List[str]:
        return sorted(self.cluster.subclusters.get(BURST_SUBCLUSTER, set()))

    def size(self) -> int:
        """Members not already condemned to removal."""
        condemned = set(self.pending_removals)
        return sum(1 for m in self.members() if m not in condemned)

    def _event(self, action: str, node: str = "", outcome: str = "ok",
               detail: str = "") -> None:
        self._event_ids += 1
        self.events.append(
            AutoscaleEvent(
                event_id=self._event_ids,
                at_seconds=self.cluster.clock.now,
                action=action,
                subcluster=BURST_SUBCLUSTER,
                node=node,
                outcome=outcome,
                detail=detail,
            )
        )
        del self.events[:-MAX_EVENTS]

    # -- scale out ---------------------------------------------------------------

    def scale_out(self, count: int) -> List[str]:
        """Add ``count`` nodes to the managed subcluster, each subscribed
        to balanced shards and depot-warmed from peers.  A node that fails
        partway is queued for repair; the others still land."""
        added: List[str] = []
        self.hibernated = False
        self.hibernating = False
        for _ in range(max(0, count)):
            # An actuator started on a cluster that already has ``burst<n>``
            # nodes (a revive brings a previous scaler's back as ordinary
            # nodes) must not take — and then "repair" — one of those names.
            while f"{BURST_SUBCLUSTER}{self._next_node}" in self.cluster.nodes:
                self._next_node += 1
            name = f"{BURST_SUBCLUSTER}{self._next_node}"
            self._next_node += 1
            try:
                self.cluster.add_node(
                    name, warm_cache=True, subcluster=BURST_SUBCLUSTER
                )
                added.append(name)
                self._event("scale_out", node=name)
            except ReproError as exc:
                if name in self.cluster.nodes:
                    self.incomplete.append(name)
                self._event(
                    "scale_out",
                    node=name,
                    outcome=f"error:{type(exc).__name__}",
                    detail=str(exc),
                )
        self.cluster.admission.refresh()
        return added

    # -- scale in ----------------------------------------------------------------

    def scale_in(self, count: int) -> List[str]:
        """Begin removing up to ``count`` members: newest first, up only,
        never below quorum or shard coverage.  The victims drain through
        admission; :meth:`complete_removals` finishes the job once their
        slots are empty."""
        cluster = self.cluster
        condemned = set(self.pending_removals)
        candidates = [
            m
            for m in reversed(self.members())
            if m not in condemned and cluster.nodes[m].is_up
        ]
        victims: List[str] = []
        for name in candidates:
            if len(victims) >= count:
                break
            if self._removal_safe(victims + [name]):
                victims.append(name)
        if not victims:
            self._event("scale_in", outcome="refused",
                        detail="no safely removable member")
            return []
        cluster.admission.set_draining(BURST_SUBCLUSTER, True)
        for name in victims:
            self.pending_removals.append(name)
            self._event("scale_in", node=name, outcome="draining")
        self.complete_removals()
        return victims

    def _removal_safe(self, victims: List[str]) -> bool:
        """Would removing ``victims`` keep quorum and shard coverage?"""
        cluster = self.cluster
        gone = set(victims)
        up_after = sum(
            1 for n in cluster.nodes.values() if n.is_up and n.name not in gone
        )
        total_after = len(cluster.nodes) - len(gone)
        return has_quorum(up_after, total_after) and not subscriptions.uncovered_without(
            cluster, gone
        )

    def complete_removals(self) -> List[str]:
        """Remove drained victims whose slots have emptied; reopen the
        pool once nothing is left draining.  Re-entrant and chaos-safe:
        a victim that is still busy (or whose removal raises) simply
        stays queued for the next tick."""
        cluster = self.cluster
        removed: List[str] = []
        for name in list(self.pending_removals):
            if name not in cluster.nodes:
                self.pending_removals.remove(name)
                continue
            if cluster.admission.slots_in_use(name) > 0:
                continue
            try:
                self._force_remove(name)
            except ReproError as exc:
                self._event(
                    "remove",
                    node=name,
                    outcome=f"error:{type(exc).__name__}",
                    detail=str(exc),
                )
                continue
            self.pending_removals.remove(name)
            removed.append(name)
            self._event("remove", node=name)
        if not self.pending_removals:
            if self.hibernating and not self.members():
                self.hibernated = True
                self.hibernating = False
                self._event("hibernate", outcome="ok", detail="subcluster empty")
            if not self.hibernating:
                cluster.admission.set_draining(BURST_SUBCLUSTER, False)
        self.last_removed = removed
        return removed

    def _force_remove(self, name: str) -> None:
        """Remove a node whatever state its subscriptions are in, along
        Figure-4-legal walks (see module docstring, rule 3)."""
        self.cluster.remove_node(name)
        self.cluster.admission.refresh()

    # -- repair ------------------------------------------------------------------

    def repair(self) -> int:
        """Roll back nodes a failed scale-out left half-created.  Runs at
        the top of every tick; anything that still fails stays queued."""
        fixed = 0
        for name in list(self.incomplete):
            if name not in self.cluster.nodes:
                self.incomplete.remove(name)
                continue
            try:
                self._force_remove(name)
            except ReproError as exc:
                self._event(
                    "repair",
                    node=name,
                    outcome=f"error:{type(exc).__name__}",
                    detail=str(exc),
                )
                continue
            self.incomplete.remove(name)
            fixed += 1
            self._event("repair", node=name, detail="rolled back partial add")
        return fixed

    # -- hibernate / revive ------------------------------------------------------

    def _manifest_name(self) -> str:
        prefix = f"{HIBERNATE_PREFIX}{BURST_SUBCLUSTER}_"
        existing = retrying(
            lambda: self.cluster.shared.list(prefix), self.cluster.shared.metrics
        )
        next_seq = 1
        if existing:
            last = existing[-1][len(prefix):].split(".")[0]
            next_seq = int(last) + 1
        return f"{prefix}{next_seq:012d}.json"

    def hibernate(self) -> bool:
        """Put the managed subcluster to sleep: persist a manifest, then
        drain and remove every member.  The manifest goes first so a
        crash anywhere later still leaves a revivable record."""
        if self.hibernated or self.hibernating:
            return False
        members = self.members()
        if not members:
            return False
        doc = {
            "subcluster": BURST_SUBCLUSTER,
            "node_count": len(members),
            "at_seconds": self.cluster.clock.now,
        }
        name = self._manifest_name()
        retrying(
            lambda: self.cluster.shared.write(
                name, json.dumps(doc).encode("utf-8")
            ),
            self.cluster.shared.metrics,
        )
        self._event("hibernate", outcome="draining",
                    detail=f"manifest {name}, {len(members)} nodes")
        self.hibernating = True
        self.cluster.admission.set_draining(BURST_SUBCLUSTER, True)
        condemned = set(self.pending_removals)
        for member in reversed(members):
            if member not in condemned:
                self.pending_removals.append(member)
        self.complete_removals()
        return True

    def read_manifest(self) -> Optional[Dict]:
        """Newest hibernation manifest, or None.  The *listing* is an
        out-of-band peek (crash-recovery metadata, like revive's
        discovery scan); the read is a charged request."""
        prefix = f"{HIBERNATE_PREFIX}{BURST_SUBCLUSTER}_"
        names = self.cluster.shared.peek(prefix)
        if not names:
            return None
        data = retrying(
            lambda: self.cluster.shared.read(names[-1]),
            self.cluster.shared.metrics,
        )
        return json.loads(data.decode("utf-8"))

    def revive(self, default_count: int = 1) -> List[str]:
        """Wake the managed subcluster.  Mid-hibernate (members still
        draining) the drain is simply aborted — nothing was unsubscribed
        yet, so cancelling the removals restores full service instantly.
        From a completed hibernate, scale back out to the manifest's
        recorded size (falling back to ``default_count``)."""
        if self.hibernating and self.pending_removals:
            aborted = list(self.pending_removals)
            self.pending_removals.clear()
            self.hibernating = False
            self.cluster.admission.set_draining(BURST_SUBCLUSTER, False)
            self._event("revive", outcome="ok",
                        detail=f"aborted in-flight hibernate of {aborted}")
            return []
        count = default_count
        try:
            manifest = self.read_manifest()
        except ReproError:
            manifest = None
        if manifest is not None:
            count = int(manifest.get("node_count", default_count))
        self.hibernated = False
        self.hibernating = False
        self.cluster.admission.set_draining(BURST_SUBCLUSTER, False)
        want = max(0, count - self.size())
        self._event("revive", detail=f"target {count} nodes")
        return self.scale_out(want)
