"""The simulation's action vocabulary.

Every scenario step is one of these dataclasses.  Actions are *concrete*
— all parameters (which node, how many rows, what burst rate) are fixed
at generation time — so a recorded schedule replays exactly, and schedule
shrinking can drop steps without changing what the remaining steps do.

``apply(world)`` returns an outcome string for the trace:

* ``"ok"`` — the action ran;
* ``"skipped"`` — a precondition no longer holds (normal during replay of
  a shrunk schedule: the step that set the precondition was removed);
* ``"refused"`` — the cluster legitimately declined (shut down, or the
  action would destroy quorum/shard coverage);
* ``"gave_up_transient"`` — an injected S3 fault outlived the retry loop;
* ``"storage_unavailable"`` — the request landed in a declared S3 outage
  window and failed fast (degraded read-only mode);
* ``"paused_outage"`` — a maintenance action deferred itself because the
  cluster is degraded (services pause during outages);
* ``"shutdown"`` — the action triggered the cluster's self-shutdown.

An action raises :class:`InvariantViolation` only for genuine bugs: a
query answer diverging from the oracle, a pinned snapshot reading a
deleted file, or a revive failing after a clean shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import (
    CatalogError,
    ClusterError,
    NodeDown,
    ObjectNotFound,
    QuorumLost,
    ReviveError,
    ShardCoverageLost,
    StorageUnavailable,
    TransientStorageError,
)
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.sim.invariants import InvariantViolation
from repro.sim.oracle import rows_key
from repro.sql.parser import parse


@dataclass(frozen=True)
class CopyBatch:
    """COPY a deterministic batch of rows into the workload table."""

    key_base: int
    n: int

    name = "copy"

    def rows(self) -> List[Tuple[int, str, int]]:
        return [
            (k, f"g{k % 5}", (k * 7) % 101)
            for k in range(self.key_base, self.key_base + self.n)
        ]

    def detail(self) -> str:
        return f"base={self.key_base} n={self.n}"

    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        rows = self.rows()
        try:
            world.cluster.load(world.table, rows)
        except StorageUnavailable:
            # Degraded read-only mode: writes fail fast during a declared
            # outage, whole-statement, so the oracle must not apply either.
            return "storage_unavailable"
        except TransientStorageError:
            # Retries exhausted before the commit point: the statement
            # failed whole, so the oracle must not apply it either.  Any
            # files uploaded before the failure are protected from the
            # leak sweep by the writer's live instance-id prefix.
            return "gave_up_transient"
        except ClusterError:
            return "refused"
        world.oracle.load(world.table, rows)
        return "ok"


@dataclass(frozen=True)
class Query:
    """Run a SELECT on the chaos cluster and diff it against the oracle."""

    sql: str
    crunch: Optional[str] = None  # None | "hash" | "container"
    nodes_per_shard: int = 1

    name = "query"

    def detail(self) -> str:
        if self.crunch:
            return f"{self.sql} [crunch={self.crunch}x{self.nodes_per_shard}]"
        return self.sql

    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        options = {}
        if self.crunch:
            options = {"crunch": self.crunch, "nodes_per_shard": self.nodes_per_shard}
        try:
            actual = rows_key(world.cluster.query(self.sql, **options))
        except StorageUnavailable:
            # Outage + depot miss: the degraded cluster can only serve
            # depot-resident data, and this query needed more.
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "catalog-storage",
                world.seed,
                world.step,
                f"query {self.sql!r} read a missing object: {exc}",
            )
        expected = world.oracle.query_rows(self.sql)
        if actual != expected:
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"{self.sql!r}: cluster={actual[:4]} oracle={expected[:4]}",
            )
        return "ok"


@dataclass(frozen=True)
class FetchStorm:
    """Cold-depot fetch storm: clear every up node's depot, then drive the
    same full scan several times so the I/O scheduler's parallel batch path
    (dedupe, coalescing, peer fetch, prefetch) runs hot on every node at
    once.  Results are diffed against the oracle per round, and the
    scheduler's own mid-batch accounting feeds the ``io-batch-sanity``
    invariant (no double-fetch within a batch, depot capacity respected
    *during* parallel fetches)."""

    sql: str
    rounds: int = 2

    name = "fetch_storm"

    def detail(self) -> str:
        return f"{self.sql} x{self.rounds}"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # A cold-depot storm during an outage would only clear the
            # depot-resident data the degraded cluster can still serve.
            return "refused"
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return "refused"
        for name in up:
            cluster.nodes[name].cache.clear()
        expected = world.oracle.query_rows(self.sql)
        for _ in range(self.rounds):
            try:
                actual = rows_key(cluster.query(self.sql))
            except StorageUnavailable:
                return "storage_unavailable"
            except TransientStorageError:
                return "gave_up_transient"
            except ObjectNotFound as exc:
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"fetch storm {self.sql!r} read a missing object: {exc}",
                )
            if actual != expected:
                raise InvariantViolation(
                    "oracle-equivalence",
                    world.seed,
                    world.step,
                    f"storm {self.sql!r}: cluster={actual[:4]} "
                    f"oracle={expected[:4]}",
                )
        return "ok"


@dataclass(frozen=True)
class PushdownRace:
    """Race the server-side pushdown scan against the depot fetch it
    replaces.  Clear every up node's depot, run the statement with
    pushdown forced *on* (selects answer the scan while background
    hydration fills the depot), then immediately re-run with pushdown
    *off* (served by the just-hydrated depot).  Both answers are diffed
    against the oracle here; the on-vs-off comparison is additionally
    logged to ``world.pushdown_checks`` so the ``pushdown-digest-parity``
    invariant audits every race the campaign ran — and, via the SELECT
    dollar watermark it keeps, that bytes-scanned charges only ever
    accrue."""

    sql: str

    name = "pushdown_race"

    def detail(self) -> str:
        return self.sql

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # The race needs S3 reachable twice over: the cold pushdown leg
            # issues SELECTs and the hydration GETs behind them.
            return "refused"
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return "refused"
        for name in up:
            cluster.nodes[name].cache.clear()
        expected = world.oracle.query_rows(self.sql)
        results = {}
        for mode in ("on", "off"):
            try:
                results[mode] = rows_key(cluster.query(self.sql, pushdown=mode))
            except StorageUnavailable:
                return "storage_unavailable"
            except TransientStorageError:
                return "gave_up_transient"
            except ObjectNotFound as exc:
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"pushdown race {self.sql!r} read a missing object: {exc}",
                )
        world.note_pushdown_check(self.sql, results["on"], results["off"])
        for mode in ("on", "off"):
            if results[mode] != expected:
                raise InvariantViolation(
                    "oracle-equivalence",
                    world.seed,
                    world.step,
                    f"pushdown={mode} {self.sql!r}: "
                    f"cluster={results[mode][:4]} oracle={expected[:4]}",
                )
        return "ok"


@dataclass(frozen=True)
class DmlStatement:
    """A DELETE or UPDATE mirrored onto the oracle, row counts compared."""

    sql: str

    name = "dml"

    def detail(self) -> str:
        return self.sql

    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        try:
            affected = world.cluster.execute(self.sql)
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        except ClusterError:
            return "refused"
        expected = world.oracle.execute(self.sql)
        if _affected_rows(affected) != _affected_rows(expected):
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"{self.sql!r} affected {_affected_rows(affected)} rows, "
                f"oracle {_affected_rows(expected)}",
            )
        return "ok"


def _affected_rows(result) -> object:
    return getattr(result, "rows_affected", result)


@dataclass(frozen=True)
class Redesign:
    """Run the cost-based designer mid-campaign and apply its winning
    projections online: ingest the campaign's own recorded workload (plus
    a fixed probe set so early steps have something to design from),
    create the winning ``_dbd_v<n>`` projections, and atomically drop the
    versions they supersede.  The probes then re-run against the redesigned
    physical layout and are diffed against the oracle — each comparison is
    logged via ``world.note_redesign_check`` so the
    ``designer-digest-parity`` invariant audits every redesign the
    campaign ran.  A redesign must never change query answers, only the
    layouts that serve them.

    Parameter-free and draws nothing from the generator's RNG streams, so
    adding it to a menu cannot shift any other action's schedule.

    Outcome extends the vocabulary with ``"kept"``: the designer ran but
    the winning layouts already existed (idempotent re-run)."""

    name = "redesign"

    #: Fixed probe workload over the campaign table: an unfiltered count,
    #: a group-by, and a selective range scan — enough signal for sort and
    #: segmentation choices, and the post-apply parity checks.
    PROBES = (
        "select count(*) from {table}",
        "select g, sum(v) s from {table} group by g",
        "select sum(v) from {table} where k >= 1000",
    )

    def detail(self) -> str:
        return ""

    def apply(self, world) -> str:
        from repro.engine.designer import DatabaseDesigner

        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # Redesign creates and drops projections through commits; the
            # outage gate would reject them all.
            return "paused_outage"
        probes = [t.format(table=world.table) for t in self.PROBES]
        designer = DatabaseDesigner.for_cluster(cluster)
        designer.ingest_recorded(cluster)
        designer.add_workload(probes)
        try:
            run = designer.apply(cluster)
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            # A refresh load gave up mid-apply: the projection's txn never
            # committed, so the catalog is unchanged and any uploaded files
            # are protected by the writer's live instance-id prefix.
            return "gave_up_transient"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "catalog-storage",
                world.seed,
                world.step,
                f"redesign read a missing object: {exc}",
            )
        except (CatalogError, ClusterError):
            return "refused"
        for sql in probes:
            try:
                actual = rows_key(cluster.query(sql))
            except StorageUnavailable:
                return "storage_unavailable"
            except TransientStorageError:
                return "gave_up_transient"
            except ObjectNotFound as exc:
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"post-redesign probe {sql!r} read a missing object: {exc}",
                )
            expected = world.oracle.query_rows(sql)
            world.note_redesign_check(sql, actual, expected)
            if actual != expected:
                raise InvariantViolation(
                    "oracle-equivalence",
                    world.seed,
                    world.step,
                    f"post-redesign {sql!r}: cluster={actual[:4]} "
                    f"oracle={expected[:4]}",
                )
        return "ok" if run.created or run.dropped else "kept"


@dataclass(frozen=True)
class KillNode:
    """Take a node down, optionally losing its local disk (cache + logs)."""

    node: str
    lose_local_disk: bool = False

    name = "kill"

    def detail(self) -> str:
        return f"{self.node}{' -disk' if self.lose_local_disk else ''}"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        # Only kill if the cluster survives: quorum holds and every shard
        # keeps an up ACTIVE subscriber.  (The generator respects this too;
        # re-checking keeps shrunk-schedule replays viability-safe.)
        up_after = len(cluster.up_nodes()) - 1
        if up_after * 2 <= len(cluster.nodes):
            return "refused"
        for shard_id in cluster.shard_map.all_shard_ids():
            others = [
                n for n in cluster.active_up_subscribers(shard_id) if n != self.node
            ]
            if not others:
                return "refused"
        world.release_pins_touching(self.node)
        # A dead node's instance prefix no longer protects its in-flight
        # uploads; they are leaks until the next sweep runs.
        world.cleanup_completed = False
        try:
            cluster.kill_node(self.node, lose_local_disk=self.lose_local_disk)
        except (QuorumLost, ShardCoverageLost):
            return "shutdown"
        return "ok"


@dataclass(frozen=True)
class RecoverNode:
    """Restart a down node: metadata catch-up, re-subscription, cache warm."""

    node: str

    name = "recover"

    def detail(self) -> str:
        return self.node

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or target.is_up:
            return "skipped"
        if cluster.refresh_degraded():
            # Recovery re-subscribes through commits; deferring the whole
            # recovery beats leaving the node half-recovered when the
            # first commit is rejected by the outage gate.
            return "paused_outage"
        # Restart regenerates the node's instance id: objects under the old
        # prefix lose their in-flight protection until the next sweep.
        world.cleanup_completed = False
        try:
            cluster.recover_node(self.node)
        except TransientStorageError:
            # Cache warming gave up mid-recovery; the node is up but some
            # subscriptions may be stuck short of ACTIVE.  Coverage still
            # holds through the peers that let us kill this node at all.
            return "gave_up_transient"
        return "ok"


@dataclass(frozen=True)
class S3Burst:
    """An S3 throttling burst / transient-fault storm."""

    rate: float
    ops: int

    name = "s3_burst"

    def detail(self) -> str:
        return f"rate={self.rate} ops={self.ops}"

    def apply(self, world) -> str:
        world.cluster.shared.faults.begin_burst(self.rate, self.ops)
        return "ok"


@dataclass(frozen=True)
class Subscribe:
    """Subscribe a node to a shard (PENDING -> PASSIVE -> warm -> ACTIVE)."""

    node: str
    shard_id: int

    name = "subscribe"

    def detail(self) -> str:
        return f"{self.node}<-shard{self.shard_id}"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        try:
            cluster.subscribe(self.node, self.shard_id)
        except StorageUnavailable:
            return "storage_unavailable"
        except CatalogError:
            return "skipped"  # already subscribed / invalid transition
        except TransientStorageError:
            return "gave_up_transient"
        return "ok"


@dataclass(frozen=True)
class Unsubscribe:
    """Drop a node's subscription (REMOVING, verify coverage, drop)."""

    node: str
    shard_id: int

    name = "unsubscribe"

    def detail(self) -> str:
        return f"{self.node}-/->shard{self.shard_id}"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if self.shard_id == REPLICA_SHARD_ID:
            return "skipped"  # every node keeps the replica shard
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        state = cluster.any_up_node().catalog.state
        if (self.node, self.shard_id) not in state.subscriptions:
            return "skipped"
        others = [
            n
            for n in cluster.active_up_subscribers(self.shard_id)
            if n != self.node
        ]
        if not others:
            return "refused"
        try:
            cluster.unsubscribe(self.node, self.shard_id)
        except StorageUnavailable:
            return "storage_unavailable"
        except ShardCoverageLost:
            return "refused"
        except CatalogError:
            return "skipped"
        return "ok"


@dataclass(frozen=True)
class AddNode:
    """Scale out: add a node, balanced subscriptions, warmed cache."""

    node: str

    name = "add_node"

    def detail(self) -> str:
        return self.node

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if self.node in cluster.nodes:
            return "skipped"
        try:
            cluster.add_node(self.node)
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        return "ok"


@dataclass(frozen=True)
class RemoveNode:
    """Scale in: gracefully unsubscribe everywhere, then drop the node."""

    node: str

    name = "remove_node"

    def detail(self) -> str:
        return self.node

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        state = cluster.any_up_node().catalog.state
        shards = [s for (n, s), _ in state.subscriptions.items() if n == self.node]
        for shard_id in shards:
            others = [
                n
                for n in cluster.active_up_subscribers(shard_id)
                if n != self.node
            ]
            if not others:
                return "refused"
        world.release_pins_touching(self.node)
        world.cleanup_completed = False
        try:
            cluster.remove_node(self.node)
        except StorageUnavailable:
            return "storage_unavailable"
        except ShardCoverageLost:
            return "refused"
        return "ok"


@dataclass(frozen=True)
class PinSnapshot:
    """Open a long-running query: pin catalog snapshots and remember the
    oracle's answer; :class:`QueryPinned` must keep getting that answer no
    matter what commits, drops, or mergeouts happen in between."""

    tag: str
    sql: str

    name = "pin"

    def detail(self) -> str:
        return f"{self.tag}: {self.sql}"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if self.tag in world.pins:
            return "skipped"
        expected = world.oracle.query_rows(self.sql)
        session = cluster.create_session()
        world.pins[self.tag] = PinnedQuery(session, self.sql, expected)
        return "ok"


class PinnedQuery:
    """Book-keeping for one open snapshot: the session holding the pins,
    the SQL, and the answer frozen at pin time."""

    def __init__(self, session, sql: str, expected):
        self.session = session
        self.sql = sql
        self.expected = expected


@dataclass(frozen=True)
class QueryPinned:
    """Re-run a pinned query through its original snapshot."""

    tag: str

    name = "query_pinned"

    def detail(self) -> str:
        return self.tag

    def apply(self, world) -> str:
        pin = world.pins.get(self.tag)
        if pin is None:
            return "skipped"
        cluster = world.cluster
        if cluster.shut_down or any(
            name not in cluster.nodes or not cluster.nodes[name].is_up
            for name in pin.session.participants()
        ):
            world.release_pin(self.tag)
            return "stale_released"
        statement = parse(pin.sql)[0]
        try:
            actual = rows_key(
                cluster.query_statement(statement, session=pin.session)
            )
        except StorageUnavailable:
            return "storage_unavailable"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "pinned-read",
                world.seed,
                world.step,
                f"pinned snapshot v{pin.session.snapshots[pin.session.initiator].version} "
                f"read a deleted object: {exc}",
            )
        except TransientStorageError:
            return "gave_up_transient"
        if actual != pin.expected:
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"pinned {pin.sql!r} drifted: {actual[:4]} != {pin.expected[:4]}",
            )
        return "ok"


@dataclass(frozen=True)
class ReleasePin:
    """Finish a long-running query: unpin its snapshots."""

    tag: str

    name = "release_pin"

    def detail(self) -> str:
        return self.tag

    def apply(self, world) -> str:
        if self.tag not in world.pins:
            return "skipped"
        world.release_pin(self.tag)
        return "ok"


@dataclass(frozen=True)
class MaintenanceTick:
    """One round of the background services: catalog sync, cluster_info,
    reaper poll, leaked-file sweep.  Completing the sweep arms the
    no-leaked-objects invariant for the following checks."""

    checkpoint: bool = False

    name = "maintenance"

    def detail(self) -> str:
        return "checkpoint" if self.checkpoint else "sync"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # Maintenance pauses during an outage (every upload/delete
            # would be rejected) instead of burning error outcomes.
            return "paused_outage"
        try:
            cluster.sync_catalogs(include_checkpoint=self.checkpoint)
            cluster.write_cluster_info()
            cluster.reaper.poll()
            cluster.reaper.cleanup_leaked_files()
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        world.cleanup_completed = True
        return "ok"


@dataclass(frozen=True)
class Mergeout:
    """Run the mergeout coordinators over every shard."""

    max_jobs_per_shard: int = 2

    name = "mergeout"

    def detail(self) -> str:
        return f"max_jobs={self.max_jobs_per_shard}"

    def apply(self, world) -> str:
        from repro.tuple_mover.mergeout import MergeoutCoordinatorService

        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            return "paused_outage"
        try:
            MergeoutCoordinatorService(cluster).run_all(
                max_jobs_per_shard=self.max_jobs_per_shard
            )
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        return "ok"


@dataclass(frozen=True)
class AdvanceClock:
    """Move simulated time forward (lease aging, epoch advancement)."""

    dt: float

    name = "advance_clock"

    def detail(self) -> str:
        return f"dt={self.dt}"

    def apply(self, world) -> str:
        clock = world.clock
        clock.run(until=clock.now + self.dt)
        # Time passing is what ends an outage window; poll so the cluster
        # exits degraded mode at the first opportunity.
        world.cluster.refresh_degraded()
        return "ok"


@dataclass(frozen=True)
class ReviveCluster:
    """Gracefully shut the cluster down and revive it from shared storage
    alone — the ultimate catalog/storage durability check."""

    revive_seed: int

    name = "revive"

    def detail(self) -> str:
        return f"seed={self.revive_seed}"

    def apply(self, world) -> str:
        from repro.cluster.revive import revive

        cluster = world.cluster
        if cluster.shut_down:
            return "skipped"
        if cluster.shared.faults.burst_active:
            return "refused"  # don't shut down into a fault storm
        if cluster.refresh_degraded():
            return "refused"  # can't sync a final checkpoint into an outage
        if any(not n.is_up for n in cluster.nodes.values()):
            return "refused"  # revive from a clean, fully-up shutdown
        world.release_all_pins()
        try:
            cluster.graceful_shutdown()
        except TransientStorageError:
            return "gave_up_transient"
        try:
            new_cluster = revive(
                cluster.shared, clock=world.clock, seed=self.revive_seed
            )
        except TransientStorageError:
            return "gave_up_transient"
        except ReviveError as exc:
            # After a graceful shutdown (complete sync, expired lease) a
            # revive failure means durable state is broken — a real bug.
            raise InvariantViolation("revive", world.seed, world.step, str(exc))
        world.cluster = new_cluster
        world.cleanup_completed = False
        return "ok"


@dataclass(frozen=True)
class KillMidQuery:
    """Kill a participating node *mid-query* and require session-level
    failover to finish the query anyway.

    The session is created first (fixing the participant set), a
    survivable participant is killed, and the query is then executed
    through that doomed session with ``failover=True``.  The first attempt
    hits :class:`NodeDown`; the failover loop must re-select participants
    over the surviving up ACTIVE subscribers and return the oracle's
    answer.  A ``NodeDown`` escaping while coverage still holds is the
    ``query-failover`` invariant violation this action exists to catch.
    """

    sql: str

    name = "kill_mid_query"

    def detail(self) -> str:
        return self.sql

    def _survivable_victims(self, world, participants) -> List[str]:
        return _survivable_victims(world, participants)

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            return "refused"  # outage failures would mask the failover path
        try:
            session = cluster.create_session()
        except ClusterError:
            return "refused"
        try:
            participants = sorted(session.participants())
            # Prefer killing a non-initiator participant (the paper's
            # "participating node dies" case); fall back to the initiator.
            victims = self._survivable_victims(
                world, [p for p in participants if p != session.initiator]
            ) or self._survivable_victims(world, participants)
            if not victims:
                return "refused"
            victim = victims[0]
            expected = world.oracle.query_rows(self.sql)
            world.release_pins_touching(victim)
            world.cleanup_completed = False
            try:
                cluster.kill_node(victim)
            except (QuorumLost, ShardCoverageLost):
                return "shutdown"
            statement = parse(self.sql)[0]
            try:
                actual = rows_key(
                    cluster.query_statement(
                        statement, session=session, failover=True
                    )
                )
            except NodeDown as exc:
                if not cluster.uncovered_shards():
                    raise InvariantViolation(
                        "query-failover",
                        world.seed,
                        world.step,
                        f"{self.sql!r} failed with NodeDown ({exc}) although "
                        "surviving up ACTIVE subscribers cover every shard",
                    )
                return "shutdown"
            except StorageUnavailable:
                return "storage_unavailable"
            except TransientStorageError:
                return "gave_up_transient"
            except ObjectNotFound as exc:
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"failover query {self.sql!r} read a missing object: {exc}",
                )
            if actual != expected:
                raise InvariantViolation(
                    "oracle-equivalence",
                    world.seed,
                    world.step,
                    f"failover {self.sql!r}: cluster={actual[:4]} "
                    f"oracle={expected[:4]}",
                )
            return "ok"
        finally:
            session.release()


def _survivable_victims(world, participants) -> List[str]:
    """Participants the cluster can lose: quorum holds and every shard
    keeps another up ACTIVE subscriber."""
    cluster = world.cluster
    if (len(cluster.up_nodes()) - 1) * 2 <= len(cluster.nodes):
        return []
    out = []
    for name in participants:
        if not cluster.nodes[name].is_up:
            continue
        survivable = all(
            any(
                n != name
                for n in cluster.active_up_subscribers(shard_id)
            )
            for shard_id in cluster.shard_map.all_shard_ids()
        )
        if survivable:
            out.append(name)
    return out


@dataclass(frozen=True)
class S3Outage:
    """Declare a sustained S3 outage window (Taurus-style degradation).

    Every request fails fast with :class:`StorageUnavailable` until the
    sim clock passes the window's end; the cluster drops into degraded
    read-only mode, and later steps (clock advances, commits, service
    runs) poll it back out.  Entry/exit pairing is checked by the
    ``degraded-pairing`` invariant after every step.
    """

    seconds: float

    name = "s3_outage"

    def detail(self) -> str:
        return f"seconds={self.seconds}"

    def apply(self, world) -> str:
        cluster = world.cluster
        faults = cluster.shared.faults
        if faults.outage_active:
            return "skipped"  # already inside a window
        faults.begin_outage(self.seconds)
        # Enter degraded mode immediately; exit happens when something
        # polls after the window lapses.
        cluster.refresh_degraded()
        return "ok"


@dataclass(frozen=True)
class QueryStorm:
    """Concurrent closed-loop burst through the admission-controlled path.

    Spawns ``clients`` sessions as sim-clock processes, each looping
    ``requests_per_client`` queries: queue for execution slots, run the
    real query path, hold the slots for the modeled service time.  Every
    successful answer is diffed against the oracle (concurrency must not
    change answers), and the ``wm-slot-accounting`` invariant then checks
    the pools drained to zero.
    """

    sqls: Tuple[str, ...]
    clients: int
    requests_per_client: int

    name = "query_storm"

    def detail(self) -> str:
        return (
            f"{self.clients} clients x {self.requests_per_client} reqs "
            f"over {len(self.sqls)} statements"
        )

    def apply(self, world) -> str:
        from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # Degraded read-only mode: a storm would just fail fast N
            # times; the single-query action already exercises that path.
            return "refused"
        expected = {sql.strip(): world.oracle.query_rows(sql) for sql in self.sqls}
        workload = ClosedLoopWorkload(
            statements=self.sqls,
            clients=self.clients,
            requests_per_client=self.requests_per_client,
            seed=world.seed * 7919 + world.step,
        )
        result = run_closed_loop(cluster, workload, result_key=rows_key)
        for record in result.records:
            if record.outcome == "ok":
                want = expected[record.sql]
                if record.digest != want:
                    raise InvariantViolation(
                        "oracle-equivalence",
                        world.seed,
                        world.step,
                        f"storm {record.sql!r} (client {record.client}): "
                        f"cluster={record.digest[:4]} oracle={want[:4]}",
                    )
            elif record.outcome == "error:ObjectNotFound":
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"storm {record.sql!r} (client {record.client}) read a "
                    f"missing object",
                )
        if result.completed:
            return "ok"
        outcomes = {r.outcome for r in result.records}
        if "error:StorageUnavailable" in outcomes:
            return "storage_unavailable"
        if "error:TransientStorageError" in outcomes:
            return "gave_up_transient"
        return "refused"


@dataclass(frozen=True)
class AutoscaleTick:
    """One autoscaler control-loop tick: repair, sample, decide, actuate.

    The first tick of a campaign lazily attaches an
    :class:`~repro.autoscale.Autoscaler` with deliberately hair-trigger
    thresholds (single-vote hysteresis, zero cooldown, tiny wait target)
    so short campaigns reliably reach scale-out, scale-in, hibernate and
    revive — the ``autoscale-safety`` invariant then audits the actuator
    after every step.  The action takes no parameters and consumes no
    generator-RNG draws, so adding it to a menu cannot shift any other
    action's schedule.

    Outcome extends the vocabulary with the decision taken: ``"ok"`` for
    a hold, else the action name (``scale_out`` | ``scale_in`` |
    ``hibernate`` | ``revive``).
    """

    name = "autoscale_tick"

    def detail(self) -> str:
        return ""

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # The real service pauses during outages (skipped_outage);
            # mirror that here rather than burning actuator errors.
            return "paused_outage"
        scaler = getattr(world, "autoscaler", None)
        if scaler is None:
            from repro.autoscale import Autoscaler, PolicyConfig

            scaler = Autoscaler(
                cluster,
                config=PolicyConfig(
                    target_wait_seconds=0.05,
                    scale_out_pressure=0.1,
                    scale_in_pressure=0.05,
                    up_votes=1,
                    down_votes=2,
                    hibernate_idle_votes=2,
                    cooldown_seconds=0.0,
                    min_nodes=0,
                    max_nodes=2,
                    scale_step=1,
                ),
            )
            world.autoscaler = scaler
        before = set(cluster.nodes)
        try:
            decision = scaler.run()
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        removed = [n for n in sorted(before) if n not in cluster.nodes]
        for name in removed:
            world.release_pins_touching(name)
        if removed or set(cluster.nodes) - before:
            # Topology changed: the live-instance-prefix set a completed
            # leaked-file sweep was judged against is stale.
            world.cleanup_completed = False
        return "ok" if decision.action == "hold" else decision.action


# -- overload probes -----------------------------------------------------------
#
# The four probes below are the doctor's scenario pack: each injects one
# overload signature (noisy neighbor, depot stampede, throttling hotspot,
# mid-query straggler), runs a real query through it, and — when the
# injected component actually dominated the recorded latency (more than
# half of it) — logs ``(request_id, expected cause)`` via
# ``world.note_doctor_probe``.  Tests replay those probes through
# :func:`repro.obs.doctor.diagnose` and require the verdict to match: the
# probe judges dominance from the raw RequestRecord fields, the doctor
# from its own breakdown, so agreement exercises the whole recording
# pipeline end to end.  Correctness is still oracle-diffed like any other
# query action.


def _request_mark(world) -> int:
    """High-water request id before a probe runs (0 when none recorded)."""
    obs = world.cluster.obs
    if not obs.enabled or not obs.requests:
        return 0
    return obs.requests[-1].request_id


def _requests_since(world, mark: int) -> List:
    obs = world.cluster.obs
    if not obs.enabled:
        return []
    return [r for r in obs.requests if r.request_id > mark]


@dataclass(frozen=True)
class NoisyNeighborProbe(QueryStorm):
    """A noisy-neighbor tenant: the :class:`QueryStorm` closed-loop burst,
    sized to saturate the execution-slot pools so late arrivals queue.
    Any storm request whose admission queue wait exceeded half its
    recorded latency is logged as a ``queue wait`` doctor probe."""

    name = "noisy_neighbor"

    def apply(self, world) -> str:
        mark = _request_mark(world)
        outcome = QueryStorm.apply(self, world)
        queued = [
            r
            for r in _requests_since(world, mark)
            if r.queue_wait_seconds > r.duration_seconds / 2
        ]
        if queued:
            worst = max(
                queued, key=lambda r: (r.queue_wait_seconds, r.request_id)
            )
            world.note_doctor_probe(worst.request_id, "queue wait")
        return outcome


@dataclass(frozen=True)
class DepotStampedeProbe:
    """A thundering-herd depot stampede: clear every up node's depot, then
    run a full scan cold — every container read misses the depot and goes
    to shared storage.  When those shared-storage seconds dominated the
    recorded latency, the request is logged as a ``depot misses`` probe."""

    sql: str

    name = "depot_stampede"

    def detail(self) -> str:
        return self.sql

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # A degraded cluster can only serve depot-resident data;
            # clearing the depots would just manufacture failures.
            return "refused"
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return "refused"
        for name in up:
            cluster.nodes[name].cache.clear()
        mark = _request_mark(world)
        try:
            actual = rows_key(cluster.query(self.sql))
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "catalog-storage",
                world.seed,
                world.step,
                f"stampede {self.sql!r} read a missing object: {exc}",
            )
        expected = world.oracle.query_rows(self.sql)
        if actual != expected:
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"stampede {self.sql!r}: cluster={actual[:4]} "
                f"oracle={expected[:4]}",
            )
        for record in _requests_since(world, mark):
            if (
                record.depot_misses > 0
                and record.storage_io_seconds > record.duration_seconds / 2
            ):
                world.note_doctor_probe(record.request_id, "depot misses")
                break
        return "ok"


@dataclass(frozen=True)
class HotShardThrottleProbe:
    """A skewed-shard hotspot: clear the depots (so the query must hit
    shared storage), then declare a throttling burst and run the query
    through it.  The retry loop's exponential backoff accrues against the
    request; when that backoff dominated the recorded latency, the
    request is logged as a ``throttling`` probe."""

    sql: str
    rate: float
    ops: int

    name = "hot_shard_throttle"

    def detail(self) -> str:
        return f"{self.sql} [rate={self.rate} ops={self.ops}]"

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            return "refused"
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return "refused"
        for name in up:
            cluster.nodes[name].cache.clear()
        expected = world.oracle.query_rows(self.sql)
        cluster.shared.faults.begin_burst(self.rate, self.ops)
        mark = _request_mark(world)
        try:
            actual = rows_key(cluster.query(self.sql))
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "catalog-storage",
                world.seed,
                world.step,
                f"throttle probe {self.sql!r} read a missing object: {exc}",
            )
        if actual != expected:
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"throttle probe {self.sql!r}: cluster={actual[:4]} "
                f"oracle={expected[:4]}",
            )
        for record in _requests_since(world, mark):
            if (
                record.retries > 0
                and record.retry_backoff_seconds > record.duration_seconds / 2
            ):
                world.note_doctor_probe(record.request_id, "throttling")
                break
        return "ok"


@dataclass(frozen=True)
class StragglerFailoverProbe:
    """A slow-node straggler: warm the depot with one clean run of the
    query, then kill a survivable participant mid-query and require
    session failover to finish it.  The warm depot keeps storage I/O out
    of the retried attempt, so the failover backoff penalty is the
    latency story; when it dominated, the request is logged as a
    ``failover backoff`` probe."""

    sql: str

    name = "straggler_failover"

    def detail(self) -> str:
        return self.sql

    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            return "refused"
        expected = world.oracle.query_rows(self.sql)
        try:
            warm = rows_key(cluster.query(self.sql))
        except StorageUnavailable:
            return "storage_unavailable"
        except TransientStorageError:
            return "gave_up_transient"
        except ObjectNotFound as exc:
            raise InvariantViolation(
                "catalog-storage",
                world.seed,
                world.step,
                f"straggler warmup {self.sql!r} read a missing object: {exc}",
            )
        if warm != expected:
            raise InvariantViolation(
                "oracle-equivalence",
                world.seed,
                world.step,
                f"straggler warmup {self.sql!r}: cluster={warm[:4]} "
                f"oracle={expected[:4]}",
            )
        try:
            session = cluster.create_session()
        except ClusterError:
            return "refused"
        try:
            participants = sorted(session.participants())
            victims = _survivable_victims(
                world, [p for p in participants if p != session.initiator]
            ) or _survivable_victims(world, participants)
            if not victims:
                return "refused"
            victim = victims[0]
            world.release_pins_touching(victim)
            world.cleanup_completed = False
            try:
                cluster.kill_node(victim)
            except (QuorumLost, ShardCoverageLost):
                return "shutdown"
            mark = _request_mark(world)
            statement = parse(self.sql)[0]
            try:
                actual = rows_key(
                    cluster.query_statement(
                        statement,
                        session=session,
                        request_text=self.sql,
                        failover=True,
                    )
                )
            except NodeDown as exc:
                if not cluster.uncovered_shards():
                    raise InvariantViolation(
                        "query-failover",
                        world.seed,
                        world.step,
                        f"{self.sql!r} failed with NodeDown ({exc}) although "
                        "surviving up ACTIVE subscribers cover every shard",
                    )
                return "shutdown"
            except StorageUnavailable:
                return "storage_unavailable"
            except TransientStorageError:
                return "gave_up_transient"
            except ObjectNotFound as exc:
                raise InvariantViolation(
                    "catalog-storage",
                    world.seed,
                    world.step,
                    f"straggler query {self.sql!r} read a missing object: {exc}",
                )
            if actual != expected:
                raise InvariantViolation(
                    "oracle-equivalence",
                    world.seed,
                    world.step,
                    f"straggler {self.sql!r}: cluster={actual[:4]} "
                    f"oracle={expected[:4]}",
                )
            for record in _requests_since(world, mark):
                if (
                    record.failover_backoff_seconds
                    > record.duration_seconds / 2
                ):
                    world.note_doctor_probe(
                        record.request_id, "failover backoff"
                    )
                    break
            return "ok"
        finally:
            session.release()
