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
* a storage outcome from :data:`STORAGE_OUTCOMES` — the statement failed
  whole on shared storage (see :func:`storage_outcomes`);
* ``"paused_outage"`` — a maintenance action deferred itself because the
  cluster is degraded (services pause during outages);
* ``"shutdown"`` — the action triggered the cluster's self-shutdown.

An action raises :class:`InvariantViolation` only for genuine bugs.  Every
SELECT goes through :meth:`SimWorld.checked_read`, the one place a wrong
answer, a read of a missing file or a failover that should have worked
becomes a violation; a revive failing after a clean shutdown is the
other.
"""

from __future__ import annotations

import functools
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
from repro.cluster import subscriptions
from repro.cluster.node import has_quorum
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.sharding.subscription import shards_of
from repro.sim.oracle import rows_key

#: The one storage-error table, for reads and writes alike.  Both mean the
#: statement failed *whole* — nothing committed, so the oracle must not
#: apply it either, and any files uploaded before the failure are
#: protected from the leak sweep by the writer's live instance-id prefix.
STORAGE_OUTCOMES = (
    # The request landed in a declared S3 outage window and failed fast:
    # degraded read-only mode rejects writes, and serves only the reads
    # the depots can answer.
    (StorageUnavailable, "storage_unavailable"),
    # An injected S3 fault outlived the retry loop.
    (TransientStorageError, "gave_up_transient"),
)


def storage_outcomes(*errors):
    """Decorator for ``apply``: a storage error escaping the action becomes
    its :data:`STORAGE_OUTCOMES` outcome.  ``errors`` narrows the table to
    the classes the action is *allowed* to meet; the other one keeps
    crashing the campaign, because the action's own gate (e.g. deferring
    to ``paused_outage``) is supposed to make it impossible."""
    table = [row for row in STORAGE_OUTCOMES if not errors or row[0] in errors]
    caught = tuple(error for error, _ in table)

    def decorate(apply):
        @functools.wraps(apply)
        def guarded(self, world) -> str:
            try:
                return apply(self, world)
            except caught as exc:
                return next(o for error, o in table if isinstance(exc, error))

        return guarded

    return decorate


def cold_depots(world) -> bool:
    """The cold-depot step: clear every up node's depot.  False (the
    caller reports ``refused``) when the cluster is shut down, has no up
    node, or is degraded — an outage-time cluster can only serve
    depot-resident data, so clearing it would just manufacture failures."""
    cluster = world.cluster
    if cluster.shut_down or cluster.refresh_degraded():
        return False
    up = cluster.up_nodes()
    for node in up:
        node.cache.clear()
    return bool(up)


def survivable_losses(cluster, names) -> List[str]:
    """The one survivability rule: which of ``names`` the cluster can lose
    — the node is up, quorum holds without it, and every shard stays
    covered.  The generator's kill gate, ``kill`` and the mid-query
    victims all ask here."""
    if not has_quorum(len(cluster.up_nodes()) - 1, len(cluster.nodes)):
        return []
    return [
        name
        for name in names
        if cluster.nodes[name].is_up
        and not subscriptions.uncovered_without(cluster, [name])
    ]


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

    @storage_outcomes()
    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        rows = self.rows()
        try:
            world.cluster.load(world.table, rows)
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

    @storage_outcomes()
    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        options = {}
        if self.crunch:
            options = {"crunch": self.crunch, "nodes_per_shard": self.nodes_per_shard}
        # During an outage only depot-resident data can be served; a query
        # that needed more fails fast (the storage outcome).
        world.checked_read(self.sql, **options)
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

    @storage_outcomes()
    def apply(self, world) -> str:
        if not cold_depots(world):
            return "refused"
        expected = world.oracle.query_rows(self.sql)
        for _ in range(self.rounds):
            world.checked_read(self.sql, expected=expected)
        return "ok"


@dataclass(frozen=True)
class PushdownRace:
    """Race the server-side pushdown scan against the depot fetch it
    replaces.  Clear every up node's depot, run the statement with
    pushdown forced *on* (selects answer the scan while background
    hydration fills the depot), then immediately re-run with pushdown
    *off* (served by the just-hydrated depot).  The pushdown answer is
    held to the oracle's and the depot answer to the pushdown one; that
    on-vs-off comparison is also logged to ``world.pushdown_checks`` so
    the ``pushdown-digest-parity`` invariant audits every race the
    campaign ran — and, via the SELECT dollar watermark it keeps, that
    bytes-scanned charges only ever accrue."""

    sql: str

    name = "pushdown_race"

    def detail(self) -> str:
        return self.sql

    @storage_outcomes()
    def apply(self, world) -> str:
        # The race needs S3 reachable twice over: the cold pushdown leg
        # issues SELECTs and the hydration GETs behind them.
        if not cold_depots(world):
            return "refused"
        pushed = world.checked_read(self.sql, pushdown="on")
        world.checked_read(
            self.sql, expected=pushed, parity_log=world.pushdown_checks, pushdown="off"
        )
        return "ok"


@dataclass(frozen=True)
class DmlStatement:
    """A DELETE or UPDATE mirrored onto the oracle, row counts compared."""

    sql: str

    name = "dml"

    def detail(self) -> str:
        return self.sql

    @storage_outcomes()
    def apply(self, world) -> str:
        if world.cluster.shut_down:
            return "refused"
        try:
            affected = world.cluster.execute(self.sql)
        except ClusterError:
            return "refused"
        expected = world.oracle.execute(self.sql)
        world.expect_equal(f"rows affected by {self.sql!r}", affected, expected)
        return "ok"


@dataclass(frozen=True)
class Redesign:
    """Run the cost-based designer mid-campaign and apply its winning
    projections online: ingest the campaign's own recorded workload (plus
    a fixed probe set so early steps have something to design from),
    create the winning ``_dbd_v<n>`` projections, and atomically drop the
    versions they supersede.  The probes then re-run against the redesigned
    physical layout and are diffed against the oracle — each comparison is
    logged to ``world.redesign_checks`` so the
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

    @storage_outcomes()
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
            # A refresh load giving up mid-apply leaves the catalog
            # unchanged: the projection's txn never committed.
            run = designer.apply(cluster)
        except ObjectNotFound as exc:
            raise world.violation(
                "catalog-storage", f"redesign read a missing object: {exc}"
            )
        except (CatalogError, ClusterError):
            return "refused"
        for sql in probes:
            world.checked_read(sql, parity_log=world.redesign_checks)
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
        # The generator respects the survivability rule too; re-checking
        # keeps shrunk-schedule replays viability-safe.
        if not survivable_losses(cluster, [self.node]):
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

    # Cache warming can give up mid-recovery: the node is then up but some
    # subscriptions may be stuck short of ACTIVE; coverage still holds
    # through the peers that let us kill this node at all.  An outage
    # cannot be met here — the gate below defers to ``paused_outage``.
    @storage_outcomes(TransientStorageError)
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
        cluster.recover_node(self.node)
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

    @storage_outcomes()
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        try:
            cluster.subscribe(self.node, self.shard_id)
        except CatalogError:
            return "skipped"  # already subscribed / invalid transition
        return "ok"


@dataclass(frozen=True)
class Unsubscribe:
    """Drop a node's subscription (REMOVING, verify coverage, drop)."""

    node: str
    shard_id: int

    name = "unsubscribe"

    def detail(self) -> str:
        return f"{self.node}-/->shard{self.shard_id}"

    @storage_outcomes(StorageUnavailable)
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if self.shard_id == REPLICA_SHARD_ID:
            return "skipped"  # every node keeps the replica shard
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        if self.shard_id not in shards_of(subscriptions.current(cluster), self.node):
            return "skipped"
        if subscriptions.uncovered_without(cluster, [self.node], [self.shard_id]):
            return "refused"
        try:
            cluster.unsubscribe(self.node, self.shard_id)
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

    @storage_outcomes()
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if self.node in cluster.nodes:
            return "skipped"
        cluster.add_node(self.node)
        return "ok"


@dataclass(frozen=True)
class RemoveNode:
    """Scale in: gracefully unsubscribe everywhere, then drop the node."""

    node: str

    name = "remove_node"

    def detail(self) -> str:
        return self.node

    @storage_outcomes(StorageUnavailable)
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        target = cluster.nodes.get(self.node)
        if target is None or not target.is_up:
            return "skipped"
        shards = shards_of(subscriptions.current(cluster), self.node)
        if subscriptions.uncovered_without(cluster, [self.node], shards):
            return "refused"
        world.release_pins_touching(self.node)
        world.cleanup_completed = False
        try:
            cluster.remove_node(self.node)
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

    @storage_outcomes()
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
        world.checked_read(
            pin.sql, expected=pin.expected, missing="pinned-read", session=pin.session
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

    @storage_outcomes()
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # Maintenance pauses during an outage (every upload/delete
            # would be rejected) instead of burning error outcomes.
            return "paused_outage"
        cluster.sync_catalogs(include_checkpoint=self.checkpoint)
        cluster.write_cluster_info()
        cluster.reaper.poll()
        cluster.reaper.cleanup_leaked_files()
        world.cleanup_completed = True
        return "ok"


@dataclass(frozen=True)
class Mergeout:
    """Run the mergeout coordinators over every shard."""

    max_jobs_per_shard: int = 2

    name = "mergeout"

    def detail(self) -> str:
        return f"max_jobs={self.max_jobs_per_shard}"

    @storage_outcomes()
    def apply(self, world) -> str:
        from repro.tuple_mover.mergeout import MergeoutCoordinatorService

        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            return "paused_outage"
        MergeoutCoordinatorService(cluster).run_all(
            max_jobs_per_shard=self.max_jobs_per_shard
        )
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

    # Both refusals below rule an outage out, so only the retry loop
    # giving up (during the final sync, or the revive's downloads) is met.
    @storage_outcomes(TransientStorageError)
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
        cluster.graceful_shutdown()
        try:
            # The campaign's one recorder moves to the new incarnation:
            # request ids keep counting, so a pre-revive doctor probe stays
            # diagnosable and cannot alias a later request, and a violation
            # after the revive still carries its step's spans.
            new_cluster = revive(
                cluster.shared,
                clock=world.clock,
                seed=self.revive_seed,
                observability=cluster.obs,
            )
        except ReviveError as exc:
            # After a graceful shutdown (complete sync, expired lease) a
            # revive failure means durable state is broken — a real bug.
            raise world.violation("revive", str(exc))
        world.cluster = new_cluster
        # The autoscaler is a client of the cluster it was built on and
        # does not outlive that incarnation.  The next tick builds a fresh
        # one on the live cluster.
        world.autoscaler = None
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

    @storage_outcomes()
    def apply(self, world) -> str:
        return kill_then_failover(world, self.sql)


def kill_then_failover(world, sql: str, request_text: Optional[str] = None) -> str:
    """The body of :class:`KillMidQuery` (and of the straggler probe, which
    labels the request with ``request_text`` so the doctor can find it)."""
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
        victims = survivable_losses(
            cluster, [p for p in participants if p != session.initiator]
        ) or survivable_losses(cluster, participants)
        if not victims:
            return "refused"
        world.release_pins_touching(victims[0])
        world.cleanup_completed = False
        try:
            cluster.kill_node(victims[0])
        except (QuorumLost, ShardCoverageLost):
            return "shutdown"
        try:
            world.checked_read(
                sql, session=session, failover=True, request_text=request_text
            )
        except NodeDown:
            # Let through only when the kill really cost the cluster its
            # shard coverage; otherwise it is the ``query-failover`` bug.
            return "shutdown"
        return "ok"
    finally:
        session.release()


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
            what = f"storm {record.sql!r} (client {record.client})"
            if record.outcome == "ok":
                world.expect_equal(what, record.digest, expected[record.sql])
            elif record.outcome == "error:ObjectNotFound":
                raise world.violation(
                    "catalog-storage", f"{what} read a missing object"
                )
        if result.completed:
            return "ok"
        # The closed loop records its clients' errors by class name; the
        # step reports the first storage outcome any client met.
        outcomes = {r.outcome for r in result.records}
        for error, outcome in STORAGE_OUTCOMES:
            if f"error:{error.__name__}" in outcomes:
                return outcome
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

    @storage_outcomes()
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down:
            return "refused"
        if cluster.refresh_degraded():
            # Pause during outages, as the cluster's services do
            # (skipped_outage), rather than burning actuator errors.
            return "paused_outage"
        scaler = world.autoscaler
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
        decision = scaler.run()
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
    requests = world.cluster.obs.requests
    return requests[-1].request_id if requests else 0


#: The latency components a probe can inject, as ``RequestRecord`` fields.
_COMPONENTS = (
    "queue_wait_seconds",
    "storage_io_seconds",
    "retry_backoff_seconds",
    "failover_backoff_seconds",
)


def _dominated(world, mark: int, seconds: str, count: Optional[str] = None) -> List:
    """Did the injected component dominate?  The requests recorded since
    ``mark`` whose ``seconds`` field exceeded half their recorded latency
    *and* every other component — fetch lanes run in parallel, so their
    summed I/O and their summed retry backoff can each exceed half of one
    latency — and whose ``count`` field, when named, shows the component
    was met at all; oldest first."""
    hits = []
    for record in world.cluster.obs.requests:
        share = getattr(record, seconds)
        if (
            record.request_id > mark
            and share > record.duration_seconds / 2
            and all(share > getattr(record, c) for c in _COMPONENTS if c != seconds)
            and (count is None or getattr(record, count) > 0)
        ):
            hits.append(record)
    return hits


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
        queued = _dominated(world, mark, "queue_wait_seconds")
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

    @storage_outcomes()
    def apply(self, world) -> str:
        if not cold_depots(world):
            return "refused"
        mark = _request_mark(world)
        world.checked_read(self.sql)
        hits = _dominated(world, mark, "storage_io_seconds", "depot_misses")
        if hits:
            world.note_doctor_probe(hits[0].request_id, "depot misses")
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

    @storage_outcomes()
    def apply(self, world) -> str:
        if not cold_depots(world):
            return "refused"
        world.cluster.shared.faults.begin_burst(self.rate, self.ops)
        mark = _request_mark(world)
        world.checked_read(self.sql)
        hits = _dominated(world, mark, "retry_backoff_seconds", "retries")
        if hits:
            world.note_doctor_probe(hits[0].request_id, "throttling")
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

    @storage_outcomes()
    def apply(self, world) -> str:
        cluster = world.cluster
        if cluster.shut_down or cluster.refresh_degraded():
            return "refused"
        world.checked_read(self.sql)  # the warm-up run
        mark = _request_mark(world)
        outcome = kill_then_failover(world, self.sql, request_text=self.sql)
        hits = _dominated(world, mark, "failover_backoff_seconds")
        if outcome == "ok" and hits:
            world.note_doctor_probe(hits[0].request_id, "failover backoff")
        return outcome
