"""Global invariants checked after every simulation step.

Each invariant is a function ``(world) -> Optional[str]``: ``None`` means
the invariant holds, a string describes the violation.  The registry runs
every invariant after every step, counts checks and violations per
invariant (the robustness trajectory ``bench_robustness_sim.py`` prints), and
— in the default halting mode — raises :class:`InvariantViolation`
carrying the ``(seed, step)`` pair that reproduces the schedule.

The registry reads cluster state only through out-of-band accessors
(:meth:`SimulatedS3.peek`, catalog/cache properties) so that checking an
invariant never consumes a fault-RNG draw, charges a request, or otherwise
perturbs the simulation being checked.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.transaction_log import Listing
from repro.cluster.revive import CLUSTER_INFO_PREFIX
from repro.errors import ReproError
from repro.sharding.subscription import uncovered


class InvariantViolation(ReproError):
    """A global invariant failed at a specific step of a seeded schedule."""

    #: Spans recorded during the failing step (attached by the harness when
    #: the world's observability is enabled) — the "what was the cluster
    #: doing" context for a repro handle.
    trace: Optional[List] = None
    #: True when the span window above lost spans to the tracer's bounded
    #: buffer — the attached trace is incomplete, not the whole step.
    trace_truncated: bool = False

    def __init__(self, invariant: str, seed: int, step: int, detail: str):
        self.invariant = invariant
        self.seed = seed
        self.step = step
        self.detail = detail
        super().__init__(
            f"invariant {invariant!r} violated at {self.repro}: {detail}"
        )

    @property
    def repro(self) -> str:
        """The one-line reproduction handle: replay this seed to this step."""
        return f"(seed={self.seed}, step={self.step})"


# -- invariant implementations ------------------------------------------------------


def shard_coverage(world) -> Optional[str]:
    """Every shard has >= 1 up ACTIVE subscriber, or the cluster has shut
    itself down and refuses writes (section 3.4)."""
    cluster = world.cluster
    if cluster.shut_down:
        return None  # refusing work is the legitimate degraded state
    uncovered = cluster.uncovered_shards()
    if uncovered:
        return f"shards {sorted(uncovered)} have no up ACTIVE subscriber"
    return None


def catalog_storage_consistency(world) -> Optional[str]:
    """No reachable catalog state references a missing storage object.

    "Reachable" includes states pinned by running queries: the reaper must
    not delete a file any live snapshot can still read (section 6.5).
    """
    cluster = world.cluster
    if not any(n.is_up for n in cluster.nodes.values()):
        return None
    objects = set(world.data_object_names())
    missing = cluster.all_catalog_sids() - objects
    if missing:
        return (
            f"{len(missing)} catalog SID(s) have no shared-storage object: "
            f"{sorted(missing)[:3]}"
        )
    return None


def no_leaked_objects(world) -> Optional[str]:
    """After a leaked-file sweep, every data object is accounted for:
    referenced by a catalog, pending deferred deletion, or prefixed by a
    live instance id (possibly mid-upload)."""
    if not world.cleanup_completed:
        return None  # only meaningful right after cleanup_leaked_files ran
    cluster = world.cluster
    if cluster.shut_down:
        return None
    accounted = cluster.all_catalog_sids()
    accounted |= cluster.reaper.pending_sids()
    prefixes = cluster.running_instance_prefixes()
    leaked = [
        name
        for name in world.data_object_names()
        if name not in accounted and not any(name.startswith(p) for p in prefixes)
    ]
    if leaked:
        return f"{len(leaked)} leaked object(s) survived the sweep: {leaked[:3]}"
    return None


def cache_capacity(world) -> Optional[str]:
    """Every up node's file cache respects its byte capacity."""
    for node in world.cluster.up_nodes():
        problem = node.cache.capacity_violation()
        if problem:
            return f"node {node.name}: {problem}"
    return None


def io_batch_sanity(world) -> Optional[str]:
    """The parallel fetch scheduler never fetched the same key twice within
    one batch, and no depot put mid-batch left ``used_bytes`` over capacity.

    Reads the scheduler's cumulative counters out-of-band: the scheduler
    checks :meth:`FileCache.capacity_violation` after *every* put inside a
    batch, so a violation that a later eviction would mask still counts —
    this is the "capacity holds *during* parallel fetches" check, stronger
    than the post-step :func:`cache_capacity` scan."""
    stats = world.cluster.io_scheduler.stats
    if stats.double_fetches:
        return f"{stats.double_fetches} object(s) fetched twice within a batch"
    if stats.capacity_violations:
        return (
            f"{stats.capacity_violations} depot capacity violation(s) "
            "observed mid-batch"
        )
    return None


def clock_monotone(world) -> Optional[str]:
    """Simulated time never runs backwards."""
    clock = world.clock
    if clock.now < world.clock_floor:
        return f"clock went backwards: {clock.now} < {world.clock_floor}"
    if clock.now != clock.max_now:
        return f"clock rewound below its watermark: {clock.now} < {clock.max_now}"
    return None


def catalog_versions_in_step(world) -> Optional[str]:
    """Every up node's catalog sits at the coordinator's commit version
    (commits are applied synchronously to all up nodes, section 3.2)."""
    cluster = world.cluster
    if cluster.shut_down:
        return None
    behind = [
        (node.name, node.catalog.state.version)
        for node in cluster.up_nodes()
        if node.catalog.state.version != cluster.version
    ]
    if behind:
        return f"nodes out of step with version {cluster.version}: {behind}"
    return None


def truncation_revivable(world) -> Optional[str]:
    """The truncation version T the live incarnation advertises stays
    revivable (section 3.5).  When a ``cluster_info`` first appears, every
    shard with an ACTIVE subscriber has one whose uploads hold a checkpoint
    at or below T and log segments that reach T from it; from then on, until
    a newer one appears, each node whose uploads held T still does, so
    pruning never deletes what a revive would download.  (Subscriptions move
    after T is written; the uploads that held it must not.)

    Decided from object names through ``peek``, the ``cluster_info`` read
    out-of-band too: no request, no fault draw."""
    cluster = world.cluster
    shared = cluster.shared
    for name in reversed(shared.peek(CLUSTER_INFO_PREFIX)):
        info = json.loads(shared.peek_object(name))
        if info["incarnation"] == cluster.incarnation:
            break
    else:
        return None
    truncation = info["truncation_version"]
    if not truncation:
        return None  # nothing was revivable when it was written

    def holds(node: str) -> bool:
        prefix = f"meta_{cluster.incarnation}_{node}_"
        return Listing(n[len(prefix):] for n in shared.peek(prefix)).holds(truncation)

    seen = (cluster.incarnation, name)
    if world.revivable_from is not None and world.revivable_from[:2] == seen:
        lost = sorted(node for node in world.revivable_from[2] if not holds(node))
        if lost:
            return (
                f"uploads of {lost} no longer reach truncation version "
                f"{truncation} ({name})"
            )
        return None
    holding = {node for node in cluster.nodes if holds(node)}
    catalog = (cluster.up_nodes() or list(cluster.nodes.values()))[0].catalog
    shard_ids = cluster.shard_map.all_shard_ids()
    lacking = set(uncovered(catalog.state.subscriptions, shard_ids, holding))
    lacking -= set(uncovered(catalog.state.subscriptions, shard_ids, cluster.nodes))
    if lacking:
        return (
            f"truncation version {truncation} ({name}) is not revivable for "
            f"shards {sorted(lacking)}: no subscriber's uploads reach it"
        )
    world.revivable_from = seen + (frozenset(holding),)
    return None


def degraded_pairing(world) -> Optional[str]:
    """Degraded-mode entry/exit is deterministic and always paired.

    The cluster flips ``degraded`` only inside ``refresh_degraded`` —
    purely a function of the sim clock against the declared outage window
    — and bumps exactly one of the entry/exit counters per flip.  So at
    every step ``entries - exits`` must equal 1 while degraded and 0
    otherwise, and the flag may only be set while the backend actually
    declared an outage at the last poll (never spontaneously).

    Reads counters and flags only — no requests, no RNG draws.
    """
    cluster = world.cluster
    stats = cluster.recovery_stats
    entries, exits = stats.degraded_entries, stats.degraded_exits
    degraded = bool(cluster.degraded)
    if entries - exits != int(degraded):
        return (
            f"degraded entries={entries} exits={exits} but degraded={degraded}: "
            "entry/exit not paired"
        )
    if degraded and cluster.shared.faults.outages_begun == 0:
        return "cluster is degraded but no outage was ever declared"
    return None


def wm_slot_accounting(world) -> Optional[str]:
    """Execution slots in use always equal the demand of live admission
    tickets, and between steps — when no query is running — both are
    zero: no leaked slots, no phantom queue entries, on any exit path
    (success, error, cancel, failover, degraded rejection)."""
    admission = world.cluster.admission
    in_use = admission.total_in_use()
    claimed = admission.active_demand()
    if in_use != claimed:
        return (
            f"slots in use ({in_use}) != active ticket demand ({claimed}); "
            f"{len(admission.active)} live tickets"
        )
    # Actions run queries to completion before the step ends, so at check
    # time nothing may still hold or wait for slots.
    if in_use != 0:
        return f"{in_use} slots leaked after step ({len(admission.active)} tickets)"
    if admission.pending != 0:
        return f"{admission.pending} admissions still queued after step"
    for name in sorted(admission.pools):
        pool = admission.pools[name]
        if pool.queued != 0:
            return f"pool {name!r} reports queue depth {pool.queued} at rest"
    for node_name in sorted(admission.node_slots):
        resource = admission.node_slots[node_name]
        capacity = resource.capacity
        node = world.cluster.nodes.get(node_name)
        if node is not None and capacity > node.execution_slots:
            return (
                f"node {node_name}: slot resource capacity {capacity} exceeds "
                f"execution_slots {node.execution_slots}"
            )
    return None


def pushdown_digest_parity(world) -> Optional[str]:
    """Racing a server-side pushdown scan against the depot fetch it
    replaces changes nothing observable: (a) every ``pushdown_race`` the
    campaign ran logged identical row digests for the pushdown-on and
    depot runs; (b) the SELECT dollar ledger (request + bytes-scanned +
    bytes-returned fees) is monotone — charges accrue, never regress —
    tracked against a high-water mark kept on the world."""
    for step, sql, match in world.pushdown_checks:
        if not match:
            return (
                f"pushdown run diverged from the depot run at "
                f"step {step}: {sql!r}"
            )
    select = world.cluster.shared.op_stats.get("SELECT")
    if select is not None:
        floor = world.select_dollars_floor
        if select.dollars < floor - 1e-12:
            return (
                f"SELECT dollars regressed: {select.dollars:.9f} < "
                f"watermark {floor:.9f}"
            )
        world.select_dollars_floor = select.dollars
    return None


def designer_digest_parity(world) -> Optional[str]:
    """Applying the designer mid-campaign changes physical layouts only,
    never answers: every post-redesign probe the campaign logged matched
    the oracle's rows (bounded log written by the ``redesign`` action)."""
    for step, sql, match in world.redesign_checks:
        if not match:
            return (
                f"post-redesign probe diverged from the oracle at "
                f"step {step}: {sql!r}"
            )
    return None


def autoscale_safety(world) -> Optional[str]:
    """The actuator never strands the cluster mid-transition.

    Checked whenever a campaign has attached an autoscaler; the checks are
    the actuator's own :meth:`~repro.autoscale.TopologyActuator.audit`
    (shard coverage between the steps of a transition, drained victims
    holding no slots, its books and hibernate manifest consistent)."""
    scaler = world.autoscaler
    return scaler.actuator.audit() if scaler is not None else None


Invariant = Callable[[object], Optional[str]]

DEFAULT_INVARIANTS: Tuple[Tuple[str, Invariant], ...] = (
    ("shard-coverage", shard_coverage),
    ("catalog-storage", catalog_storage_consistency),
    ("no-leaked-objects", no_leaked_objects),
    ("cache-capacity", cache_capacity),
    ("io-batch-sanity", io_batch_sanity),
    ("clock-monotone", clock_monotone),
    ("catalog-version-sync", catalog_versions_in_step),
    ("truncation-revivable", truncation_revivable),
    ("degraded-pairing", degraded_pairing),
    ("wm-slot-accounting", wm_slot_accounting),
    ("autoscale-safety", autoscale_safety),
    ("pushdown-digest-parity", pushdown_digest_parity),
    ("designer-digest-parity", designer_digest_parity),
)


class InvariantRegistry:
    """Runs the invariant suite after every step and keeps counters.

    ``halt=True`` (campaign mode) raises on the first violation;
    ``halt=False`` (bench/robustness mode) records violations and keeps
    going, so a run yields a full per-invariant trajectory.
    """

    def __init__(self, halt: bool = True):
        self.halt = halt
        self.counters: Dict[str, Dict[str, int]] = {
            name: {"checks": 0, "violations": 0} for name, _ in DEFAULT_INVARIANTS
        }
        self.violations: List[InvariantViolation] = []

    def note_external(self, violation: InvariantViolation) -> None:
        """Count a violation raised inside an action (e.g. an oracle
        mismatch detected mid-query) so the trajectory includes it."""
        slot = self.counters.setdefault(
            violation.invariant, {"checks": 0, "violations": 0}
        )
        slot["violations"] += 1
        self.violations.append(violation)

    def check_all(self, world, seed: int, step: int) -> None:
        for name, invariant in DEFAULT_INVARIANTS:
            self.counters[name]["checks"] += 1
            detail = invariant(world)
            if detail is None:
                continue
            violation = InvariantViolation(name, seed, step, detail)
            self.counters[name]["violations"] += 1
            self.violations.append(violation)
            if self.halt:
                raise violation
