"""The simulation harness: world construction and campaign driving.

A *campaign* is: build a :class:`SimWorld` from a seed, then run a seeded
:class:`ScenarioGenerator` for N steps, checking every registered global
invariant after every step.  The harness records each executed action into
a schedule (the replay artifact) and each step into a :class:`Trace`
(whose digest is the bit-reproducibility contract: same seed => same
digest).  On a violation it stops and reports ``(seed, step)``; the
schedule can then be replayed verbatim or shrunk (:mod:`repro.sim.shrink`).

All nondeterminism flows from a fixed set of seeded streams — the
generator's RNGs (menu draws and batch-size draws are separate streams so
batching never shifts the action schedule), the cluster RNG, and the S3
fault injector's RNG — and
invariant checks use only out-of-band accessors, so a campaign is a pure
function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.eon import EonCluster
from repro.common.clock import SimClock
from repro.errors import NodeDown, ObjectNotFound
from repro.obs import Observability
from repro.obs.metrics import cluster_metrics
from repro.shared_storage.s3 import FaultInjector, SimulatedS3
from repro.sim.generator import ScenarioGenerator
from repro.sim.invariants import InvariantRegistry, InvariantViolation
from repro.sim.oracle import SimOracle, rows_key
from repro.sim.trace import Trace
from repro.sql.parser import parse

DATA_PREFIX = "data_"


@dataclass
class CampaignConfig:
    """Knobs for one campaign.  Defaults give the standard 4-node,
    4-shard, 2-subscriber chaos cluster with a 2% base S3 fault rate."""

    steps: int = 40
    node_count: int = 4
    shard_count: int = 4
    subscribers_per_shard: int = 2
    cache_bytes: int = 64 << 20
    base_failure_rate: float = 0.02
    table: str = "sim_t"
    initial_rows: int = 60
    halt: bool = True


class SimWorld:
    """Everything one campaign runs against: the chaos cluster, its fault
    injector, the simulated clock, the oracle, and open pinned queries."""

    def __init__(self, seed: int, config: Optional[CampaignConfig] = None):
        self.config = config or CampaignConfig()
        self.seed = seed
        self.step = -1
        self.clock = SimClock()
        faults = FaultInjector(
            failure_rate=self.config.base_failure_rate, seed=seed ^ 0x5EED
        )
        shared = SimulatedS3(faults=faults)
        # Observability is safe to leave on under the determinism contract:
        # recording draws no RNG and charges no requests, so the campaign
        # digest is unchanged — and a violation can then carry the spans of
        # its failing step.
        self.cluster = EonCluster(
            [f"n{i}" for i in range(self.config.node_count)],
            shard_count=self.config.shard_count,
            shared_storage=shared,
            subscribers_per_shard=self.config.subscribers_per_shard,
            cache_bytes=self.config.cache_bytes,
            seed=seed,
            clock=self.clock,
            observability=Observability(clock=self.clock),
        )
        self.oracle = SimOracle(seed)
        self.table = self.config.table
        self.pins = {}  # tag -> PinnedQuery
        #: Armed by a completed leaked-file sweep; disarmed by anything
        #: that changes which instance prefixes count as "live".
        self.cleanup_completed = False
        #: ``clock.now`` before the current step, for the monotone check.
        self.clock_floor = 0.0
        #: Pushdown-race parity log: (step, sql, match) entries written by
        #: ``PushdownRace`` (pushdown-on rows vs depot rows); audited every
        #: step by the ``pushdown-digest-parity`` invariant, which also
        #: keeps this high-water mark for the SELECT dollar ledger.
        self.pushdown_checks: List[tuple] = []
        self.select_dollars_floor = 0.0
        #: Doctor-attribution log: (step, request_id, expected_cause)
        #: entries written by the overload probe actions when their
        #: injected condition actually bit; tests replay these through
        #: :func:`repro.obs.doctor.diagnose` and compare verdicts.
        self.doctor_probes: List[tuple] = []
        #: Redesign parity log: (step, sql, match) entries written by the
        #: ``redesign`` action (post-apply probe rows vs the oracle);
        #: audited every step by the ``designer-digest-parity`` invariant.
        self.redesign_checks: List[tuple] = []
        #: Attached lazily by the first ``autoscale_tick`` action; the
        #: ``autoscale-safety`` invariant audits it every later step.
        self.autoscaler = None
        self._setup_schema()

    def _setup_schema(self) -> None:
        ddl = f"create table {self.table} (k int, g varchar, v int)"
        self.cluster.execute(ddl)
        self.oracle.execute(ddl)
        if self.config.initial_rows:
            rows = [
                (k, f"g{k % 5}", (k * 7) % 101)
                for k in range(self.config.initial_rows)
            ]
            self.cluster.load(self.table, rows)
            self.oracle.load(self.table, rows)

    # -- accessors used by invariants and actions ------------------------------

    def data_object_names(self) -> List[str]:
        """Data-prefix objects on shared storage, by catalog-visible name,
        read out-of-band (no request, no fault draw)."""
        return [
            name[len(DATA_PREFIX):]
            for name in self.cluster.shared.peek(DATA_PREFIX)
        ]

    def fingerprint(self) -> str:
        """Deterministic per-step cluster fingerprint for the trace."""
        cluster = self.cluster
        up = ",".join(sorted(n.name for n in cluster.nodes.values() if n.is_up))
        return (
            f"v{cluster.version}/up:{up}/objs:{len(self.data_object_names())}"
            f"/t:{self.clock.now:.3f}"
        )

    # -- pin management --------------------------------------------------------

    def release_pin(self, tag: str) -> None:
        pin = self.pins.pop(tag, None)
        if pin is not None:
            pin.session.release()

    def release_pins_touching(self, node_name: str) -> None:
        """A node going away invalidates sessions it participates in."""
        for tag in sorted(self.pins):
            if node_name in self.pins[tag].session.participants():
                self.release_pin(tag)

    def release_all_pins(self) -> None:
        for tag in sorted(self.pins):
            self.release_pin(tag)

    # -- the checked read ------------------------------------------------------

    def violation(self, invariant: str, detail: str) -> InvariantViolation:
        """A violation carrying this step's ``(seed, step)`` repro handle."""
        return InvariantViolation(invariant, self.seed, self.step, detail)

    def expect_equal(self, what: str, actual, expected) -> None:
        """The oracle check: ``actual`` (the chaos cluster's rows, or its
        affected-row count) must equal ``expected``, else
        ``oracle-equivalence``."""
        if actual != expected:

            def brief(value):
                return value[:4] if isinstance(value, list) else value

            raise self.violation(
                "oracle-equivalence",
                f"{what}: cluster={brief(actual)} oracle={brief(expected)}",
            )

    def checked_read(
        self,
        sql: str,
        *,
        expected: Optional[List[Tuple]] = None,
        parity_log: Optional[List[tuple]] = None,
        missing: str = "catalog-storage",
        session=None,
        failover: Optional[bool] = None,
        request_text: Optional[str] = None,
        **options,
    ) -> List[Tuple]:
        """Run one SELECT on the chaos cluster and hold it to its answer.

        By SQL plus per-query ``options``, or — with ``session`` — as a
        freshly parsed statement through that session (a pin's snapshot,
        or a doomed session with ``failover``; ``request_text`` labels the
        recorded request).  This is the only place a read becomes a
        violation:

        * its rows differ from ``expected`` (default: the oracle's rows for
          the same SQL; a pin passes its frozen answer, a pushdown race the
          other leg's rows) — ``oracle-equivalence``; the comparison is
          first appended to ``parity_log`` (``pushdown_checks`` or
          ``redesign_checks``, bounded), for the parity invariants;
        * it read a missing object — ``missing``: ``catalog-storage``, or
          ``pinned-read`` when a pinned snapshot's file was deleted;
        * it failed with :class:`NodeDown` although up ACTIVE subscribers
          still cover every shard — ``query-failover``.  Without coverage
          the ``NodeDown`` propagates: the cluster is entitled to give up.

        Storage errors propagate to the action's ``storage_outcomes``.
        Returns the rows in :func:`rows_key` form."""
        cluster = self.cluster
        try:
            if session is None:
                result = cluster.query(sql, **options)
            else:
                result = cluster.query_statement(
                    parse(sql)[0],
                    session=session,
                    request_text=request_text,
                    failover=failover,
                )
        except ObjectNotFound as exc:
            raise self.violation(missing, f"{sql!r} read a missing object: {exc}")
        except NodeDown as exc:
            if cluster.uncovered_shards():
                raise
            raise self.violation(
                "query-failover",
                f"{sql!r} failed with NodeDown ({exc}) although surviving up "
                "ACTIVE subscribers cover every shard",
            )
        actual = rows_key(result)
        if expected is None:
            expected = self.oracle.query_rows(sql)
        if parity_log is not None:
            parity_log.append((self.step, sql, actual == expected))
            del parity_log[:-256]
        self.expect_equal(repr(sql), actual, expected)
        return actual

    def note_doctor_probe(self, request_id: int, expected_cause: str) -> None:
        """Record one overload probe whose injected condition landed
        (bounded log; see :attr:`doctor_probes`)."""
        self.doctor_probes.append((self.step, request_id, expected_cause))
        del self.doctor_probes[:-64]


class CampaignResult:
    """Outcome of one campaign or replay."""

    def __init__(
        self,
        seed: int,
        trace: Trace,
        registry: InvariantRegistry,
        schedule: List,
        violation: Optional[InvariantViolation],
        metrics: Optional[dict] = None,
        world: Optional[SimWorld] = None,
    ):
        self.seed = seed
        self.trace = trace
        self.registry = registry
        self.schedule = schedule
        self.violation = violation
        #: Cluster-wide depot/S3 summary at campaign end (see
        #: :func:`repro.obs.metrics.cluster_metrics`).
        self.metrics = metrics or {}
        #: The finished world, for post-mortem telemetry reads — e.g.
        #: replaying :attr:`SimWorld.doctor_probes` through the doctor.
        self.world = world

    @property
    def ok(self) -> bool:
        return self.violation is None and not self.registry.violations

    def digest(self) -> str:
        return self.trace.digest()

    def report(self) -> str:
        if self.ok:
            return (
                f"seed {self.seed}: {len(self.trace)} steps clean, "
                f"digest {self.digest()[:16]}"
            )
        violation = self.violation or self.registry.violations[0]
        return (
            f"seed {self.seed}: {violation}\nlast steps:\n{self.trace.tail(8)}"
        )


def _execute_step(
    world: SimWorld,
    registry: InvariantRegistry,
    trace: Trace,
    step: int,
    action,
) -> Optional[InvariantViolation]:
    """Run one action, record it, check invariants.  Returns the halting
    violation (halt mode) or None (clean step, or non-halting registry)."""
    world.step = step
    world.clock_floor = world.clock.now
    tracer = world.cluster.obs.tracer
    mark = tracer.mark()
    violation: Optional[InvariantViolation] = None
    try:
        outcome = action.apply(world)
    except InvariantViolation as exc:
        # Raised *inside* an action (oracle mismatch, pinned read of a
        # deleted file, failed revive): count it like any other violation.
        violation = exc
        registry.note_external(exc)
        outcome = f"violation:{exc.invariant}"
    trace.record(step, action.name, action.detail(), outcome, world.fingerprint())
    if violation is None:
        try:
            registry.check_all(world, world.seed, step)
        except InvariantViolation as exc:
            violation = exc
    if violation is not None:
        # Attach the failing step's spans: what the cluster was doing when
        # the invariant broke, alongside the (seed, step) repro handle.
        # ``trace_truncated`` flags a window that lost spans to the bounded
        # deque — an incomplete trace must not masquerade as the whole story.
        violation.trace = tracer.spans_since(mark)
        violation.trace_truncated = tracer.truncated_since(mark)
    return violation if registry.halt else None


def _drive(
    seed: int,
    config: Optional[CampaignConfig],
    registry: Optional[InvariantRegistry],
    actions: Callable,
) -> CampaignResult:
    """Build a world from ``seed`` and run the steps ``actions(world,
    config)`` yields — lazily, so a generator sees the world each previous
    step left — stopping at the first halting violation."""
    config = config or CampaignConfig()
    registry = registry or InvariantRegistry(halt=config.halt)
    world = SimWorld(seed, config)
    trace = Trace()
    schedule: List = []
    violation: Optional[InvariantViolation] = None
    for step, action in enumerate(actions(world, config)):
        schedule.append(action)
        violation = _execute_step(world, registry, trace, step, action)
        if violation is not None:
            break
    world.release_all_pins()
    return CampaignResult(
        seed, trace, registry, schedule, violation,
        metrics=cluster_metrics(world.cluster), world=world,
    )


def run_campaign(
    seed: int,
    config: Optional[CampaignConfig] = None,
    registry: Optional[InvariantRegistry] = None,
    generator: Optional[ScenarioGenerator] = None,
) -> CampaignResult:
    """Generate and run one seeded scenario, invariant-checked per step.

    ``generator`` substitutes a different scenario generator (e.g. a
    boosted profile, ``ScenarioGenerator(seed, profile="chaos")``) built
    from the same seed; the default is the base menu.
    """
    generator = generator or ScenarioGenerator(seed)
    return _drive(
        seed,
        config,
        registry,
        lambda world, config: (
            generator.next_action(world) for _ in range(config.steps)
        ),
    )


def replay_schedule(
    seed: int,
    schedule: List,
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """Re-run a recorded schedule against a fresh world built from the
    same seed.  Actions re-check their preconditions, so subsets of a
    schedule (shrinking) replay without crashing."""
    return _drive(seed, config, None, lambda world, config: schedule)
