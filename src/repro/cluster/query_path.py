"""The one query path: parse → bind → plan → admit → execute → record → fail over.

The paper runs one optimizer and one engine under both modes (section 4:
"Eon runs Vertica's standard cost-based distributed optimizer, generating
query plans equivalent to Enterprise mode"); here both cluster flavors answer
every SELECT through :func:`prepare` and :func:`run`.  The flavors differ in
what a *session* knows, and that is the whole seam: ``initiator``; ``state``
(the initiator's pinned catalog state, which the statement is bound against);
``provider()`` (a fresh :class:`StorageProvider` per attempt);
``slot_demand(plan)`` (Eon: one slot per shard share, section 4.2's ``S``;
Enterprise: one per region served, on every up node); ``release()``.  From
the cluster the path takes ``create_session`` and ``uncovered_shards`` (the
failover rule) and the state either flavor carries (``admission``, ``obs``,
``cost_model``, ``engine_stats``); the failover bounds are
:mod:`repro.recovery.failover`'s.  Nothing here asks which flavor it is
serving; DESIGN.md, "One query path".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.executor import Executor, QueryResult
from repro.engine.planner import PhysicalPlan, plan_query
from repro.errors import CatalogError, ExecutionError, NodeDown, TransientStorageError
from repro.obs import QueryProfile, RequestRecord
from repro.obs.system_tables import bind_system_tables, system_tables_referenced
from repro.recovery import failover as failover_bounds
from repro.sql.ast import Select
from repro.sql.binder import bind_select
from repro.sql.parser import parse


#: Statement texts, and plans, a cluster keeps at most; the oldest goes first.
PLAN_CACHE_ENTRIES = 512


def _plan(statement: Select, state) -> PhysicalPlan:
    return plan_query(bind_select(statement, state), state)


class PlanCache:
    """What a repeated statement does not derive again; one per cluster.

    SQL text -> parsed ``Select``, and (``Select``, the catalog maps binding
    and planning read) -> plan.  The maps are told apart by identity:
    ``CatalogState.copy`` shares every map a commit does not write, so DDL
    changes the key, COPY/DELETE/mergeout commits keep it, and nothing is
    ever invalidated.  An entry holds its statement and maps (their ids stay
    theirs while it lives) but no ``CatalogState``.  A statement that fails
    is not kept: it raises the same typed error every time.  DESIGN.md, "What
    a catalog version fixes".
    """

    def __init__(self) -> None:
        self._statements: Dict[str, Select] = {}
        self._plans: Dict[tuple, tuple] = {}

    @staticmethod
    def _keep(entries: dict, key, value) -> None:
        if len(entries) >= PLAN_CACHE_ENTRIES:
            del entries[next(iter(entries))]
        entries[key] = value

    def select(self, sql: str) -> Select:
        statement = self._statements.get(sql)
        if statement is None:
            statements = parse(sql)
            if len(statements) != 1 or not isinstance(statements[0], Select):
                raise CatalogError("query() accepts a single SELECT")
            statement = statements[0]
            self._keep(self._statements, sql, statement)
        return statement

    def plan(self, statement: Select, state) -> Tuple[PhysicalPlan, bool]:
        """``statement``'s plan on ``state``, and whether it was reused."""
        read = (state.tables, state.projections, state.live_aggs)
        key = (id(statement), *map(id, read))
        entry = self._plans.get(key)
        if entry is not None:
            return entry[0], True
        plan = _plan(statement, state)
        self._keep(self._plans, key, (plan, statement, read))
        return plan, False


def parse_select(cluster, sql: str) -> Select:
    return cluster.plan_cache.select(sql)


@dataclass
class Prepared:
    """A SELECT bound and planned against one session's snapshot."""

    statement: Select
    session: object
    #: ``v_monitor.*`` tables the statement reads (usually none).
    system_names: Sequence[str]
    #: None for a monitor read: it is bound when it executes.
    plan: Optional[PhysicalPlan]
    #: node -> execution slots the query holds while it runs.
    demand: Dict[str, int]


def prepare(statement: Select, session) -> Prepared:
    """Bind and plan ``statement`` on ``session``; derive its slot demand.

    A statement reading ``v_monitor`` is left unbound: binding materializes
    the monitor's rows, and those must be the reading of the moment the
    query executes (a closed-loop client prepares before it queues).  It
    plans single-node, so its demand is one slot on the initiator.
    """
    system_names = system_tables_referenced(statement)
    if system_names:
        return Prepared(statement, session, system_names, None, {session.initiator: 1})
    cluster = session.cluster
    plan, reused = cluster.plan_cache.plan(statement, session.state)
    stats = cluster.engine_stats
    if reused:
        stats.plans_reused += 1
    else:
        stats.statements_prepared += 1
    return Prepared(statement, session, (), plan, session.slot_demand(plan))


def run(
    cluster,
    statement: Select,
    session=None,
    request_text: Optional[str] = None,
    failover: Optional[bool] = None,
    ticket=None,
    options: Optional[dict] = None,
    prepared: Optional[Prepared] = None,
) -> QueryResult:
    """Answer one SELECT, failing over while the cluster still covers it.

    ``options`` are the flavor's per-query options, already checked against
    the names it accepts: ``pushdown`` for the engine, the rest lay out the
    sessions this call creates.  A caller that queued for slots passes what
    it holds: ``prepared`` (it brings its session along) and the ``ticket``,
    which spans every retry — without one, each attempt admits itself.
    """
    options = dict(options or {})
    pushdown = options.pop("pushdown", "auto")
    if prepared is not None:
        session = prepared.session
    # Failover defaults on for cluster-owned sessions (the caller never saw
    # the participant list, so re-selecting it is transparent).  An
    # explicitly passed session opts in with ``failover=True``; retries then
    # run on fresh sessions while the caller's stays theirs to release.
    if failover is None:
        failover = session is None
    if session is not None and options and not failover:
        raise ExecutionError(
            f"query option(s) {', '.join(sorted(options))} lay out a session "
            "and would be ignored beside an explicit session= (with "
            "failover=True they lay out the retry sessions)"
        )
    attempt = 0
    penalty = 0.0
    current = session
    while True:
        own_session = current is None
        if own_session:
            current = cluster.create_session(**options)
        try:
            if prepared is None:
                prepared = prepare(statement, current)
            return _attempt(cluster, prepared, request_text, pushdown, penalty, ticket)
        except (NodeDown, TransientStorageError) as exc:
            attempt += 1
            if (
                not failover
                or cluster.shut_down
                or attempt >= failover_bounds.MAX_ATTEMPTS
                or (isinstance(exc, NodeDown) and cluster.uncovered_shards())
            ):
                raise
            # A participant died mid-query (or a shard's reads exhausted
            # their retries) but the survivors still cover every shard: lay
            # out a new session and re-execute.  The backoff is charged to
            # the query's cost-model latency, not to the sim clock.
            penalty += failover_bounds.backoff_for(attempt)
            cluster.recovery_stats.failovers += 1
            obs = cluster.obs
            if obs.enabled:
                error = type(exc).__name__
                obs.tracer.record(
                    "query.failover", attempt=attempt, error=error,
                    initiator=current.initiator,
                )
                obs.dc.record(
                    "dc_query_events", current.initiator,
                    (0, "failover", error, float(attempt)),
                )
        finally:
            if own_session:
                current.release()
        current = prepared = None


def _attempt(
    cluster, prepared: Prepared, request_text, pushdown: str, penalty: float, ticket
) -> QueryResult:
    """One execution attempt on the session ``prepared`` was made for."""
    session = prepared.session
    provider = session.provider()
    plan = prepared.plan
    monitor = plan is None
    if monitor:
        # Virtual tables are injected into a copy of the snapshot state (the
        # statement rides along so dc_* producers can prune on its time/node
        # bounds); binding and planning then proceed as for any other table.
        state, provider = bind_system_tables(
            cluster, session.state, provider, prepared.system_names,
            statement=prepared.statement,
        )
        plan = _plan(prepared.statement, state)
    own_ticket = None
    # Monitor reads bypass admission: observability must stay usable on a
    # saturated cluster (the moment you most need it).
    if ticket is None and not monitor:
        own_ticket = ticket = cluster.admission.admit(prepared.demand, session.initiator)
    # Queue wait joins the failover backoff in dispatch time, so the
    # recorded latency/profile/span covers the whole admission story.
    queue_wait = ticket.queue_wait_seconds if ticket is not None else 0.0
    try:
        # Monitor queries are not themselves recorded: this query would
        # appear in the very tables it reads, mid-materialization.
        obs = cluster.obs if cluster.obs.enabled and not monitor else None
        executor = Executor(provider, cluster.cost_model, obs=obs, pushdown=pushdown)
        if obs is None:
            result = executor.execute(plan)
            if penalty + queue_wait:
                result.stats.dispatch_seconds += penalty + queue_wait
        else:
            result = _execute_recorded(
                cluster, prepared.statement, session.initiator, executor, plan,
                request_text, penalty, queue_wait, ticket is not None,
            )
        engine = cluster.engine_stats
        engine.queries += 1
        engine.add(result.stats)
        for work in result.stats.per_node.values():
            engine.add(work)
        return result
    finally:
        if own_ticket is not None:
            cluster.admission.release(own_ticket)


def _ledger(cluster) -> Tuple[int, float, float]:
    """The shared backend's retry and clock counters a request is charged
    the movement of: ``retries``, ``retry_backoff_seconds`` and
    ``storage_io_seconds``.  Enterprise has no shared storage and reads zero
    (``obs/system_tables.py``'s absent-is-empty)."""
    metrics = getattr(getattr(cluster, "shared", None), "metrics", None)
    if metrics is None:
        return 0, 0.0, 0.0
    return metrics.transient_failures, metrics.retry_backoff_seconds, metrics.sim_seconds


def _execute_recorded(
    cluster, statement, initiator: str, executor, plan, request_text,
    penalty: float, queue_wait: float, had_ticket: bool,
) -> QueryResult:
    """Execute under a ``query`` span; log the request record, the operator
    profile and the ``dc_query_events`` rows."""
    obs = cluster.obs
    # The AST does not retain source text: a parsed tree that came without
    # it is named by its tables.
    text = request_text or "SELECT FROM " + ", ".join(
        ref.name for ref in statement.tables + [j.table for j in statement.joins]
    )
    request_id = obs.next_request_id()
    start = cluster.clock.now
    before = _ledger(cluster)
    with obs.tracer.span("query", request_id=request_id, initiator=initiator) as span:
        result = executor.execute(plan)
        if penalty + queue_wait:
            result.stats.dispatch_seconds += penalty + queue_wait
        # Queries don't advance the sim clock; the cost model's latency is
        # the query's duration.
        span.duration = result.stats.latency_seconds
        span.annotate(rows=result.rows.num_rows)
    latency = result.stats.latency_seconds
    rows = result.rows.num_rows
    after = _ledger(cluster)
    # The depot and S3 totals are the query's own operators' (a Scan's are
    # its ScanResult's), summed in plan order: the request's dollars are the
    # sum of its query_profiles rows.
    operators = tuple(executor.op_profiles)
    hits = misses = requests = 0
    dollars = 0.0
    for op in operators:
        hits += op.depot_hits
        misses += op.depot_misses
        requests += op.s3_requests
        dollars += op.s3_dollars
    obs.requests.append(
        RequestRecord(
            request_id, initiator, text, start, latency, rows_produced=rows,
            depot_hits=hits, depot_misses=misses, s3_requests=requests,
            s3_dollars=dollars, queue_wait_seconds=queue_wait,
            failover_backoff_seconds=penalty, retries=after[0] - before[0],
            retry_backoff_seconds=after[1] - before[1],
            storage_io_seconds=after[2] - before[2],
        )
    )

    def event(name: str, detail: str, value: float) -> None:
        obs.dc.record("dc_query_events", initiator, (request_id, name, detail, value))

    if had_ticket:
        event("admit", "", queue_wait)
    if queue_wait > 0:
        event("queue", "", queue_wait)
    if penalty > 0:
        event("failover", "backoff", penalty)
    event("execute", text[:80], latency)
    obs.profiles.append(
        QueryProfile(request_id, text, initiator, start, latency, operators)
    )
    obs.metrics.histogram("query.latency_seconds").observe(latency)
    return result
