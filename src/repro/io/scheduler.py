"""Deterministic parallel fetch scheduler for the depot↔shared-storage path.

The paper's cold-vs-warm depot gap (Fig 10, section 3.3) is dominated by
shared-storage round-trips, and real Eon hides them by overlapping fetches
in large requests that stay cancellable (sections 5.2-5.3).  Every Eon scan
reads its files through this module, which models what a production I/O
layer does:

* **lanes** — a scan hands its whole post-pruning file set over at once;
  fetch units are issued in plan order onto :data:`LANES` concurrent
  connections and the batch costs max-over-lanes
  (:func:`~repro.common.clock.charge_parallel`), not the serial sum;
* **dedup** — a key requested twice in a batch (e.g. a delete vector
  shared by two containers) is fetched once;
* **coalescing** — runs of small adjacent files are fetched as one larger
  GET (:meth:`SimulatedS3.read_coalesced`), amortising the per-request
  latency and the per-request dollar cost — the paper's "larger request
  sizes than local disk" tuning made cost-model visible;
* **peer depot fetch** — a file missing locally but resident in a peer
  node's depot is copied at network latency instead of S3 latency, and
  without spending an S3 request (section 5.2's peer-to-peer transfer,
  applied to scans);
* **prefetch** — because the whole batch is fetched up front, files of
  every container after the first arrive before the scan reaches them;
  their consumption is booked as ``prefetch_hits`` (never as demand depot
  hits — see :class:`~repro.cache.disk_cache.CacheStats`);
* **shaping bypass** — oversized objects and files a
  :class:`~repro.cache.disk_cache.ShapingPolicy` denies bypass the depot:
  they are never coalesced, never peer-fetched, never counted as
  prefetched, and their bytes are handed straight to the scan.

Everything is deterministic: planning is pure, peers are probed in sorted
node-name order, fetch units execute in plan order, and the only RNG
touched is the shared backend's fault injector (one draw per *request*,
so a coalesced group draws once — same contract as any other request).

Demand hit/miss accounting is a file-by-file read's: every deduplicated
request goes through ``cache.get`` exactly once (hit or miss) and every
fetched file goes through ``note_miss_bytes`` + ``put`` exactly as
:meth:`Node.fetch_storage` would, so depot stats, shaping-policy rejections,
and LRU membership agree file-for-file with one ``fetch_storage`` per file
within a single scan (the serial reference the tests keep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.cache.disk_cache import ObjectInfo
from repro.common.clock import charge_parallel
from repro.errors import QueryCancelled
from repro.obs.metrics import Ledger
from repro.shared_storage.api import retrying


@dataclass(frozen=True)
class FetchRequest:
    """One storage file a scan will read.

    ``container_index`` is the file's container ordinal within the scan
    batch (delete vectors carry their container's ordinal); coalescing
    only groups files whose ordinals are close (``coalesce_max_gap``), and
    prefetch accounting treats everything past the first fetched ordinal
    as fetched ahead of need.
    """

    key: str
    size: int
    container_index: int
    info: ObjectInfo = ObjectInfo()


# Tuning follows the S3 latency model's sweet spot (30 ms per request vs
# ~11 ms/MB of bandwidth: concurrency and request amortisation dominate until
# files reach a few MB).

#: Concurrent fetch connections per scan batch.
LANES = 4
#: A coalesced group's total payload cap.
COALESCE_MAX_BYTES = 4 << 20
#: Max member files per coalesced group.
COALESCE_MAX_FILES = 8
#: Only files at or below this size are coalescing candidates; larger
#: files already amortise the per-request latency on their own.
COALESCE_FILE_LIMIT = 256 << 10
#: Max container-ordinal distance between adjacent group members.
COALESCE_MAX_GAP = 1


@dataclass
class FetchPlan:
    """Pure planning output: what is already resident, what to fetch, and
    which keys bypass the depot."""

    resident: List[FetchRequest] = field(default_factory=list)
    #: Fetch units in issue order; a group of >1 is one coalesced GET.
    groups: List[List[FetchRequest]] = field(default_factory=list)
    #: Keys that must not be cached (oversized / policy-denied).
    bypass: Set[str] = field(default_factory=set)
    #: Requests dropped by in-batch dedup (same key asked twice).
    duplicates: int = 0


@dataclass
class IOStats(Ledger):
    """Out-of-band scheduler accounting (invariant checkers and BENCH
    JSON read this; nothing here feeds back into the simulation)."""

    batches: int = 0
    requests: int = 0
    deduplicated: int = 0
    fetched_files: int = 0
    fetched_bytes: int = 0
    s3_gets: int = 0
    coalesced_gets: int = 0
    peer_fetches: int = 0
    prefetched_files: int = 0
    #: A key fetched more than once within one batch — must stay 0.
    double_fetches: int = 0
    #: Depot capacity violations observed right after a batch ``put``
    #: (i.e. *during* the parallel fetch) — must stay 0.
    capacity_violations: int = 0
    #: Server-side pushdown lane (:meth:`IOScheduler.pushdown_batch`).
    pushdown_batches: int = 0
    pushdown_selects: int = 0
    pushdown_bytes_scanned: int = 0
    #: Fetch units demoted to background hydration because a pushdown scan
    #: covers their containers (dollars and depot effects charged as usual;
    #: latency off the scan's critical path).
    background_fetches: int = 0


@dataclass
class FetchBatch:
    """What :meth:`IOScheduler.fetch_batch` hands back to the scan."""

    data: Dict[str, bytes] = field(default_factory=dict)
    #: Keys the depot held: the scan that decodes one pools a local read of
    #: the blocks it decodes (nothing is charged for them here).
    hits: Set[str] = field(default_factory=set)
    #: Keys cached ahead of need; consuming one books a prefetch hit.
    prefetched: Set[str] = field(default_factory=set)


#: What :meth:`IOScheduler._fetch_missing` returns, for a batch with nothing
#: to fetch: lane durations, their makespan, per-lane totals, then the
#: ``fetch_batch`` span's counts — files fetched, their bytes, fetch units,
#: peer units, background units and the background makespan.
_NOTHING_FETCHED = ((), 0.0, (0.0,), 0, 0, 0, 0, 0, 0.0)


def _book_retries(result, metrics, before: Tuple[int, float]) -> None:
    """Book on a scan's ``result`` the retries and backoff ``metrics`` gained since
    ``before``; backoff stalls the retry loop, not a lane, so it is ``io_seconds`` too."""
    backoff = metrics.retry_backoff_seconds - before[1]
    result.retries += metrics.transient_failures - before[0]
    result.retry_backoff_seconds += backoff
    result.io_seconds += backoff


def plan_fetch(
    requests: Sequence[FetchRequest],
    resident: Set[str],
    bypass: Set[str],
) -> FetchPlan:
    """Pure fetch planning: dedup, split resident/fetch, coalesce.

    Invariants the property suite pins:

    * the plan's resident + group members cover exactly the deduplicated
      request keys, each once;
    * a group of more than one file has every member at or below
      ``coalesce_file_limit``, total bytes within ``coalesce_max_bytes``,
      at most ``coalesce_max_files`` members, adjacent container ordinals
      within ``coalesce_max_gap``, and no bypass member;
    * output order is a deterministic function of input order.
    """
    plan = FetchPlan(bypass=set(bypass))
    seen: Set[str] = set()
    group: List[FetchRequest] = []
    group_bytes = 0

    def flush() -> None:
        nonlocal group, group_bytes
        if group:
            plan.groups.append(group)
            group, group_bytes = [], 0

    for request in requests:
        if request.key in seen:
            plan.duplicates += 1
            continue
        seen.add(request.key)
        if request.key in resident:
            plan.resident.append(request)
            continue
        if request.key in bypass or request.size > COALESCE_FILE_LIMIT:
            flush()
            plan.groups.append([request])
            continue
        if group and (
            group_bytes + request.size > COALESCE_MAX_BYTES
            or len(group) >= COALESCE_MAX_FILES
            or request.container_index - group[-1].container_index
            > COALESCE_MAX_GAP
        ):
            flush()
        group.append(request)
        group_bytes += request.size
    flush()
    return plan


class IOScheduler:
    """Executes fetch plans against a cluster; one per :class:`EonCluster`."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.stats = IOStats()

    # -- planning helpers ------------------------------------------------------

    def _bypass_keys(self, node, requests: Sequence[FetchRequest]) -> Set[str]:
        cache = node.cache
        return {
            r.key
            for r in requests
            if r.size > cache.capacity_bytes or not cache.policy.allows(r.info)
        }

    def _peer_with(self, node, key: str):
        """First up peer (sorted by name) holding ``key`` in its depot."""
        for name in sorted(self.cluster.nodes):
            peer = self.cluster.nodes[name]
            if peer is node or not peer.is_up:
                continue
            if peer.cache.contains(key):
                return peer
        return None

    # -- the batch fetch -------------------------------------------------------

    def fetch_batch(
        self, node, requests, use_cache, result, pool, cancelled=None,
        background_keys=None,
    ) -> FetchBatch:
        """Fetch a scan's file set; returns the bytes keyed by storage name.

        ``result`` is the scan's :class:`ScanResult`; hit/miss/fetch/S3
        accounting lands there exactly once, at fetch time — consuming the
        batch later adds only prefetch bookkeeping.  ``cancelled`` (a
        nullary callable) is polled between fetch units: queries must stay
        cancellable at file boundaries even mid-batch ("Vertica cannot
        hang waiting for S3 to respond", section 5.3).

        ``pool`` (the query's :class:`~repro.engine.pipeline.
        PipelineCharges`) takes this batch's lane durations: the makespan is
        charged once per query at settlement, not here (the batch's own
        figure is ``result.io_pooled_seconds``) — a driver-issued prefetch
        that keeps lanes busy across scan boundaries.  Retry backoff stays in
        ``result.io_seconds``; ``result`` books the retries, backoff, GET seconds.

        A hit costs nothing here: the depot is a column store's local disk,
        and a reader reads only the blocks it decodes — the columns it names
        that survive block pruning — not the bundled container file.  So the
        scan that decodes a hit's blocks pays one local-disk request of
        their bytes: a unit it adds to the same ``pool`` once it has
        decoded them, counted in ``bytes_from_cache``; the key is listed in
        ``batch.hits`` for it.

        ``background_keys`` marks keys whose containers a pushdown scan
        will cover: the scan does not *wait* for them, so units made up
        entirely of such keys are demoted to background depot hydration —
        every demand-side effect (GET requests, dollars, misses, puts,
        fault draws) is charged exactly as a foreground unit, in the same
        order, but their lane makespan is dropped from the scan's critical
        path.  A unit mixing background and foreground keys (coalescing
        may group them) stays foreground, conservatively.
        """
        obs = self.cluster.obs
        cache = node.cache

        self.stats.batches += 1
        self.stats.requests += len(requests)

        batch = FetchBatch()
        # One ``cache.get`` per distinct file, as ``fetch_storage`` makes:
        # a hit is booked here; a miss (absent, a session that bypasses the
        # depot, a file the local disk lost) is what there is to fetch.
        missing: List[FetchRequest] = []
        seen: Set[str] = set()
        for request in requests:
            if request.key in seen:
                self.stats.deduplicated += 1
                continue
            seen.add(request.key)
            data = cache.get(request.key, use_cache=use_cache)
            if data is None:
                missing.append(request)
                continue
            node.cache_reads += 1
            result.depot_hits += 1
            batch.hits.add(request.key)
            batch.data[request.key] = data

        # A scan with nothing to fetch is done once its hits are booked: no
        # plan, no units, no lanes, a makespan of zero.
        charged = _NOTHING_FETCHED
        if missing:
            charged = self._fetch_missing(
                node, missing, use_cache, result, batch, cancelled,
                background_keys or set(),
            )
        (durations, makespan, lane_totals, fetched, nbytes,
         units, peer_units, background_units, background_makespan) = charged
        if durations:
            pool.add(node.name, durations)
            result.io_pooled_seconds += makespan
        if obs.enabled:
            obs.metrics.gauge("io.lane_occupancy", node=node.name).set(
                sum(lane_totals) / makespan if makespan > 0 else 0.0
            )
            obs.tracer.record(
                "fetch_batch",
                duration=makespan,
                node=node.name,
                files=len(batch.data),
                fetched=fetched,
                units=units,
                peer_fetches=peer_units,
                prefetched=len(batch.prefetched),
                nbytes=nbytes,
                background_units=background_units,
                background_makespan=background_makespan,
            )
        return batch

    def _fetch_missing(
        self, node, missing, use_cache, result, batch, cancelled, background
    ) -> tuple:
        """Plan and fetch the files the depot did not have — from a peer's
        depot where one holds them, else from shared storage — into ``batch``
        and the depot; returns what :data:`_NOTHING_FETCHED` lists."""
        shared = self.cluster.shared_data
        get_dollars = self.cluster.shared.cost.get_cost()
        obs = self.cluster.obs

        bypass = self._bypass_keys(node, missing)
        groups = plan_fetch(missing, set(), bypass).groups
        first_fetch_index = min(r.container_index for r in missing)

        # Peel peer-resident files out of their groups into network units.
        units: List[Tuple[str, object, List[FetchRequest]]] = []
        for group in groups:
            remainder: List[FetchRequest] = []
            for request in group:
                peer = None
                if use_cache and request.key not in bypass:
                    peer = self._peer_with(node, request.key)
                if peer is not None:
                    units.append(("peer", peer, [request]))
                else:
                    remainder.append(request)
            if remainder:
                units.append(("s3", None, remainder))

        # Execute units in plan order, collecting per-unit durations for
        # the lane charge.  Background units keep their position in the
        # execution order (identical request/fault-draw sequence either
        # way) but their durations are pooled separately.
        durations: List[float] = []
        background_durations: List[float] = []
        fetched_keys: Set[str] = set()
        total_fetched_bytes = 0
        before = (shared.metrics.transient_failures, shared.metrics.retry_backoff_seconds)
        for kind, peer, members in units:
            if cancelled is not None and cancelled():
                raise QueryCancelled(
                    "session cancelled between batch fetch units"
                )
            names = [r.key for r in members]
            for key in names:
                if key in fetched_keys:
                    self.stats.double_fetches += 1
                fetched_keys.add(key)
            evictions_before = node.cache.stats.evictions
            if kind == "peer":
                data_map = {names[0]: peer.cache.peek(names[0])}
                if data_map[names[0]] is None:
                    # Peer lost the file after planning; fall back to S3.
                    kind = "s3"
                    data_map = {
                        names[0]: retrying(
                            lambda n=names[0]: shared.read(n), shared.metrics
                        )
                    }
            elif len(names) == 1:
                data_map = {
                    names[0]: retrying(
                        lambda n=names[0]: shared.read(n), shared.metrics
                    )
                }
            else:
                data_map = retrying(
                    lambda: shared.read_coalesced(list(names)), shared.metrics
                )
            unit_bytes = sum(len(v) for v in data_map.values())
            if kind == "peer":
                seconds = self.cluster.cost_model.network_seconds(unit_bytes)
                self.stats.peer_fetches += 1
                result.peer_fetches += 1
            else:
                seconds = shared.estimate_read_seconds(unit_bytes)
                self.stats.s3_gets += 1
                result.s3_requests += 1
                result.s3_dollars += get_dollars
                result.storage_io_seconds += seconds
                if len(names) > 1:
                    self.stats.coalesced_gets += 1
                    result.coalesced_gets += 1
            if background and all(r.key in background for r in members):
                background_durations.append(seconds)
                self.stats.background_fetches += 1
            else:
                durations.append(seconds)
            total_fetched_bytes += unit_bytes

            for request in members:
                data = data_map[request.key]
                node.shared_reads += 1
                node.cache.note_miss_bytes(len(data))
                result.bytes_from_shared += len(data)
                result.depot_misses += 1
                cached = False
                if use_cache:
                    # Bypass keys are rejected inside ``put`` (oversized /
                    # policy-denied), with the same bookkeeping
                    # ``fetch_storage``'s write-through attempt performs.
                    cached = node.cache.put(
                        request.key, data, info=request.info
                    )
                    if node.cache.capacity_violation() is not None:
                        self.stats.capacity_violations += 1
                if cached and request.container_index > first_fetch_index:
                    batch.prefetched.add(request.key)
                    self.stats.prefetched_files += 1
                batch.data[request.key] = data
            if obs.enabled and kind == "s3":
                obs.tracer.record(
                    "s3_get",
                    duration=seconds,
                    node=node.name,
                    object=names[0],
                    nbytes=unit_bytes,
                    files=len(names),
                    evictions=node.cache.stats.evictions - evictions_before,
                )

        makespan, lane_totals = charge_parallel(durations, LANES)
        # Background hydration occupies lanes "for free": its makespan is
        # computed for observability but never folded into the scan's
        # io_seconds or the pipeline pool — the pushdown scan it races
        # already carries the critical-path charge.
        background_makespan, _ = charge_parallel(background_durations, LANES)
        _book_retries(result, shared.metrics, before)
        self.stats.fetched_files += len(fetched_keys)
        self.stats.fetched_bytes += total_fetched_bytes
        return (
            durations, makespan, lane_totals, len(fetched_keys), total_fetched_bytes, len(units),
            sum(1 for k, _, _ in units if k == "peer"),
            len(background_durations), background_makespan,
        )

    def pushdown_batch(
        self, node, items, result, pool, cancelled=None
    ) -> Dict[str, object]:
        """Run server-side selects for a scan's pushdown containers.

        ``items`` is ``[(key, columns, predicate), ...]`` in container
        order.  Pushdown requests ride their own lane pool and are never
        coalesced — a select is container-addressed compute, not a byte
        range — and they run *after* the batch fetch, so the GET request
        and fault-draw sequence of a run with pushdown is the off-run's
        sequence with SELECT draws appended, never interleaved.

        Accounting: each select's dollars fold into ``result.s3_dollars``
        (the per-query money ledger) but **not** ``result.s3_requests``,
        which stays a GET counter so differential runs can compare GET
        ledgers bit-for-bit; scanned bytes land on ``result.bytes_scanned``
        and the scheduler's pushdown stats, seconds on ``storage_io_seconds``.
        The selects' lane durations go into ``pool``, as in :meth:`fetch_batch`.
        """
        shared = self.cluster.shared_data
        obs = self.cluster.obs
        selects: Dict[str, object] = {}
        if not items:
            return selects
        self.stats.pushdown_batches += 1
        durations: List[float] = []
        before = (shared.metrics.transient_failures, shared.metrics.retry_backoff_seconds)
        for key, columns, predicate in items:
            if cancelled is not None and cancelled():
                raise QueryCancelled(
                    "session cancelled between pushdown scan units"
                )
            select = retrying(
                lambda k=key, c=columns, p=predicate: shared.select_scan(
                    k, c, p
                ),
                shared.metrics,
            )
            selects[key] = select
            durations.append(select.sim_seconds)
            result.storage_io_seconds += select.sim_seconds
            self.stats.pushdown_selects += 1
            self.stats.pushdown_bytes_scanned += select.bytes_scanned
            result.pushdown_scans += 1
            result.bytes_scanned += select.bytes_scanned
            result.s3_dollars += select.dollars
            if obs.enabled:
                obs.tracer.record(
                    "pushdown",
                    duration=select.sim_seconds,
                    node=node.name,
                    object=key,
                    scanned=select.bytes_scanned,
                    returned=select.bytes_returned,
                    rows=select.rows.num_rows,
                )
        makespan, _ = charge_parallel(durations, LANES)
        pool.add(node.name, durations)
        result.io_pooled_seconds += makespan
        _book_retries(result, shared.metrics, before)
        return selects

    def consume(self, batch: FetchBatch, node, key: str, result) -> bytes:
        """Take ``key``'s bytes out of a batch, booking prefetch credit."""
        data = batch.data[key]
        if key in batch.prefetched:
            batch.prefetched.discard(key)  # credit once
            node.cache.note_prefetch_hit(key, len(data))
            result.prefetch_hits += 1
        return data
