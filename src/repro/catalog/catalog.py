"""The per-node catalog: MVCC states, redo log, checkpoints, upload sync.

Every node runs one :class:`Catalog`.  It holds the current materialised
:class:`CatalogState`, hands out pinned snapshots to running queries,
applies committed transactions (filtered to the node's subscribed shards),
appends each commit to the node-local redo log, checkpoints when the log
grows, and uploads the log as segments, and its checkpoints, to shared
storage asynchronously — yielding the node's *sync interval* used by the
consensus truncation version computation of section 3.5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.mvcc import CatalogState, Op
from repro.catalog.occ import ObjectVersions, WriteSet
from repro.catalog.transaction_log import (
    Checkpoint,
    Listing,
    LogRecord,
    LogStore,
    checkpoint_name,
    segment_name,
)
from repro.errors import CatalogError
from repro.shared_storage.api import Filesystem


class CatalogSnapshot:
    """A pinned, immutable view of the catalog at one version."""

    def __init__(self, catalog: "Catalog", state: CatalogState):
        self._catalog = catalog
        self.state = state
        self.version = state.version
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._catalog._unpin(self.version)

    def __enter__(self) -> "CatalogSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class Catalog:
    """Node-local catalog instance."""

    def __init__(
        self,
        local_fs: Filesystem,
        subscribed_shards: Optional[Set[int]] = None,
        checkpoint_every: int = 64,
    ):
        self.log_store = LogStore(local_fs)
        self.state = CatalogState()
        self.versions = ObjectVersions()
        self.checkpoint_every = checkpoint_every
        #: None = apply every shard's metadata (e.g. Enterprise / full node)
        self.subscribed_shards = subscribed_shards
        self.truncation_floor: Optional[int] = None
        self._pins: Dict[int, int] = {}  # version -> pin count
        self._recent: Dict[int, CatalogState] = {0: self.state}
        self._commits_since_checkpoint = 0
        self._last_uploaded = 0

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        version = self.state.version
        self._pins[version] = self._pins.get(version, 0) + 1
        self._recent.setdefault(version, self.state)
        return CatalogSnapshot(self, self.state)

    def _unpin(self, version: int) -> None:
        count = self._pins.get(version, 0) - 1
        if count <= 0:
            self._pins.pop(version, None)
        else:
            self._pins[version] = count
        self._gc_states()

    def pinned_states(self) -> List[CatalogState]:
        """The retained catalog states behind each pinned version.

        The simulation harness checks that *every* state a query could
        still read from — not just the newest — references only storage
        objects that exist on shared storage.
        """
        return [
            self._recent[version]
            for version in sorted(self._pins)
            if version in self._recent
        ]

    def min_pinned_version(self) -> int:
        """Oldest catalog version any running query references.

        Section 6.5 gossips this value across the cluster to decide when a
        dropped file can no longer be referenced by any query.
        """
        if self._pins:
            return min(self._pins)
        return self.state.version

    def _gc_states(self) -> None:
        keep = set(self._pins)
        keep.add(self.state.version)
        for version in list(self._recent):
            if version not in keep:
                del self._recent[version]

    # -- commit application ---------------------------------------------------------

    def apply_commit(self, record: LogRecord, persist: bool = True) -> List[str]:
        """Apply one committed transaction to this node's catalog.

        Returns the storage names the commit removed from this node's state
        (see :meth:`CatalogState.apply_all`).
        """
        if record.version != self.state.version + 1:
            raise CatalogError(
                f"commit version {record.version} does not follow "
                f"{self.state.version}"
            )
        new_state = self.state.copy(record.ops)
        removed = new_state.apply_all(record.ops, self.subscribed_shards, record.payloads)
        new_state.version = record.version
        self.state = new_state
        self._recent[new_state.version] = new_state
        self.versions.note_commit(record.version, list(record.ops))
        self._gc_states()
        if persist:
            self.log_store.append(record)
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint >= self.checkpoint_every:
                self.write_checkpoint()
        return removed

    def reshard(
        self, sources: Optional[Dict[int, CatalogState]] = None, base: Optional["Catalog"] = None
    ) -> None:
        """Hold the storage metadata of the shards ``subscribed_shards`` names
        and no others (section 3.3): every other shard's objects go, and each
        shard in ``sources`` takes what its source state holds and this
        catalog lacks (:meth:`CatalogState.holding`).  With ``base``, start
        over from that peer catalog's state and object versions.  The result
        is installed at the same version; no log record says so, so the
        caller checkpoints."""
        if base is not None:
            self.versions = base.versions.copy()
            self._recent = {}
        state = (base or self).state.holding(self.subscribed_shards, sources or {})
        self.state = self._recent[state.version] = state

    def validate_write_set(self, write_set: WriteSet) -> None:
        write_set.validate(self.versions)

    # -- checkpointing ----------------------------------------------------------------

    def write_checkpoint(self) -> None:
        self.log_store.write_checkpoint(Checkpoint.of_state(self.state))
        self._commits_since_checkpoint = 0
        self.log_store.prune(keep_checkpoints=2, floor_version=self.truncation_floor)

    # -- startup recovery ----------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild state from the local log store; returns versions replayed.

        "At startup time, the catalog reads the most recent valid
        checkpoint, then applies any subsequent transaction logs to arrive
        at the most up to date catalog state." (section 2.4)
        """
        base, records = self.log_store.load_latest()
        state = base if base is not None else CatalogState()
        replayed = 0
        for record in records:
            if record.version != state.version + 1:
                # A gap means the tail is incomplete; stop at the last
                # contiguous version (later commits were lost).
                break
            next_state = state if replayed else state.copy()
            next_state.apply_all(record.ops, self.subscribed_shards)
            next_state.version = record.version
            state = next_state
            self.versions.note_commit(record.version, list(record.ops))
            replayed += 1
        self.state = state
        self._recent = {state.version: state}
        return replayed

    # -- truncation (revive support) ----------------------------------------------------

    def truncate_to(self, version: int) -> None:
        """Discard all commits after ``version`` and re-checkpoint.

        Used by revive (section 3.5): "Each node reads its catalog,
        truncates all commits subsequent to the truncation version, and
        writes a new checkpoint."  The upload mark comes down with it: the
        version numbers above ``version`` will be reused by new commits.
        """
        if version > self.state.version:
            raise CatalogError(
                f"cannot truncate forward (at {self.state.version}, "
                f"requested {version})"
            )
        self._last_uploaded = min(self._last_uploaded, version)
        if version == self.state.version:
            self.write_checkpoint()
            return
        # Rebuild from the newest checkpoint at or below `version`.
        state, records = self.log_store.load_latest(upto=version)
        state = state if state is not None else CatalogState()
        for record in records:
            if record.version != state.version + 1:
                raise CatalogError(
                    f"log gap at {record.version} while truncating to {version}"
                )
            state = state.copy(record.ops)
            state.apply_all(record.ops, self.subscribed_shards)
            state.version = record.version
        if state.version != version:
            raise CatalogError(
                f"could not reconstruct version {version} (reached {state.version})"
            )
        # Newer log records and checkpoints are discarded transactions now.
        self.log_store.discard_after(version)
        self.state = state
        self._recent = {state.version: state}
        self._pins.clear()
        self.write_checkpoint()

    # -- shared-storage sync --------------------------------------------------------------

    def sync_to(self, shared: LogStore, include_checkpoint: bool = False) -> Tuple[int, int]:
        """Upload the log records after the upload mark as one segment, and
        the newest local checkpoint if it is newer than any the store holds;
        prune the store; returns the resulting revivable sync interval.

        "Each node writes transaction logs to local storage, then
        independently uploads them to shared storage on a regular,
        configurable interval." (section 3.5)  The store is listed once and
        pruned from that listing by the rule the local store follows
        (:meth:`Listing.prunable`).  A checkpoint is encoded only when the
        store holds none, or when the caller asks for one at the current
        version; otherwise a checkpoint goes up as it was stored.
        """
        local = self.log_store.listing()
        listing = shared.listing()
        written = []
        # Versions the store already holds are never sent twice (a node that
        # lost its disk starts over with no mark).
        mark = max(self._last_uploaded, listing.segments[-1][1] if listing.segments else 0)
        for run in local.runs(mark):
            name = segment_name(max(run[0][0], mark + 1), run[-1][1])
            shared.fs.write(name, self.log_store.segment_bytes(run, after=mark))
            written.append(name)
            self._last_uploaded = run[-1][1]
        newest = listing.checkpoints[-1] if listing.checkpoints else None
        if include_checkpoint or newest is None:
            if newest != self.state.version:
                shared.write_checkpoint(Checkpoint.of_state(self.state))
                written.append(checkpoint_name(self.state.version))
        elif local.checkpoints and local.checkpoints[-1] > newest:
            name = checkpoint_name(local.checkpoints[-1])
            shared.fs.write(name, self.log_store.fs.read(name))
            written.append(name)
        listing = Listing(listing.names + written)
        return shared.prune(floor_version=self.truncation_floor, listing=listing).interval()

