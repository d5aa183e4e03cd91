"""The per-node catalog: MVCC states, redo log, checkpoints, upload sync.

Every node runs one :class:`Catalog`.  It holds the current materialised
:class:`CatalogState`, hands out pinned snapshots to running queries,
applies committed transactions (filtered to the node's subscribed shards),
appends each commit to the node-local redo log, checkpoints when the log
grows, and uploads logs/checkpoints to shared storage asynchronously —
yielding the node's *sync interval* used by the consensus truncation
version computation of section 3.5.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.mvcc import CatalogState, Op
from repro.catalog.occ import ObjectVersions, WriteSet
from repro.catalog.transaction_log import (
    Checkpoint,
    LogRecord,
    LogStore,
    checkpoint_name,
    log_name,
    version_of,
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

    def pinned_versions(self) -> List[int]:
        """Versions running queries hold pins on (invariant accessor)."""
        return sorted(self._pins)

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
        writes a new checkpoint."
        """
        if version > self.state.version:
            raise CatalogError(
                f"cannot truncate forward (at {self.state.version}, "
                f"requested {version})"
            )
        if version == self.state.version:
            self.write_checkpoint()
            return
        # Rebuild from scratch up to `version`.
        base, records = self.log_store.load_latest()
        state = base if base is not None else CatalogState()
        if state.version > version:
            # The newest checkpoint is beyond the truncation point; rebuild
            # from older material if available, else replay everything.
            state = CatalogState()
            for ckpt_version in reversed(self.log_store.checkpoint_versions()):
                if ckpt_version <= version:
                    state = self.log_store.read_checkpoint(ckpt_version).restore()
                    break
            records = [
                self.log_store.read_record(v)
                for v in self.log_store.log_versions()
                if state.version < v <= version
            ]
        for record in records:
            if record.version > version:
                break
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
        # Remove newer log records and checkpoints — they are discarded
        # transactions now.
        for v in self.log_store.log_versions():
            if v > version:
                self.log_store.fs.delete(log_name(v))
        for v in self.log_store.checkpoint_versions():
            if v > version:
                self.log_store.fs.delete(checkpoint_name(v))
        self.state = state
        self._recent = {state.version: state}
        self._pins.clear()
        self.write_checkpoint()

    # -- shared-storage sync --------------------------------------------------------------

    def sync_to(self, shared: LogStore, include_checkpoint: bool = False) -> Tuple[int, int]:
        """Upload new log records (and optionally a checkpoint) to shared
        storage; returns the resulting revivable sync interval.

        "Each node writes transaction logs to local storage, then
        independently uploads them to shared storage on a regular,
        configurable interval." (section 3.5)
        """
        local = self.log_store.log_names()
        uploaded = shared.log_names()
        # Names are fixed-width, so a sorted listing is searched by name.
        for name in local[bisect_right(local, log_name(self._last_uploaded)):]:
            at = bisect_left(uploaded, name)
            if at == len(uploaded) or uploaded[at] != name:
                # The stored bytes as they are: no parse, no re-encode.
                shared.fs.write(name, self.log_store.fs.read(name))
        if local:
            self._last_uploaded = max(self._last_uploaded, version_of(local[-1]))
        if include_checkpoint or not shared.checkpoint_names():
            existing = shared.checkpoint_names()
            name = checkpoint_name(self.state.version)
            at = bisect_left(existing, name)
            if at == len(existing) or existing[at] != name:
                shared.write_checkpoint(Checkpoint.of_state(self.state))
        return revivable_interval(shared)


def revivable_interval(store: LogStore) -> Tuple[int, int]:
    """The range of versions a node could revive to from ``store``.

    Lower bound: oldest uploaded checkpoint.  Upper bound: newest version V
    such that some checkpoint cv <= V exists and logs (cv, V] are all
    present.  Deleting stale checkpoints raises the lower bound; uploading
    transactions raises the upper bound (section 3.5).  The logs are walked
    forward from the newest checkpoint's place in their listing.
    """
    checkpoints = store.checkpoint_names()
    if not checkpoints:
        return (0, 0)
    low = version_of(checkpoints[0])
    high = version_of(checkpoints[-1])
    logs = store.log_names()
    at = bisect_right(logs, log_name(high))
    while at < len(logs) and logs[at] == log_name(high + 1):
        high += 1
        at += 1
    return (low, high)
