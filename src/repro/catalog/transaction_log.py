"""Redo log records, checkpoints, and their persistence.

Section 2.4: "Transaction commit results in transaction logs appended to a
redo log.  Transaction logs contain only metadata as the data files are
written prior to commit. ... When the total transaction log size exceeds a
threshold, the catalog writes out a checkpoint which reflects the current
state of all objects. ... Vertica retains two checkpoints, any prior
checkpoints and transaction logs can be deleted.  At startup time, the
catalog reads the most recent valid checkpoint, then applies any subsequent
transaction logs."

Records and checkpoints serialise to JSON and are stored through the UDFS
API, so the same code persists to node-local disk and uploads to shared
storage (where names gain an incarnation qualifier — section 3.5).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.mvcc import CatalogState, Op, container_to_json, container_from_json, dv_to_json, dv_from_json
from repro.catalog.objects import LiveAggregateProjection, Projection, Table, User
from repro.errors import CatalogError, ObjectNotFound
from repro.shared_storage.api import Filesystem

LOG_PREFIX = "txn_"
CHECKPOINT_PREFIX = "ckpt_"


def log_name(version: int) -> str:
    return f"{LOG_PREFIX}{version:012d}"


def checkpoint_name(version: int) -> str:
    return f"{CHECKPOINT_PREFIX}{version:012d}"


def version_of(name: str) -> int:
    return int(name.rsplit("_", 1)[1])


@dataclass(frozen=True)
class LogRecord:
    """One committed transaction: the version it produced and its ops.

    Immutable and shared by every node that applies it, so its bytes and the
    storage objects its add ops carry are derived once, here.
    """

    version: int
    ops: Tuple[Op, ...]
    epoch: int = 0  # commit timestamp in simulated seconds, informational
    #: parsed storage objects by op position (``CatalogState.apply_all``)
    payloads: Dict[int, object] = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def _bytes(self) -> bytes:
        return json.dumps(
            {"version": self.version, "ops": list(self.ops), "epoch": self.epoch}
        ).encode("utf-8")

    def to_bytes(self) -> bytes:
        return self._bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogRecord":
        try:
            obj = json.loads(data)
            version, ops = obj["version"], tuple(obj["ops"])
            if not isinstance(version, int) or not all(isinstance(op, dict) for op in ops):
                raise TypeError("version must be an int and ops a list of objects")
            return cls(version=version, ops=ops, epoch=obj.get("epoch", 0))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise CatalogError(f"damaged log record: {exc!r}") from None


@dataclass(frozen=True)
class Checkpoint:
    """Full catalog state at a version."""

    version: int
    payload: bytes

    @classmethod
    def of_state(cls, state: CatalogState) -> "Checkpoint":
        """The payload is ``json.dumps`` of one document, byte for byte, but
        joined from each catalog object's own JSON text with ``json.dumps``'s
        default ``", "`` and ``": "`` separators.  The objects are immutable
        and shared between states and nodes, so :func:`_json_text` encodes
        each once; a checkpoint costs a join, not an encode."""
        subscriptions = [
            {"node": n, "shard_id": s, "state": st}
            for (n, s), st in state.subscriptions.items()
        ]
        members = [f'"version": {json.dumps(state.version)}']
        for key, objects, to_json in (
            ("tables", state.tables, Table.to_json),
            ("projections", state.projections, Projection.to_json),
            ("live_aggs", state.live_aggs, LiveAggregateProjection.to_json),
            ("users", state.users, User.to_json),
            ("containers", state.containers, container_to_json),
            ("delete_vectors", state.delete_vectors, dv_to_json),
        ):
            texts = ", ".join(_json_text(o, to_json) for o in objects.values())
            members.append(f'"{key}": [{texts}]')
        members.append(f'"properties": {json.dumps(state.properties)}')
        members.append(f'"subscriptions": {json.dumps(subscriptions)}')
        payload = "{" + ", ".join(members) + "}"
        return cls(version=state.version, payload=payload.encode("utf-8"))

    def restore(self) -> CatalogState:
        try:
            doc = json.loads(self.payload)
            state = CatalogState()
            state.version = doc["version"]
            for t in doc["tables"]:
                table = Table.from_json(t)
                state.tables[table.name] = table
            for p in doc["projections"]:
                proj = Projection.from_json(p)
                state.projections[proj.name] = proj
            for l in doc["live_aggs"]:
                lap = LiveAggregateProjection.from_json(l)
                state.live_aggs[lap.name] = lap
            for u in doc["users"]:
                user = User.from_json(u)
                state.users[user.name] = user
            for c in doc["containers"]:
                cont = container_from_json(c)
                state.containers[str(cont.sid)] = cont
            for d in doc["delete_vectors"]:
                dv = dv_from_json(d)
                state.delete_vectors[str(dv.sid)] = dv
            state.properties = dict(doc.get("properties", {}))
            for s in doc.get("subscriptions", []):
                state.subscriptions[(s["node"], s["shard_id"])] = s["state"]
            return state
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise CatalogError(f"damaged checkpoint {self.version}: {exc!r}") from None


def _json_text(obj: object, to_json: Callable[[object], dict]) -> str:
    """``json.dumps(to_json(obj))``, encoded once per immutable catalog object."""
    try:
        return obj.__dict__["_json_text"]
    except KeyError:
        text = obj.__dict__["_json_text"] = json.dumps(to_json(obj))
        return text


class LogStore:
    """Persistence of the redo log and checkpoints through a UDFS backend."""

    def __init__(self, fs: Filesystem):
        self.fs = fs

    # -- writes ----------------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        self.fs.write(log_name(record.version), record.to_bytes())

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.fs.write(checkpoint_name(checkpoint.version), checkpoint.payload)

    # -- reads -----------------------------------------------------------------

    def checkpoint_versions(self) -> List[int]:
        return sorted(version_of(n) for n in self.fs.list(CHECKPOINT_PREFIX))

    def log_versions(self) -> List[int]:
        return sorted(version_of(n) for n in self.fs.list(LOG_PREFIX))

    def read_record(self, version: int) -> LogRecord:
        return LogRecord.from_bytes(self.fs.read(log_name(version)))

    def read_checkpoint(self, version: int) -> Checkpoint:
        return Checkpoint(version, self.fs.read(checkpoint_name(version)))

    def load_latest(self) -> Tuple[Optional[CatalogState], List[LogRecord]]:
        """Startup recovery: newest valid checkpoint + subsequent records.

        Returns ``(state_or_None, records_after_state)``.  A checkpoint
        that fails to parse is treated as invalid and the next older one is
        tried, matching "reads the most recent valid checkpoint".
        """
        base_state: Optional[CatalogState] = None
        base_version = 0
        for version in reversed(self.checkpoint_versions()):
            try:
                base_state = self.read_checkpoint(version).restore()
                base_version = version
                break
            except (CatalogError, ObjectNotFound):
                continue
        records = []
        for version in self.log_versions():
            if version > base_version:
                try:
                    records.append(self.read_record(version))
                except ObjectNotFound:  # concurrent cleanup
                    continue
        return base_state, records

    # -- retention ----------------------------------------------------------------

    def prune(self, keep_checkpoints: int = 2, floor_version: Optional[int] = None) -> int:
        """Delete superseded checkpoints and the logs they cover.

        Retains the newest ``keep_checkpoints`` checkpoints and every log
        record newer than the oldest retained checkpoint.  ``floor_version``
        (the truncation version of section 3.5) blocks deletion of anything
        at or after it: "deleting checkpoints and transaction logs after the
        truncation version is not allowed".  Returns objects deleted.
        """
        checkpoints = self.checkpoint_versions()
        if len(checkpoints) <= keep_checkpoints:
            return 0
        retained = set(checkpoints[-keep_checkpoints:])
        if floor_version is not None:
            # Revive must be able to reconstruct the truncation version, so
            # also keep the newest checkpoint at or below the floor.
            base = [v for v in checkpoints if v <= floor_version]
            if base:
                retained.add(max(base))
        min_retained = min(retained)
        deleted = 0
        for version in checkpoints:
            if version in retained:
                continue
            if floor_version is not None and version >= floor_version:
                continue
            self.fs.delete(checkpoint_name(version))
            deleted += 1
        for version in self.log_versions():
            # Logs newer than the oldest retained checkpoint are needed to
            # roll forward from it; older ones are covered by it.
            if version > min_retained:
                continue
            if floor_version is not None and version >= floor_version:
                continue
            self.fs.delete(log_name(version))
            deleted += 1
        return deleted
