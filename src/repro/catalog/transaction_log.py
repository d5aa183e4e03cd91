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
storage (where names gain an incarnation qualifier — section 3.5).  The log
is stored as segments: ``txn_<first>_<last>`` holds the records of versions
``first..last``, one JSON document per line.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import is_, methodcaller
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.catalog.mvcc import CatalogState, Op, _h_add_container, _h_add_delete_vector
from repro.catalog.mvcc import container_from_json, container_to_json, dv_from_json, dv_to_json
from repro.catalog.objects import LiveAggregateProjection, Projection, Table, User
from repro.errors import CatalogError, ObjectNotFound
from repro.shared_storage.api import Filesystem

LOG_PREFIX = "txn_"
CHECKPOINT_PREFIX = "ckpt_"


def segment_name(first: int, last: int) -> str:
    """A log segment holds the records of versions ``first..last``, one per
    line; a local commit writes the one-record segment ``txn_<v>_<v>``."""
    return f"{LOG_PREFIX}{first:012d}_{last:012d}"


def checkpoint_name(version: int) -> str:
    return f"{CHECKPOINT_PREFIX}{version:012d}"


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
        and shared between states and nodes, so :func:`_json_texts` encodes
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
            texts = ", ".join(_json_texts(objects.values(), to_json))
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
                _h_add_container(state, container_from_json(c))
            for d in doc["delete_vectors"]:
                _h_add_delete_vector(state, dv_from_json(d))
            state.properties = dict(doc.get("properties", {}))
            for s in doc.get("subscriptions", []):
                state.subscriptions[(s["node"], s["shard_id"])] = s["state"]
            return state
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise CatalogError(f"damaged checkpoint {self.version}: {exc!r}") from None


def _json_texts(objects: Iterable[object], to_json: Callable[[object], dict]) -> List[str]:
    """``json.dumps(to_json(o))`` of each object, encoded once per immutable
    catalog object and kept in its ``__dict__``; gathered with no Python
    call per object."""
    objects = list(objects)
    texts = list(map(methodcaller("get", "_json_text"), map(vars, objects)))
    for i in compress(range(len(texts)), map(is_, texts, repeat(None))):
        texts[i] = vars(objects[i])["_json_text"] = json.dumps(to_json(objects[i]))
    return texts


def _with_prefix(names: List[str], prefix: str) -> List[str]:
    """The names of a sorted listing that start with ``prefix``."""
    lo = bisect_left(names, prefix)
    return names[lo:bisect_left(names, prefix[:-1] + chr(ord(prefix[-1]) + 1), lo)]


class Listing:
    """What one LIST of a log store holds: checkpoint versions and log
    segments as ``(first, last)``, oldest first.  Segments never overlap: two
    that do raise :class:`CatalogError`, so no reader picks one silently."""

    def __init__(self, names: Iterable[str]):
        names = sorted(names)
        checkpoints = _with_prefix(names, CHECKPOINT_PREFIX)
        segments = _with_prefix(names, LOG_PREFIX)
        self.names = checkpoints + segments
        self.checkpoints = [int(name[len(CHECKPOINT_PREFIX):]) for name in checkpoints]
        spans = [name[len(LOG_PREFIX):].split("_") for name in segments]
        self.segments = [(int(first), int(last)) for first, last in spans]
        for (a, b), (c, d) in zip(self.segments, self.segments[1:]):
            if c <= b:
                raise CatalogError(
                    f"log segments {segment_name(a, b)} and {segment_name(c, d)} overlap"
                )

    def base_for(self, version: int) -> Optional[int]:
        """The newest checkpoint at or below ``version``."""
        at = bisect_right(self.checkpoints, version)
        return self.checkpoints[at - 1] if at else None

    def covering(self, after: int, upto: Optional[int] = None) -> List[Tuple[int, int]]:
        """The segments holding a version in ``(after, upto]``."""
        at = bisect_right(self.segments, (after, after))
        if at and self.segments[at - 1][1] > after:
            at -= 1
        spans = self.segments[at:]
        if upto is not None:
            spans = spans[:bisect_right(spans, (upto, float("inf")))]
        return spans

    def reach(self, base: int) -> int:
        """The newest version the segments carry without a gap from ``base``."""
        high = base
        for first, last in self.covering(base):
            if first > high + 1:
                break
            high = last
        return high

    def holds(self, version: int) -> bool:
        """A revive to ``version`` could start here: a checkpoint at or below
        it and segments that reach it."""
        base = self.base_for(version)
        return base is not None and self.reach(base) >= version

    def revive_set(self, version: int) -> List[str]:
        """What a revive to ``version`` reads (when :meth:`holds`): the newest
        checkpoint at or below it and the segments after that, up to it."""
        base = self.base_for(version)
        spans = self.covering(base, version)
        return [checkpoint_name(base)] + [segment_name(*span) for span in spans]

    def runs(self, after: int) -> List[List[Tuple[int, int]]]:
        """The segments holding versions above ``after``, in runs without a gap."""
        runs: List[List[Tuple[int, int]]] = []
        for span in self.covering(after):
            if runs and span[0] == runs[-1][-1][1] + 1:
                runs[-1].append(span)
            else:
                runs.append([span])
        return runs

    def interval(self) -> Tuple[int, int]:
        """The versions a revive could reach: from the oldest checkpoint to
        the end of the unbroken run of segments after the newest one."""
        if not self.checkpoints:
            return (0, 0)
        return (self.checkpoints[0], self.reach(self.checkpoints[-1]))

    def prunable(self, keep_checkpoints: int = 2, floor_version: Optional[int] = None) -> List[str]:
        """Superseded checkpoints and the segments they cover.

        Retains the newest ``keep_checkpoints`` checkpoints and every segment
        not wholly at or below the oldest retained one.  ``floor_version``
        (the truncation version of section 3.5) blocks deletion of anything
        at or after it: "deleting checkpoints and transaction logs after the
        truncation version is not allowed"; revive must be able to rebuild
        the floor, so the newest checkpoint at or below it is kept too."""
        checkpoints = self.checkpoints
        if len(checkpoints) <= keep_checkpoints:
            return []
        retained = set(checkpoints[-keep_checkpoints:])
        if floor_version is not None and self.base_for(floor_version) is not None:
            retained.add(self.base_for(floor_version))
        oldest = min(retained)
        floor = float("inf") if floor_version is None else floor_version
        victims = [
            checkpoint_name(v) for v in checkpoints if v not in retained and v < floor
        ]
        victims += [
            segment_name(first, last)
            for first, last in self.segments
            if last <= oldest and last < floor
        ]
        return victims


def parse_segment(first: int, last: int, data: bytes) -> List[LogRecord]:
    """The records of one segment; a segment cut short, or whose lines are
    not the versions ``first..last`` in order, is a :class:`CatalogError`."""
    lines = data.split(b"\n")
    if len(lines) != last - first + 1:
        raise CatalogError(
            f"damaged log segment {segment_name(first, last)}: "
            f"{len(lines)} line(s) for {last - first + 1} version(s)"
        )
    records = [LogRecord.from_bytes(line) for line in lines]
    for version, record in enumerate(records, first):
        if record.version != version:
            raise CatalogError(
                f"damaged log segment {segment_name(first, last)}: "
                f"line for version {version} holds {record.version}"
            )
    return records


class LogStore:
    """Persistence of the redo log and checkpoints through a UDFS backend.

    Both stores use one format: the node-local store receives one-record
    segments, one per commit, and the shared store receives one segment
    per sync holding every record since the last one (``Catalog.sync_to``);
    every reader goes through :class:`Listing` and :meth:`records`."""

    def __init__(self, fs: Filesystem):
        self.fs = fs

    # -- writes ----------------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        self.fs.write(segment_name(record.version, record.version), record.to_bytes())

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.fs.write(checkpoint_name(checkpoint.version), checkpoint.payload)

    # -- reads -----------------------------------------------------------------

    def listing(self) -> Listing:
        """One LIST."""
        return Listing(self.fs.list())

    def read_checkpoint(self, version: int) -> Checkpoint:
        return Checkpoint(version, self.fs.read(checkpoint_name(version)))

    def segment_bytes(
        self, run: List[Tuple[int, int]], after: int = 0, upto: Optional[int] = None
    ) -> bytes:
        """One segment's bytes: the stored lines of the segments ``run`` (an
        unbroken run) for the versions in ``(after, upto]``, as they are: no
        parse, no re-encode."""
        parts = []
        for first, last in run:
            data = self.fs.read(segment_name(first, last))
            high = last if upto is None else min(upto, last)
            if after >= first or high < last:
                data = b"\n".join(data.split(b"\n")[max(after - first + 1, 0):high - first + 1])
            parts.append(data)
        return b"\n".join(parts)

    def records(self, listing: Listing, after: int, upto: Optional[int] = None) -> List[LogRecord]:
        """The records of versions in ``(after, upto]`` the segments hold,
        oldest first (a gap is the caller's to find)."""
        records = []
        for first, last in listing.covering(after, upto):
            for record in parse_segment(first, last, self.fs.read(segment_name(first, last))):
                if after < record.version and (upto is None or record.version <= upto):
                    records.append(record)
        return records

    def load_latest(
        self, upto: Optional[int] = None
    ) -> Tuple[Optional[CatalogState], List[LogRecord]]:
        """Startup recovery: newest valid checkpoint + subsequent records.

        Returns ``(state_or_None, records_after_state)``.  A checkpoint
        that fails to parse is treated as invalid and the next older one is
        tried, matching "reads the most recent valid checkpoint".  With
        ``upto``, nothing newer than that version is read.
        """
        listing = self.listing()
        base_state: Optional[CatalogState] = None
        for version in reversed(listing.checkpoints):
            if upto is not None and version > upto:
                continue
            try:
                base_state = self.read_checkpoint(version).restore()
                break
            except (CatalogError, ObjectNotFound):
                continue
        after = base_state.version if base_state is not None else 0
        return base_state, self.records(listing, after, upto)

    # -- retention ----------------------------------------------------------------

    def discard_after(self, version: int) -> None:
        """Delete the records and checkpoints above ``version``; a segment
        holding versions on both sides keeps its lines up to it."""
        listing = self.listing()
        for first, last in listing.covering(version):
            if first <= version:
                self.fs.write(
                    segment_name(first, version), self.segment_bytes([(first, last)], upto=version)
                )
            self.fs.delete(segment_name(first, last))
        for checkpoint in listing.checkpoints:
            if checkpoint > version:
                self.fs.delete(checkpoint_name(checkpoint))

    def prune(
        self,
        keep_checkpoints: int = 2,
        floor_version: Optional[int] = None,
        listing: Optional[Listing] = None,
    ) -> Listing:
        """Delete what :meth:`Listing.prunable` names, from ``listing`` (a
        fresh LIST when None), checkpoints first; returns what remains."""
        listing = listing or self.listing()
        victims = listing.prunable(keep_checkpoints, floor_version)
        for name in victims:
            self.fs.delete(name)
        return Listing(set(listing.names).difference(victims)) if victims else listing
