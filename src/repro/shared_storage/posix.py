"""POSIX-semantics UDFS backends: real directory trees and in-memory stores.

:class:`LocalFilesystem` writes through to a real directory (used for node
local disk: transaction logs, the file cache, temp space).  To avoid
overloading a directory with too many files it spreads objects over a
two-tier fan-out derived from a hash of the name — the hash-based prefix
scheme section 5.3 describes (a plain time-ordered prefix would hotspot).

:class:`MemoryFilesystem` implements the same contract in a dict, for tests
and for modelling many node-local disks cheaply inside one process.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.common.hashing import hash_bytes
from repro.errors import ObjectNotFound, StorageError
from repro.shared_storage.api import Filesystem, NameIndex

_FANOUT = 256


class LocalFilesystem(Filesystem):
    """UDFS backend over a real POSIX directory tree."""

    #: Modelled local-disk throughput; only used for cost estimates.
    read_bandwidth = 400e6  # bytes / simulated second
    write_bandwidth = 300e6
    seek_seconds = 0.0001

    def __init__(self, root: str):
        super().__init__()
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        if not name or "/" in name or name.startswith("."):
            raise StorageError(f"invalid object name: {name!r}")
        bucket = hash_bytes(name.encode("utf-8")) % _FANOUT
        return os.path.join(self.root, f"{bucket:02x}", name)

    def write(self, name: str, data: bytes) -> None:
        path = self._path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Write-then-rename so readers never observe a partial file.
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        self._charge("PUT", len(data), self.estimate_write_seconds(len(data)))

    def read(self, name: str) -> bytes:
        path = self._path(name)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            raise ObjectNotFound(name) from None
        self._charge("GET", len(data), self.estimate_read_seconds(len(data)))
        return data

    def list(self, prefix: str = "") -> List[str]:
        self._charge("LIST")
        names: List[str] = []
        if not os.path.isdir(self.root):
            return names
        for bucket in os.listdir(self.root):
            bucket_dir = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in os.listdir(bucket_dir):
                if name.endswith(".tmp"):
                    continue
                if name.startswith(prefix):
                    names.append(name)
        return sorted(names)

    def delete(self, name: str) -> None:
        self._charge("DELETE")
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            raise ObjectNotFound(name) from None

    def rename(self, old: str, new: str) -> None:
        new_path = self._path(new)
        os.makedirs(os.path.dirname(new_path), exist_ok=True)
        try:
            os.replace(self._path(old), new_path)
        except FileNotFoundError:
            raise ObjectNotFound(old) from None

    def append(self, name: str, data: bytes) -> None:
        path = self._path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "ab") as f:
            f.write(data)
        self._charge("PUT", len(data))

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.read_bandwidth

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.write_bandwidth


class MemoryFilesystem(Filesystem):
    """Dict-backed store with POSIX-style rename/append support."""

    read_bandwidth = 400e6
    write_bandwidth = 300e6
    seek_seconds = 0.0001

    def __init__(self) -> None:
        super().__init__()
        self._objects: Dict[str, bytes] = {}
        self._names = NameIndex()

    def write(self, name: str, data: bytes) -> None:
        self._objects[name] = bytes(data)
        self._names.add(name)
        self._charge("PUT", len(data), self.estimate_write_seconds(len(data)))

    def read(self, name: str) -> bytes:
        try:
            data = self._objects[name]
        except KeyError:
            raise ObjectNotFound(name) from None
        self._charge("GET", len(data), self.estimate_read_seconds(len(data)))
        return data

    def list(self, prefix: str = "") -> List[str]:
        self._charge("LIST")
        return self._names.with_prefix(prefix)

    def delete(self, name: str) -> None:
        self._charge("DELETE")
        self._objects.pop(name, None)
        self._names.discard(name)

    def size(self, name: str) -> int:
        try:
            return len(self._objects[name])
        except KeyError:
            raise ObjectNotFound(name) from None

    def rename(self, old: str, new: str) -> None:
        try:
            self._objects[new] = self._objects.pop(old)
        except KeyError:
            raise ObjectNotFound(old) from None
        self._names.discard(old)
        self._names.add(new)

    def append(self, name: str, data: bytes) -> None:
        self._objects[name] = self._objects.get(name, b"") + bytes(data)
        self._names.add(name)
        self._charge("PUT", len(data))

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.read_bandwidth

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.write_bandwidth

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._objects.values())
