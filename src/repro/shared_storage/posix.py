"""The in-process UDFS backend: :class:`MemoryFilesystem`.

It is a node's local disk (the file cache, the local transaction log) and
Enterprise's catalog store, modelled many to a process inside one dict.
Unlike :class:`~repro.shared_storage.s3.SimulatedS3` it accepts an
overwrite, as a local disk does; like every backend it offers only the
UDFS operations (section 5.3): no rename and no append.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ObjectNotFound
from repro.shared_storage.api import Filesystem, NameIndex


class MemoryFilesystem(Filesystem):
    """Dict-backed store at local-disk cost."""

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

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.read_bandwidth

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.write_bandwidth
