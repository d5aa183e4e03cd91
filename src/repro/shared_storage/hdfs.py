"""Simulated HDFS backend for the UDFS API (section 5.3).

The paper's UDFS layer supports three filesystems — POSIX, HDFS, and S3 —
"any one of these filesystems can serve as a storage for table data, temp
data, or metadata", making on-premises Eon deployments possible.  This
backend models HDFS's salient differences from both POSIX and S3:

* supports append and rename (unlike S3);
* every operation pays a NameNode round trip;
* writes pay a replication-pipeline penalty (default 3 replicas);
* reads stream from a DataNode at disk-like bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ObjectNotFound
from repro.shared_storage.api import Filesystem


@dataclass
class HdfsLatencyModel:
    namenode_seconds: float = 0.002
    read_bandwidth: float = 200e6
    write_bandwidth: float = 150e6
    replication: int = 3

    def read_seconds(self, nbytes: int) -> float:
        return self.namenode_seconds + nbytes / self.read_bandwidth

    def write_seconds(self, nbytes: int) -> float:
        # The write pipeline streams through `replication` DataNodes.
        return self.namenode_seconds + (
            nbytes * self.replication / self.write_bandwidth
        )


class SimulatedHDFS(Filesystem):
    """In-process HDFS stand-in: POSIX-ish semantics, cluster-ish costs."""

    def __init__(self):
        super().__init__()
        self.latency = HdfsLatencyModel()
        self._objects: Dict[str, bytes] = {}

    def write(self, name: str, data: bytes) -> None:
        self._objects[name] = bytes(data)
        self._charge("PUT", len(data), self.latency.write_seconds(len(data)))

    def read(self, name: str) -> bytes:
        try:
            data = self._objects[name]
        except KeyError:
            raise ObjectNotFound(name) from None
        self._charge("GET", len(data), self.latency.read_seconds(len(data)))
        return data

    def list(self, prefix: str = "") -> List[str]:
        self._charge("LIST", 0, self.latency.namenode_seconds)
        return sorted(n for n in self._objects if n.startswith(prefix))

    def delete(self, name: str) -> None:
        self._charge("DELETE")
        self._objects.pop(name, None)

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
        # A NameNode round trip that is no request of any class: only the
        # clock total moves.
        self.metrics.sim_seconds += self.latency.namenode_seconds

    def append(self, name: str, data: bytes) -> None:
        self._objects[name] = self._objects.get(name, b"") + bytes(data)
        self._charge("PUT", len(data), self.latency.write_seconds(len(data)))

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self.latency.read_seconds(nbytes)

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self.latency.write_seconds(nbytes)

    @property
    def object_count(self) -> int:
        return len(self._objects)
