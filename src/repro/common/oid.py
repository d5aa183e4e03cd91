"""Object identifiers and globally-unique storage identifiers (SIDs).

Section 5.1 / Figure 7 of the paper: a storage identifier combines a version
byte, a 120-bit random *node instance id* (regenerated each time the Vertica
process starts) and a 64-bit local catalog OID.  Node-instance randomness
makes SIDs globally unique without coordination, so every node can write
files into the single shared-storage namespace without collisions, and
cloned clusters keep generating distinct names.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class OidGenerator:
    """Monotonic 64-bit local object id counter, one per catalog."""

    start: int = 1
    _counter: "itertools.count[int]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._counter = itertools.count(self.start)

    def next_oid(self) -> int:
        return next(self._counter)


_SID_VERSION = 1


@dataclass(frozen=True, order=True)
class StorageId:
    """Globally unique storage identifier (Figure 7).

    ``instance_id`` is the 120-bit random node-instance component and
    ``local_oid`` the 64-bit per-catalog counter component.
    """

    instance_id: int
    local_oid: int
    version: int = _SID_VERSION

    def __post_init__(self) -> None:
        if not 0 <= self.instance_id < (1 << 120):
            raise ValueError("instance_id must fit in 120 bits")
        if not 0 <= self.local_oid < (1 << 64):
            raise ValueError("local_oid must fit in 64 bits")

    @cached_property
    def _name(self) -> str:
        # 8-bit version, 120-bit instance, 64-bit local id, hex-encoded.
        packed = (
            (self.version << 184) | (self.instance_id << 64) | self.local_oid
        )
        return f"{packed:048x}"

    def __str__(self) -> str:
        # Formatted once per id: the name is every catalog map's key and is
        # asked for per container per scan, sort and delete-vector lookup.
        return self._name

    @classmethod
    def parse(cls, text: str) -> "StorageId":
        """Inverse of ``str(sid)``."""
        packed = int(text, 16)
        version = packed >> 184
        instance_id = (packed >> 64) & ((1 << 120) - 1)
        local_oid = packed & ((1 << 64) - 1)
        return cls(instance_id=instance_id, local_oid=local_oid, version=version)

    @property
    def prefix(self) -> str:
        """The instance-id component of the printable name.

        The leaked-file cleanup of section 6.5 skips storage whose name has
        the prefix of any currently-running node instance id; this property
        is that prefix.
        """
        return str(self)[:2 + 30]


class SidFactory:
    """Per-process-incarnation SID generator.

    A new :class:`SidFactory` models one start of the Vertica process on a
    node: it draws a fresh 120-bit strongly-random instance id, then stamps
    each storage object with the next local OID.
    """

    def __init__(self, rng: random.Random | None = None):
        rng = rng or random.Random()
        self.instance_id = rng.getrandbits(120)
        self._oids = OidGenerator()

    def next_sid(self, local_oid: int | None = None) -> StorageId:
        if local_oid is None:
            local_oid = self._oids.next_oid()
        return StorageId(instance_id=self.instance_id, local_oid=local_oid)
