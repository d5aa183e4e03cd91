"""Optimistic concurrency control for global catalog objects.

Section 6.3: holding the global catalog lock while generating ROS
containers (e.g. during ADD COLUMN) caused contention, so Eon moves to
OCC: "Modifications to metadata happen offline and up front without
requiring a global catalog lock.  Throughout the transaction, a write set
is maintained that keeps track of all the global catalog objects that have
been modified. ... Only then is the global catalog lock acquired and the
write set is validated.  The validation happens by comparing the version
tracked in the write set with the latest version of the object.  If the
versions match the validation succeeds and the transaction commits,
otherwise it rolls back."

Object versions here are the catalog version at which the object was last
modified; :class:`ObjectVersions` maintains that index as commits apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.catalog.mvcc import Op
from repro.errors import OCCConflict

#: Catalog object key: (kind, name), e.g. ("table", "sales").
ObjectKey = Tuple[str, str]


def keys_touched(op: Op) -> List[ObjectKey]:
    """The global-object keys an op reads/modifies, for write-set tracking.

    Storage ops (containers, delete vectors) touch their anchor objects:
    adding a container to a projection conflicts with dropping that
    projection, so the container op records the projection key.
    """
    kind = op["op"]
    if kind == "create_table":
        return [("table", op["table"]["name"])]  # type: ignore[index]
    if kind in ("drop_table", "add_column"):
        return [("table", op.get("name") or op.get("table"))]  # type: ignore[list-item]
    if kind == "create_projection":
        proj = op["projection"]  # type: ignore[assignment]
        return [("projection", proj["name"]), ("table", proj["anchor_table"])]
    if kind == "drop_projection":
        return [("projection", op["name"])]  # type: ignore[list-item]
    if kind == "create_live_agg":
        lap = op["lap"]  # type: ignore[assignment]
        return [("live_agg", lap["name"]), ("table", lap["anchor_table"])]
    if kind == "create_user":
        return [("user", op["user"]["name"])]  # type: ignore[index]
    if kind == "add_container":
        return [("projection", op["container"]["projection"])]  # type: ignore[index]
    if kind == "add_delete_vector":
        return [("projection", op["dv"]["projection"])]  # type: ignore[index]
    if kind in ("drop_container", "drop_delete_vector"):
        return []
    if kind == "set_property":
        return [("property", str(op["key"]))]
    if kind in ("set_subscription", "drop_subscription"):
        return [("subscription", f"{op['node']}:{op['shard_id']}")]
    return []


class ObjectVersions:
    """Index: object key -> catalog version of its last modification."""

    def __init__(self) -> None:
        self._versions: Dict[ObjectKey, int] = {}

    def version_of(self, key: ObjectKey) -> int:
        return self._versions.get(key, 0)

    def copy(self) -> "ObjectVersions":
        new = ObjectVersions()
        new._versions = dict(self._versions)
        return new

    def note_commit(self, version: int, ops: List[Op]) -> None:
        for op in ops:
            for key in keys_touched(op):
                self._versions[key] = version


@dataclass
class WriteSet:
    """Per-transaction record of object versions observed at read time."""

    observed: Dict[ObjectKey, int] = field(default_factory=dict)

    def record(self, key: ObjectKey, version: int) -> None:
        # First observation wins: validation must compare against the
        # version seen when the transaction first read the object.
        self.observed.setdefault(key, version)

    def record_ops(self, ops: List[Op], index: ObjectVersions) -> None:
        for op in ops:
            for key in keys_touched(op):
                self.record(key, index.version_of(key))

    def validate(self, index: ObjectVersions) -> None:
        """Raise :class:`OCCConflict` if any observed object moved on."""
        for key, seen in self.observed.items():
            latest = index.version_of(key)
            if latest != seen:
                raise OCCConflict(
                    f"write-set conflict on {key}: observed version {seen}, "
                    f"latest {latest}"
                )
