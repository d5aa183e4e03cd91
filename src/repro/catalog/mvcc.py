"""Catalog state under multi-version concurrency control.

The in-memory catalog "uses a multi-version concurrency control mechanism,
exposing consistent snapshots to database read operations and copy-on-write
semantics for write operations" (section 2.4).

:class:`CatalogState` is the materialised catalog at one version.  Commits
never mutate a state in place: :meth:`CatalogState.copy` produces a
successor that copies the maps the transaction's op kinds write and shares
the rest, and the operations are applied to it, so any snapshot handed to a
running query stays frozen.

Catalog mutations are *operations*: small JSON-serialisable dicts with an
``op`` tag and an optional ``shard`` association.  The same op stream
drives commit application, redo-log replay, checkpoint restore, and the
shard-scoped metadata distribution of section 3.2 (a node only applies ops
for shards it subscribes to, plus all global ops).
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.objects import (
    LiveAggregateProjection,
    Projection,
    Table,
    User,
)
from repro.catalog.sort_key import SortKeyIndex
from repro.common.oid import StorageId
from repro.common.types import ColumnType, SchemaColumn
from repro.errors import CatalogError
from repro.storage.container import ROSContainer
from repro.storage.delete_vector import DeleteVector

Op = Dict[str, object]


# ---------------------------------------------------------------------------
# storage-object (de)serialisation


def container_to_json(c: ROSContainer) -> dict:
    return {
        "sid": str(c.sid),
        "projection": c.projection,
        "shard_id": c.shard_id,
        "row_count": c.row_count,
        "size_bytes": c.size_bytes,
        "min_values": [list(p) for p in c.min_values],
        "max_values": [list(p) for p in c.max_values],
        "partition_key": c.partition_key,
        "creation_version": c.creation_version,
    }


def container_from_json(obj: dict) -> ROSContainer:
    return ROSContainer(
        sid=StorageId.parse(obj["sid"]),
        projection=obj["projection"],
        shard_id=obj["shard_id"],
        row_count=obj["row_count"],
        size_bytes=obj["size_bytes"],
        min_values=tuple((k, v) for k, v in obj["min_values"]),
        max_values=tuple((k, v) for k, v in obj["max_values"]),
        partition_key=obj.get("partition_key"),
        creation_version=obj.get("creation_version", 0),
    )


def dv_to_json(dv: DeleteVector) -> dict:
    return {
        "sid": str(dv.sid),
        "target_sid": str(dv.target_sid),
        "projection": dv.projection,
        "shard_id": dv.shard_id,
        "deleted_count": dv.deleted_count,
        "size_bytes": dv.size_bytes,
        "creation_version": dv.creation_version,
    }


def dv_from_json(obj: dict) -> DeleteVector:
    return DeleteVector(
        sid=StorageId.parse(obj["sid"]),
        target_sid=StorageId.parse(obj["target_sid"]),
        projection=obj["projection"],
        shard_id=obj["shard_id"],
        deleted_count=obj["deleted_count"],
        size_bytes=obj["size_bytes"],
        creation_version=obj.get("creation_version", 0),
    )


# ---------------------------------------------------------------------------
# op constructors (the only way library code should build ops)


def op_create_table(table: Table) -> Op:
    return {"op": "create_table", "table": table.to_json()}


def op_drop_table(name: str) -> Op:
    return {"op": "drop_table", "name": name}


def op_add_column(table: str, column: SchemaColumn) -> Op:
    return {
        "op": "add_column",
        "table": table,
        "column": {"name": column.name, "type": column.ctype.value},
    }


def op_create_projection(projection: Projection) -> Op:
    return {"op": "create_projection", "projection": projection.to_json()}


def op_drop_projection(name: str) -> Op:
    return {"op": "drop_projection", "name": name}


def op_create_live_agg(lap: LiveAggregateProjection) -> Op:
    return {"op": "create_live_agg", "lap": lap.to_json()}


def op_create_user(user: User) -> Op:
    return {"op": "create_user", "user": user.to_json()}


def op_add_container(container: ROSContainer) -> Op:
    return {
        "op": "add_container",
        "shard": container.shard_id,
        "container": container_to_json(container),
    }


def op_drop_container(sid: str, shard_id: Optional[int]) -> Op:
    return {"op": "drop_container", "shard": shard_id, "sid": sid}


def op_add_delete_vector(dv: DeleteVector) -> Op:
    return {"op": "add_delete_vector", "shard": dv.shard_id, "dv": dv_to_json(dv)}


def op_drop_delete_vector(sid: str, shard_id: Optional[int]) -> Op:
    return {"op": "drop_delete_vector", "shard": shard_id, "sid": sid}


def op_set_property(key: str, value: object) -> Op:
    return {"op": "set_property", "key": key, "value": value}


def op_set_subscription(node: str, shard_id: int, state: str) -> Op:
    return {"op": "set_subscription", "node": node, "shard_id": shard_id, "state": state}


def op_drop_subscription(node: str, shard_id: int) -> Op:
    return {"op": "drop_subscription", "node": node, "shard_id": shard_id}


def op_shard_of(op: Op) -> Optional[int]:
    """The shard an op belongs to; None means global (all nodes apply it)."""
    return op.get("shard")  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the state


class CatalogState:
    """Materialised catalog contents at a single version."""

    def __init__(self) -> None:
        self.version = 0
        self.tables: Dict[str, Table] = {}
        self.projections: Dict[str, Projection] = {}
        self.live_aggs: Dict[str, LiveAggregateProjection] = {}
        self.users: Dict[str, User] = {}
        self.containers: Dict[str, ROSContainer] = {}
        self.delete_vectors: Dict[str, DeleteVector] = {}
        #: free-form cluster properties (mergeout coordinators, ...)
        self.properties: Dict[str, object] = {}
        #: (node, shard_id) -> subscription state name
        self.subscriptions: Dict[tuple, str] = {}
        #: map names -> (those maps, what :meth:`derived` made from them).
        self._derived: Dict[Tuple[str, ...], Tuple[list, dict]] = {}
        #: (projection, shard id) -> {name: container} in catalog order;
        #: ``_owned`` holds the keys of the groups this state may change in
        #: place (None: the dict of groups itself is shared too).
        self._groups: Dict[Tuple[str, Optional[int]], Dict[str, ROSContainer]] = {}
        self._owned: Optional[Set[Tuple[str, Optional[int]]]] = set()
        #: (projection, shard id) -> that group's sort-key index, copied and
        #: shared with the groups.
        self._indexes: Dict[Tuple[str, Optional[int]], SortKeyIndex] = {}

    def copy(self, ops: Optional[Sequence[Op]] = None) -> "CatalogState":
        """A successor state to apply ``ops`` to.

        Only the maps those ops' kinds write are copied (with no ``ops``,
        every map); the others are shared with this state, which is safe
        because no state is mutated after its commit.  What was derived from
        the shared maps is carried over, the rest dropped.  The container
        groups and their sort-key indexes are shared whole: a handler copies
        a group before it changes it (:func:`_group`).
        """
        new = CatalogState.__new__(CatalogState)
        new.__dict__.update(self.__dict__)
        written = _MAPS if ops is None else {m for op in ops for m in _entry(op)[1]}
        for name in written:
            setattr(new, name, getattr(self, name).copy())
        new._derived = _underived(self._derived, written)
        # Shared from here on: whichever state writes a group copies it.
        self._owned = new._owned = None
        return new

    def holding(self, shards: Set[int], sources: Dict[int, "CatalogState"]) -> "CatalogState":
        """A successor that holds the storage objects of ``shards`` only and,
        for each shard in ``sources``, what that source holds of it and this
        state lacks, added in the source's order through the add handlers.
        A shard goes by its whole groups, with no walk of ``containers``.
        With nothing to change, this state itself."""
        gone = [key for key in self._groups if key[1] not in shards]
        dvs = [sid for sid, d in self.delete_vectors.items() if d.shard_id not in shards]
        containers = [
            c for shard, source in sources.items() for sid, c in source.containers.items()
            if c.shard_id == shard and sid not in self.containers
        ]
        vectors = [
            d for shard, source in sources.items() for sid, d in source.delete_vectors.items()
            if d.shard_id == shard and sid not in self.delete_vectors
        ]
        if not (gone or dvs or containers or vectors):
            return self
        new = self.copy()
        _drop_groups(new, gone)
        for sid in dvs:
            del new.delete_vectors[sid]
        for c in containers:
            _h_add_container(new, c)
        for d in vectors:
            _h_add_delete_vector(new, d)
        return new

    def derived(self, maps: Tuple[str, ...], key: object, build: Callable[[], object]):
        """``build()``, made at most once for what the maps named hold.

        Tied to the identity of those maps, not to ``version`` (numbers
        repeat after truncation and revive): a successor sharing them shares
        the value, one that copied them derives its own, and nothing has to
        be invalidated.  The value must depend on those maps alone.
        """
        held = vars(self).__getitem__
        entry = self._derived.get(maps)
        if entry is None or not all(map(is_, entry[0], map(held, maps))):
            entry = self._derived[maps] = (list(map(held, maps)), {})
        memo = entry[1]
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- lookups --------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def projection(self, name: str) -> Projection:
        try:
            return self.projections[name]
        except KeyError:
            raise CatalogError(f"no projection named {name!r}") from None

    def projections_of(self, table: str) -> List[Projection]:
        return [p for p in self.projections.values() if p.anchor_table == table]

    def live_aggs_of(self, table: str) -> List[LiveAggregateProjection]:
        return [l for l in self.live_aggs.values() if l.anchor_table == table]

    def containers_of(
        self, projection: str, shard_id: Optional[int] = None
    ) -> List[ROSContainer]:
        """The projection's containers (one shard's, or with ``None`` all),
        in catalog order.

        One shard's is one group, kept by the handlers and carried from
        state to state by its successors.  All shards' is one walk per state
        and projection.
        """
        if shard_id is None:
            return list(self.derived(("containers",), projection, lambda: [
                c for c in self.containers.values() if c.projection == projection
            ]))
        return list(self._groups.get((projection, shard_id), {}).values())

    def shard_containers(self, shard_id: int) -> List[ROSContainer]:
        """One shard's containers, group by group."""
        return [c for key, group in self._groups.items() if key[1] == shard_id
                for c in group.values()]

    def sort_key_index(
        self, projection: str, shard_id: Optional[int], column: str
    ) -> Optional[SortKeyIndex]:
        """Group (projection, shard id)'s containers by their bounds on
        ``column``, or None for a group with no containers.

        Built on the first ask and kept with its group: the add- and
        drop-container handlers keep it, a successor copies it only with its
        group, and a dropped group takes it along.
        """
        key = (projection, shard_id)
        group = self._groups.get(key)
        if group is None:
            return None
        index = self._indexes.get(key)
        if index is None or index.column != column:
            index = self._indexes[key] = SortKeyIndex.of(group, column)
        return index

    def delete_vectors_by_target(self) -> Dict[str, List[DeleteVector]]:
        """Container name -> its delete vectors, in catalog order (shared
        lists: not to be changed): one walk of ``delete_vectors``."""

        def by_target() -> Dict[str, List[DeleteVector]]:
            groups: Dict[str, List[DeleteVector]] = {}
            for d in self.delete_vectors.values():
                groups.setdefault(str(d.target_sid), []).append(d)
            return groups

        return self.derived(("delete_vectors",), None, by_target)

    def delete_vectors_for(self, target_sid: str) -> List[DeleteVector]:
        return list(self.delete_vectors_by_target().get(target_sid, ()))

    def storage_sids(self) -> Set[str]:
        """Names of every storage object this state references."""
        sids = {str(c.sid) for c in self.containers.values()}
        sids |= {str(d.sid) for d in self.delete_vectors.values()}
        return sids

    # -- application ------------------------------------------------------------

    def apply(self, op: Op) -> List[str]:
        return self.apply_all([op])

    def apply_all(
        self,
        ops: Sequence[Op],
        shard_filter: Optional[Set[int]] = None,
        payloads: Optional[Dict[int, object]] = None,
    ) -> List[str]:
        """Apply ``ops``, skipping shard-scoped ops outside ``shard_filter``.

        ``shard_filter=None`` applies everything (a node subscribed to all
        shards, or log replay for a full catalog).  Returns the storage
        names the ops removed from this state, cascades included: the
        reaper's candidates (one re-added later in the same transaction is
        among them but still held, so the caller looks before it reaps).
        ``payloads`` memoises each add op's parsed storage object by
        position; nodes applying one record pass the record's dict, so an op
        is parsed once and they share one immutable object.
        """
        removed: List[str] = []
        if payloads is None:
            payloads = {}
        for i, op in enumerate(ops):
            shard = op_shard_of(op)
            if shard is not None and shard_filter is not None and shard not in shard_filter:
                continue
            handler, written = _entry(op)
            if self._derived:
                # This state's own maps change in place from here on.
                self._derived = _underived(self._derived, written)
            spec = _PAYLOADS.get(op["op"])  # type: ignore[arg-type]
            if spec is None:
                removed += handler(self, op) or ()
                continue
            if i not in payloads:
                key, parse = spec
                try:
                    payloads[i] = parse(op[key])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CatalogError(f"damaged {op['op']} op: {exc!r}") from None
            handler(self, payloads[i])
        return removed


def _underived(derived: dict, written) -> dict:
    """``derived`` without what was made from any of the maps ``written``."""
    written = set(written)
    return {maps: entry for maps, entry in derived.items() if written.isdisjoint(maps)}


# -- op handlers -------------------------------------------------------------
#
# A handler returns the storage names it removed from the state (or None):
# the commit path reaps by that delta instead of diffing whole catalogs.


def _group(state: CatalogState, key: Tuple[str, Optional[int]]) -> dict:
    """Group ``key`` of the state to change in place.  What a state before
    shares is copied first: the dicts of groups and of indexes, then the
    group and its index."""
    owned = state._owned
    if owned is None:
        state._groups, state._indexes = state._groups.copy(), state._indexes.copy()
        owned = state._owned = set()
    if key in owned:
        return state._groups[key]
    # ``dict.copy``, not ``dict()``: it clones the table even after deletes.
    group = state._groups[key] = state._groups.get(key, {}).copy()
    index = state._indexes.get(key)
    if index is not None:
        state._indexes[key] = index.copy(group)
    owned.add(key)
    return group


def _drop_groups(state: CatalogState, keys: Sequence[Tuple[str, Optional[int]]]) -> List[str]:
    """Remove the groups ``keys`` whole, with their indexes and their
    containers; returns the containers' names.  A group a state before
    shares is left to it as it is."""
    if state._owned is None:
        state._groups, state._indexes = state._groups.copy(), state._indexes.copy()
        state._owned = set()
    removed: List[str] = []
    for key in keys:
        group = state._groups.pop(key)
        state._indexes.pop(key, None)
        state._owned.discard(key)
        for sid in group:
            del state.containers[sid]
        removed += group
    return removed


def _drop_storage_of(state: CatalogState, projection: str) -> List[str]:
    """Remove a projection's containers and delete vectors; returns their names."""
    removed = _drop_groups(state, [key for key in state._groups if key[0] == projection])
    gone = [sid for sid, d in state.delete_vectors.items() if d.projection == projection]
    for sid in gone:
        del state.delete_vectors[sid]
    return removed + gone


def _h_create_table(state: CatalogState, op: Op) -> None:
    table = Table.from_json(op["table"])  # type: ignore[arg-type]
    if table.name in state.tables:
        raise CatalogError(f"table {table.name!r} already exists")
    state.tables[table.name] = table


def _h_drop_table(state: CatalogState, op: Op) -> List[str]:
    name = op["name"]
    table = state.tables.pop(name, None)
    if table is None:
        raise CatalogError(f"no table named {name!r}")
    removed: List[str] = []
    for proj in list(state.projections.values()):
        if proj.anchor_table == name:
            del state.projections[proj.name]
            removed += _drop_storage_of(state, proj.name)
    for lap in list(state.live_aggs.values()):
        if lap.anchor_table == name:
            del state.live_aggs[lap.name]
    return removed


def _h_add_column(state: CatalogState, op: Op) -> None:
    table = state.table(op["table"])  # type: ignore[arg-type]
    col = op["column"]  # type: ignore[assignment]
    new_col = SchemaColumn(col["name"], ColumnType(col["type"]))
    if new_col.name in table.schema:
        raise CatalogError(
            f"column {new_col.name!r} already exists in {table.name!r}"
        )
    state.tables[table.name] = table.with_column(new_col)


def _h_create_projection(state: CatalogState, op: Op) -> None:
    proj = Projection.from_json(op["projection"])  # type: ignore[arg-type]
    if proj.name in state.projections:
        raise CatalogError(f"projection {proj.name!r} already exists")
    table = state.table(proj.anchor_table)
    state.projections[proj.name] = proj
    state.tables[table.name] = table.with_projection(proj.name)


def _h_drop_projection(state: CatalogState, op: Op) -> List[str]:
    name = op["name"]
    proj = state.projections.pop(name, None)
    if proj is None:
        raise CatalogError(f"no projection named {name!r}")
    table = state.tables.get(proj.anchor_table)
    if table is not None:
        state.tables[table.name] = table.without_projection(name)
    return _drop_storage_of(state, name)


def _h_create_live_agg(state: CatalogState, op: Op) -> None:
    lap = LiveAggregateProjection.from_json(op["lap"])  # type: ignore[arg-type]
    if lap.name in state.live_aggs:
        raise CatalogError(f"live aggregate {lap.name!r} already exists")
    state.table(lap.anchor_table)  # must exist
    state.live_aggs[lap.name] = lap


def _h_create_user(state: CatalogState, op: Op) -> None:
    user = User.from_json(op["user"])  # type: ignore[arg-type]
    if user.name in state.users:
        raise CatalogError(f"user {user.name!r} already exists")
    state.users[user.name] = user


def _h_add_container(state: CatalogState, container: ROSContainer) -> None:
    key = str(container.sid)
    if key in state.containers:
        raise CatalogError(f"container {key} already exists")
    state.containers[key] = container
    where = (container.projection, container.shard_id)
    _group(state, where)[key] = container
    index = state._indexes.get(where)
    if index is not None:
        index.add(container)


def _h_drop_container(state: CatalogState, op: Op) -> List[str]:
    key = op["sid"]
    container = state.containers.pop(key, None)
    if container is None:
        raise CatalogError(f"no container {key}")
    where = (container.projection, container.shard_id)
    del _group(state, where)[key]
    index = state._indexes.get(where)
    if index is not None:
        index.discard(container)
    dvs = [sid for sid, d in state.delete_vectors.items() if str(d.target_sid) == key]
    for sid in dvs:
        del state.delete_vectors[sid]
    return [key] + dvs


def _h_add_delete_vector(state: CatalogState, dv: DeleteVector) -> None:
    key = str(dv.sid)
    if key in state.delete_vectors:
        raise CatalogError(f"delete vector {key} already exists")
    state.delete_vectors[key] = dv


def _h_drop_delete_vector(state: CatalogState, op: Op) -> List[str]:
    key = op["sid"]
    if state.delete_vectors.pop(key, None) is None:
        raise CatalogError(f"no delete vector {key}")
    return [key]


def _h_set_property(state: CatalogState, op: Op) -> None:
    state.properties[op["key"]] = op["value"]  # type: ignore[index]


def _h_set_subscription(state: CatalogState, op: Op) -> None:
    state.subscriptions[(op["node"], op["shard_id"])] = op["state"]  # type: ignore[index]


def _h_drop_subscription(state: CatalogState, op: Op) -> None:
    state.subscriptions.pop((op["node"], op["shard_id"]), None)


#: The maps of a :class:`CatalogState`.
_MAPS = (
    "tables", "projections", "live_aggs", "users", "containers",
    "delete_vectors", "properties", "subscriptions",
)

#: op kind -> (handler, the maps it writes).  :meth:`CatalogState.copy`
#: shares every other map with the predecessor state, so a handler that
#: writes a map it does not list here corrupts pinned snapshots.  A handler
#: that writes ``containers`` writes its groups too, through :func:`_group`.
_HANDLERS: Dict[str, Tuple[Callable[..., Optional[List[str]]], Tuple[str, ...]]] = {
    "create_table": (_h_create_table, ("tables",)),
    "drop_table": (
        _h_drop_table,
        ("tables", "projections", "live_aggs", "containers", "delete_vectors"),
    ),
    "add_column": (_h_add_column, ("tables",)),
    "create_projection": (_h_create_projection, ("tables", "projections")),
    "drop_projection": (
        _h_drop_projection, ("tables", "projections", "containers", "delete_vectors"),
    ),
    "create_live_agg": (_h_create_live_agg, ("live_aggs",)),
    "create_user": (_h_create_user, ("users",)),
    "add_container": (_h_add_container, ("containers",)),
    "drop_container": (_h_drop_container, ("containers", "delete_vectors")),
    "add_delete_vector": (_h_add_delete_vector, ("delete_vectors",)),
    "drop_delete_vector": (_h_drop_delete_vector, ("delete_vectors",)),
    "set_property": (_h_set_property, ("properties",)),
    "set_subscription": (_h_set_subscription, ("subscriptions",)),
    "drop_subscription": (_h_drop_subscription, ("subscriptions",)),
}


def _entry(op: Op) -> Tuple[Callable[..., Optional[List[str]]], Tuple[str, ...]]:
    try:
        return _HANDLERS[op["op"]]  # type: ignore[index]
    except KeyError:
        raise CatalogError(f"unknown catalog op: {op.get('op')!r}") from None


#: Add-op kind -> (key of its storage object's JSON, parser); the handler of
#: such a kind takes the parsed object, not the op.
_PAYLOADS = {
    "add_container": ("container", container_from_json),
    "add_delete_vector": ("dv", dv_from_json),
}
