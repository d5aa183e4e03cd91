"""Container- and block-level pruning from min/max statistics.

"Vertica accomplishes this by tracking minimum and maximum values of
columns in each storage and using expression analysis to determine if a
predicate could ever be true for the given minimum and maximum"
(section 2.1).  Storage providers call :func:`prune_containers` before
fetching container bytes; scans additionally prune blocks inside a
container through :meth:`ColumnReader.block_mask`.

A projection's sort order locates data as well as compressing it: the
containers of one (projection, shard) group are indexed by their bounds on
the leading sort column (:meth:`CatalogState.sort_key_index`), so a scan
bounded on that column tests only the containers the index finds
(:func:`prune_group`) — the same test, over fewer containers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

from repro.engine.expressions import Bounds, Expr
from repro.storage.container import ROSContainer

_LOCATION = attrgetter("location")


def prune_containers(
    containers: Iterable[ROSContainer], predicate: Optional[Expr]
) -> Tuple[List[ROSContainer], int]:
    """Keep containers the predicate could match; returns (kept, pruned)."""
    kept: List[ROSContainer] = []
    pruned = 0
    for container in containers:
        if predicate is not None and not predicate.could_match(container.bounds):
            pruned += 1
            continue
        kept.append(container)
    return kept, pruned


def prune_group(
    state, projection: str, shard_id: Optional[int], predicate: Optional[Expr],
    bounds: Bounds, in_name_order: dict,
) -> Tuple[List[ROSContainer], int]:
    """What a scan of group (``projection``, ``shard_id``) reads: the
    containers ``predicate`` could match, in storage-name order, and how
    many of the group it pruned — :func:`prune_containers` of the whole
    group in that order.

    Where ``bounds`` (:func:`extract_column_bounds` of the predicate) bound
    the projection's leading sort column, only the containers the group's
    sort-key index finds overlapping them are tested: a superset of what the
    test keeps, because a container whose range misses a conjunct's
    interval fails that conjunct's own test.  A bound that does not compare
    with the index's keys tests the whole group, as ``_range_compare``
    cannot prune mixed types.  ``in_name_order`` (shard -> the group in
    storage-name order) keeps the whole groups the other scans test.
    """
    owner = state.projections.get(projection) or state.live_aggs.get(projection)
    order = owner.sort_order if bounds and owner is not None else ()
    lo, hi = bounds.get(order[0], (None, None)) if order else (None, None)
    if lo is not None or hi is not None:
        index = state.sort_key_index(projection, shard_id, order[0])
        try:
            found = index.overlapping(lo, hi) if index is not None else None
        except TypeError:
            found = None
        if found is not None:
            found.sort(key=_LOCATION)
            kept, _ = prune_containers(found, predicate)
            return kept, len(index.group) - len(kept)
    containers = in_name_order.get(shard_id)
    if containers is None:
        containers = in_name_order[shard_id] = sorted(
            state.containers_of(projection, shard_id), key=_LOCATION
        )
    return prune_containers(containers, predicate)
