"""Container- and block-level pruning from min/max statistics.

"Vertica accomplishes this by tracking minimum and maximum values of
columns in each storage and using expression analysis to determine if a
predicate could ever be true for the given minimum and maximum"
(section 2.1).  Storage providers call :func:`prune_containers` before
fetching container bytes; scans additionally prune blocks inside a
container through :meth:`ColumnReader.block_mask`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.engine.expressions import Bounds, Expr
from repro.storage.container import ROSContainer


def container_bounds(container: ROSContainer) -> Bounds:
    mins = dict(container.min_values)
    maxs = dict(container.max_values)
    return {name: (mins.get(name), maxs.get(name)) for name in mins}


def prune_containers(
    containers: Iterable[ROSContainer], predicate: Optional[Expr]
) -> Tuple[List[ROSContainer], int]:
    """Keep containers the predicate could match; returns (kept, pruned)."""
    kept: List[ROSContainer] = []
    pruned = 0
    for container in containers:
        if predicate is not None and not predicate.could_match(
            container_bounds(container)
        ):
            pruned += 1
            continue
        kept.append(container)
    return kept, pruned
