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

from repro.engine.expressions import Expr
from repro.storage.container import ROSContainer


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
