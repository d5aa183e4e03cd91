"""Segment shards over the 32-bit hash space (section 3.1, Figure 3).

"Eon mode explicitly has segment shards that logically contain any metadata
object referring to storage of tuples that hash to a specific region ...
The number of segment shards is fixed at database creation.  Replicated
projections have their storage metadata associated with a replica shard."

Shard ``i`` of ``S`` owns the contiguous hash region
``[i * 2^32 / S, (i + 1) * 2^32 / S)``.  The replica shard has the special
id :data:`REPLICA_SHARD_ID` and owns no hash region — every node that
subscribes to it holds all replicated-projection storage.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.common.hashing import HASH_SPACE, hash_columns
from repro.storage.container import RowSet

#: Shard id used for replicated-projection storage.
REPLICA_SHARD_ID = -1


class ShardMap:
    """The fixed segmentation of the hash space into ``count`` shards."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("shard count must be >= 1")
        self.count = count
        # Region boundaries: shard i owns [bounds[i], bounds[i+1]).
        self._bounds = [i * HASH_SPACE // count for i in range(count)] + [HASH_SPACE]

    def shard_ids(self) -> List[int]:
        return list(range(self.count))

    def all_shard_ids(self) -> List[int]:
        """Segment shards plus the replica shard."""
        return self.shard_ids() + [REPLICA_SHARD_ID]

    # -- bulk operations -------------------------------------------------------

    def hash_rowset(self, rowset: RowSet, seg_columns: Sequence[str]) -> np.ndarray:
        """32-bit hash of each row's segmentation key."""
        cols = [rowset.column(c) for c in seg_columns]
        return hash_columns(cols)

    def shards_of_rowset(
        self, rowset: RowSet, seg_columns: Sequence[str]
    ) -> np.ndarray:
        """Owning shard id of each row."""
        hashes = self.hash_rowset(rowset, seg_columns)
        shard = np.minimum(
            hashes * np.uint64(self.count) // np.uint64(HASH_SPACE),
            np.uint64(self.count - 1),
        ).astype(np.int64)
        # Boundary correction (integer division of bounds may round).
        bounds = np.asarray(self._bounds, dtype=np.uint64)
        low = bounds[shard]
        shard = np.where(hashes < low, shard - 1, shard)
        high = bounds[shard + 1]
        shard = np.where(hashes >= high, shard + 1, shard)
        return shard.astype(np.int64)

    def split_rowset(
        self, rowset: RowSet, seg_columns: Sequence[str]
    ) -> Dict[int, RowSet]:
        """Partition a rowset by owning shard (the load-split of Figure 8).

        Only shards that receive at least one row appear in the result, so
        "storage containers contain data for exactly one shard" (section
        4.5) and no empty containers are created.  The rows are put in shard
        order once (a stable sort keeps each shard's rows in their order)
        and each shard's are a slice of that.
        """
        shards = self.shards_of_rowset(rowset, seg_columns)
        order = shards.argsort(kind="stable")
        ids, starts = np.unique(shards[order], return_index=True)
        ordered = rowset.take(order)
        stops = [*starts[1:].tolist(), len(order)]
        return {
            shard_id: ordered.slice(start, stop)
            for shard_id, start, stop in zip(ids.tolist(), starts.tolist(), stops)
        }

    def __repr__(self) -> str:
        return f"ShardMap(count={self.count})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardMap) and other.count == self.count
