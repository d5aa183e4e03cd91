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

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.hashing import HASH_SPACE, hash_columns, hash_row
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

    def region_of(self, shard_id: int) -> Tuple[int, int]:
        """The [lo, hi) hash region a segment shard owns."""
        if not 0 <= shard_id < self.count:
            raise ValueError(f"no segment shard {shard_id}")
        return self._bounds[shard_id], self._bounds[shard_id + 1]

    def shard_of_hash(self, hash_value: int) -> int:
        """Which segment shard owns ``hash_value``."""
        if not 0 <= hash_value < HASH_SPACE:
            raise ValueError(f"hash {hash_value} outside 32-bit space")
        # Regions are near-equal size; a direct computation with boundary
        # correction avoids a binary search.
        shard = min(hash_value * self.count // HASH_SPACE, self.count - 1)
        while hash_value < self._bounds[shard]:
            shard -= 1
        while hash_value >= self._bounds[shard + 1]:
            shard += 1
        return shard

    def shard_of_row(self, seg_values: Sequence[object]) -> int:
        """Shard owning the row whose segmentation-column values are given."""
        return self.shard_of_hash(hash_row(seg_values))

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

    def hash_region_mask(
        self, rowset: RowSet, seg_columns: Sequence[str], shard_id: int
    ) -> np.ndarray:
        """Row mask selecting rows whose hash falls inside ``shard_id``.

        Used by crunch scaling's hash-filter split (section 4.4), where a
        further segmentation predicate is applied to rows as they are read.
        """
        return self.shards_of_rowset(rowset, seg_columns) == shard_id

    def __repr__(self) -> str:
        return f"ShardMap(count={self.count})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardMap) and other.count == self.count
