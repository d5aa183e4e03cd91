"""Write Optimized Store (WOS) — Enterprise mode only.

Section 2.3: the WOS is an in-memory, unsorted, unencoded buffer for small
inserts so that physical writes amortise their cost; the Tuple Mover's
*moveout* converts WOS contents into sorted ROS containers.

Section 5.1: "Eon mode does not support the WOS; all modification
operations are required to persist to disk" — losing a node must not lose
committed data, and divergent WOS spill behaviour would let node storage
diverge.  The Eon cluster never instantiates this class; the Enterprise
baseline uses it to reproduce the original write path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.types import TableSchema
from repro.storage.container import RowSet


@dataclass
class _ProjectionBuffer:
    schema: TableSchema
    batches: List[RowSet] = field(default_factory=list)
    row_count: int = 0


class WOS:
    """Per-node in-memory write buffer, keyed by projection name."""

    def __init__(self, capacity_rows: int = 1 << 20):
        if capacity_rows < 1:
            raise ValueError("capacity_rows must be positive")
        self.capacity_rows = capacity_rows
        self._buffers: Dict[str, _ProjectionBuffer] = {}

    def insert(self, projection: str, rows: RowSet) -> None:
        """Buffer ``rows`` for ``projection`` (unsorted, unencoded)."""
        buf = self._buffers.get(projection)
        if buf is None:
            buf = _ProjectionBuffer(schema=rows.schema)
            self._buffers[projection] = buf
        elif buf.schema.names != rows.schema.names:
            raise ValueError(
                f"schema mismatch buffering into WOS for {projection!r}"
            )
        buf.batches.append(rows)
        buf.row_count += rows.num_rows

    @property
    def total_rows(self) -> int:
        return sum(b.row_count for b in self._buffers.values())

    @property
    def over_capacity(self) -> bool:
        """True when moveout should run to relieve memory pressure."""
        return self.total_rows > self.capacity_rows

    def projections(self) -> List[str]:
        return [name for name, b in self._buffers.items() if b.row_count]

    def read(self, projection: str) -> Optional[RowSet]:
        """Snapshot the buffered rows (queries must see WOS contents)."""
        buf = self._buffers.get(projection)
        if buf is None or not buf.batches:
            return None
        return RowSet.concat(buf.batches)

    def drain(self, projection: str) -> Optional[RowSet]:
        """Remove and return buffered rows — the moveout input."""
        rows = self.read(projection)
        if rows is not None:
            self._buffers.pop(projection, None)
        return rows
