"""Incremental max-flow (Edmonds–Karp) for session layout selection.

Section 4.1 runs "successive rounds of max flow, leaving the existing flow
intact while incrementally increasing the capacity" of edges, so the solver
must support (a) raising an edge's capacity after a run and (b) resuming
from the current flow.  Edmonds–Karp does both naturally: flow found so far
stays feasible when capacities only increase, and further augmenting paths
extend it.

The graphs here are tiny (source + shards + nodes + sink), so the BFS
implementation is more than fast enough and — crucially for the paper's
edge-order variation trick — fully deterministic in the order edges were
added.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

NodeId = Hashable


@dataclass
class _Edge:
    src: NodeId
    dst: NodeId
    capacity: int
    flow: int = 0

    @property
    def residual(self) -> int:
        return self.capacity - self.flow


class FlowNetwork:
    """Directed flow network with incremental max-flow."""

    def __init__(self) -> None:
        # adjacency: vertex -> list of (edge index, direction) where
        # direction +1 is forward, -1 is the residual (backward) arc.
        self._edges: List[_Edge] = []
        self._adj: Dict[NodeId, List[Tuple[int, int]]] = {}
        self._edge_index: Dict[Tuple[NodeId, NodeId], int] = {}

    def _vertex(self, v: NodeId) -> None:
        self._adj.setdefault(v, [])

    def add_edge(self, src: NodeId, dst: NodeId, capacity: int) -> None:
        """Add edge ``src -> dst``; adding an existing edge raises."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        key = (src, dst)
        if key in self._edge_index:
            raise ValueError(f"edge {src} -> {dst} already present")
        self._vertex(src)
        self._vertex(dst)
        index = len(self._edges)
        self._edges.append(_Edge(src, dst, capacity))
        self._adj[src].append((index, +1))
        self._adj[dst].append((index, -1))
        self._edge_index[key] = index

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._edge_index

    def set_capacity(self, src: NodeId, dst: NodeId, capacity: int) -> None:
        """Raise (never lower below current flow) an edge's capacity."""
        edge = self._edges[self._edge_index[(src, dst)]]
        if capacity < edge.flow:
            raise ValueError(
                f"cannot set capacity {capacity} below current flow {edge.flow}"
            )
        edge.capacity = capacity

    def capacity(self, src: NodeId, dst: NodeId) -> int:
        return self._edges[self._edge_index[(src, dst)]].capacity

    def flow(self, src: NodeId, dst: NodeId) -> int:
        return self._edges[self._edge_index[(src, dst)]].flow

    def max_flow(self, source: NodeId, sink: NodeId) -> int:
        """Extend the current flow to maximum; returns the total flow.

        Safe to call repeatedly after capacity increases — existing flow is
        kept intact and only augmented.
        """
        self._vertex(source)
        self._vertex(sink)
        while True:
            path = self._bfs_augmenting_path(source, sink)
            if path is None:
                break
            bottleneck = min(
                (self._edges[i].residual if d > 0 else self._edges[i].flow)
                for i, d in path
            )
            for i, d in path:
                self._edges[i].flow += bottleneck * d
        return self.total_flow(source)

    def total_flow(self, source: NodeId) -> int:
        return sum(
            self._edges[i].flow * d
            for i, d in self._adj.get(source, [])
            if d > 0
        )

    def _bfs_augmenting_path(
        self, source: NodeId, sink: NodeId
    ) -> Optional[List[Tuple[int, int]]]:
        parents: Dict[NodeId, Tuple[NodeId, int, int]] = {}
        queue = deque([source])
        visited = {source}
        while queue:
            v = queue.popleft()
            for index, direction in self._adj[v]:
                edge = self._edges[index]
                other = edge.dst if direction > 0 else edge.src
                usable = edge.residual if direction > 0 else edge.flow
                if usable <= 0 or other in visited:
                    continue
                visited.add(other)
                parents[other] = (v, index, direction)
                if other == sink:
                    path = []
                    cur = sink
                    while cur != source:
                        prev, idx, d = parents[cur]
                        path.append((idx, d))
                        cur = prev
                    path.reverse()
                    return path
                queue.append(other)
        return None
