"""Edmonds–Karp maximum flow, implemented from scratch.

Section V-B of the paper assigns hardware miss-curve samplers to streams by
solving a max-flow problem on a bipartite graph (units -> streams) with the
Edmonds–Karp algorithm [19].  This module provides that solver as a small,
dependency-free graph substrate.

The graph is a directed flow network with integer capacities.  Parallel
edges are merged (capacities add).  :meth:`FlowNetwork.max_flow` returns
the maximum flow value; per-edge flows are then available through
:meth:`FlowNetwork.flow_on`.
"""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    """Directed flow network with integer capacities."""

    def __init__(self) -> None:
        # Adjacency: node -> {neighbor: residual capacity}.
        self._residual: dict[int, dict[int, int]] = {}
        self._capacity: dict[tuple[int, int], int] = {}

    def add_node(self, node: int) -> None:
        self._residual.setdefault(node, {})

    def add_edge(self, src: int, dst: int, capacity: int) -> None:
        """Add a directed edge; repeated edges accumulate capacity."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if src == dst:
            raise ValueError("self-loops are not allowed in a flow network")
        self.add_node(src)
        self.add_node(dst)
        self._residual[src][dst] = self._residual[src].get(dst, 0) + capacity
        self._residual[dst].setdefault(src, 0)
        self._capacity[(src, dst)] = self._capacity.get((src, dst), 0) + capacity

    @property
    def nodes(self) -> list[int]:
        return list(self._residual)

    def _bfs_augmenting_path(self, source: int, sink: int) -> list[int] | None:
        """Shortest (fewest-edge) path with positive residual capacity."""
        parents: dict[int, int] = {source: source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor, residual in self._residual[node].items():
                if residual > 0 and neighbor not in parents:
                    parents[neighbor] = node
                    if neighbor == sink:
                        path = [sink]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    queue.append(neighbor)
        return None

    def max_flow(self, source: int, sink: int) -> int:
        """Run Edmonds–Karp and return the maximum flow from source to sink.

        Residual capacities are updated in place, so :meth:`flow_on` reflects
        the computed flow afterwards.  Calling ``max_flow`` again continues
        from the current residual state (and therefore returns 0).
        """
        if source not in self._residual or sink not in self._residual:
            raise KeyError("source and sink must be nodes of the network")
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0
        while True:
            path = self._bfs_augmenting_path(source, sink)
            if path is None:
                return total
            bottleneck = min(
                self._residual[u][v] for u, v in zip(path, path[1:])
            )
            for u, v in zip(path, path[1:]):
                self._residual[u][v] -= bottleneck
                self._residual[v][u] += bottleneck
            total += bottleneck

    def flow_on(self, src: int, dst: int) -> int:
        """Flow routed through edge (src, dst) after :meth:`max_flow`."""
        capacity = self._capacity.get((src, dst), 0)
        residual = self._residual.get(src, {}).get(dst, 0)
        return max(0, capacity - residual)


def solve_bipartite_assignment(
    left_capacity: dict[int, int],
    right_nodes: list[int],
    edges: list[tuple[int, int]],
) -> dict[int, int]:
    """Assign each right node to at most one left node via max-flow.

    This is the paper's sampler-assignment formulation: ``left_capacity``
    maps each NDP unit to its sampler count (S=4), ``right_nodes`` are the
    stream ids, and ``edges`` are (unit, stream) pairs meaning the unit
    accessed the stream this epoch.  Returns ``{stream: unit}`` for every
    stream that got covered; uncovered streams are absent.
    """
    if not right_nodes:
        return {}
    # Node numbering: source=0, sink=1, left nodes offset by 2, right nodes
    # offset past the left block.
    left_ids = {node: 2 + i for i, node in enumerate(sorted(left_capacity))}
    offset = 2 + len(left_ids)
    right_ids = {node: offset + i for i, node in enumerate(sorted(set(right_nodes)))}

    network = FlowNetwork()
    source, sink = 0, 1
    for node, cap in left_capacity.items():
        network.add_edge(source, left_ids[node], cap)
    for node in right_ids:
        network.add_edge(right_ids[node], sink, 1)
    for left, right in set(edges):
        if left not in left_ids or right not in right_ids:
            raise KeyError(f"edge ({left}, {right}) references unknown node")
        network.add_edge(left_ids[left], right_ids[right], 1)

    network.max_flow(source, sink)

    assignment: dict[int, int] = {}
    for (left, right) in set(edges):
        if network.flow_on(left_ids[left], right_ids[right]) > 0:
            assignment[right] = left
    return assignment
