"""METIS-free graph partitioning for Cluster-GCN-style minibatch training.

:class:`ClusterPartitioner` splits the node set into ``num_parts`` balanced
parts by growing each part with a seeded breadth-first search over the CSR
adjacency: BFS keeps most of a neighbourhood inside one part, which is what
keeps the edge cut — and therefore the information lost by training on
induced blocks — low, without depending on METIS.  The resulting
:class:`GraphPartition` is deterministic for a given seed and reusable
across epochs (and trainers): partitioning is paid once per graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.sparse import SparseAdjacency

__all__ = ["ClusterPartitioner", "GraphPartition"]


@dataclass
class GraphPartition:
    """A disjoint cover of the node set, plus its quality diagnostics."""

    #: sorted node-id arrays; disjoint, union = all nodes.
    parts: List[np.ndarray]
    num_nodes: int
    #: fraction of (directed) adjacency entries crossing part boundaries.
    edge_cut_fraction: float

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def part_of(self) -> np.ndarray:
        """(N,) array mapping every node to its part index."""
        assignment = np.full(self.num_nodes, -1, dtype=np.int64)
        for index, part in enumerate(self.parts):
            assignment[part] = index
        return assignment

    def sizes(self) -> List[int]:
        return [int(part.shape[0]) for part in self.parts]


class ClusterPartitioner:
    """Greedy seeded-BFS edge-cut partitioner over a CSR adjacency.

    Parameters
    ----------
    num_parts:
        Number of parts to produce (parts never exceed
        ``ceil(N / num_parts)`` nodes; trailing parts may be smaller, and
        fewer parts are returned when the graph has fewer nodes).
    seed:
        Controls the BFS start nodes, making the partition — and every
        minibatch sequence built on it — deterministic and reproducible
        across processes.
    """

    def __init__(self, num_parts: int, seed: int = 0) -> None:
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        self.num_parts = int(num_parts)
        self.seed = int(seed)

    def partition(self, adjacency: SparseAdjacency) -> GraphPartition:
        """Partition the node set of the CSR ``adjacency``."""
        num_nodes = adjacency.num_nodes
        if num_nodes == 0:
            return GraphPartition(parts=[], num_nodes=0, edge_cut_fraction=0.0)
        num_parts = min(self.num_parts, num_nodes)
        target = -(-num_nodes // num_parts)  # ceil division
        rng = np.random.default_rng([self.seed, num_nodes, num_parts])

        assignment = np.full(num_nodes, -1, dtype=np.int64)
        # Visit candidates in a seeded random order; BFS pulls whole
        # neighbourhoods into the current part ahead of this order.
        visit_order = rng.permutation(num_nodes)
        cursor = 0
        parts: List[np.ndarray] = []
        indptr, indices = adjacency.indptr, adjacency.indices
        for part_index in range(num_parts):
            members: List[int] = []
            queue: deque = deque()
            while len(members) < target:
                if not queue:
                    # (Re)start BFS from the next unassigned node, if any.
                    while cursor < num_nodes and assignment[visit_order[cursor]] >= 0:
                        cursor += 1
                    if cursor == num_nodes:
                        break
                    start = int(visit_order[cursor])
                    assignment[start] = part_index
                    members.append(start)
                    queue.append(start)
                    continue
                node = queue.popleft()
                for neighbor in indices[indptr[node] : indptr[node + 1]]:
                    if len(members) >= target:
                        break
                    if assignment[neighbor] < 0:
                        assignment[neighbor] = part_index
                        members.append(int(neighbor))
                        queue.append(int(neighbor))
            if members:
                parts.append(np.sort(np.asarray(members, dtype=np.int64)))
        # The per-part target caps sizes, so every node lands in some part.
        rows, cols, _ = adjacency.coo()
        if rows.size:
            cut = float(np.count_nonzero(assignment[rows] != assignment[cols]))
            edge_cut_fraction = cut / rows.size
        else:
            edge_cut_fraction = 0.0
        return GraphPartition(
            parts=parts, num_nodes=num_nodes, edge_cut_fraction=edge_cut_fraction
        )
