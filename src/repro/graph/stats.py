"""Descriptive statistics of attributed graphs.

These back the dataset documentation, sanity tests on the synthetic
generators, and the Figure 4 analysis of the operator-built
self-supervision graph (star-shaped sub-graph structure).  Every statistic
reads the CSR arrays of a :class:`~repro.graph.sparse.SparseAdjacency` in
O(|E|); an entry counts as an edge when its value is positive.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency


def _upper_edges(adjacency: SparseAdjacency) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoints ``(i, j)``, ``i < j``, of the positive entries above the diagonal."""
    rows, cols, values = adjacency.coo()
    upper = (cols > rows) & (values > 0)
    return rows[upper], cols[upper]


def edge_count(adjacency: SparseAdjacency) -> int:
    """Number of undirected edges."""
    return int(_upper_edges(adjacency)[0].shape[0])


def density(adjacency: SparseAdjacency) -> float:
    """Fraction of possible undirected edges that are present."""
    n = adjacency.num_nodes
    possible = n * (n - 1) / 2
    if possible == 0:
        return 0.0
    return float(edge_count(adjacency) / possible)


def homophily(adjacency: SparseAdjacency, labels: np.ndarray) -> float:
    """Fraction of edges connecting nodes with the same label."""
    labels = np.asarray(labels)
    rows, cols = _upper_edges(adjacency)
    if rows.shape[0] == 0:
        return 0.0
    return float(np.count_nonzero(labels[rows] == labels[cols]) / rows.shape[0])


def connected_components(adjacency: SparseAdjacency) -> List[np.ndarray]:
    """Connected components as lists of node indices (BFS, no networkx needed)."""
    n = adjacency.num_nodes
    indptr, indices, values = adjacency.indptr, adjacency.indices, adjacency.data
    unvisited = np.ones(n, dtype=bool)
    components: List[np.ndarray] = []
    for start in range(n):
        if not unvisited[start]:
            continue
        frontier = [start]
        unvisited[start] = False
        members = [start]
        while frontier:
            node = frontier.pop()
            row = slice(indptr[node], indptr[node + 1])
            neighbors = indices[row][values[row] > 0]
            for neighbor in neighbors[unvisited[neighbors]]:
                unvisited[neighbor] = False
                members.append(int(neighbor))
                frontier.append(int(neighbor))
        components.append(np.array(sorted(members)))
    return components


def star_subgraph_count(adjacency: SparseAdjacency, min_leaves: int = 2) -> int:
    """Count star-shaped sub-structures (hub nodes with >= ``min_leaves`` leaf neighbours).

    Figure 4 of the paper shows that the operator Υ turns the
    self-supervision graph into K star-shaped sub-graphs; this statistic lets
    the benchmark verify that structure quantitatively.  A leaf is a node of
    degree 1, and a hub with ``min_leaves`` leaves has at least that degree.
    """
    n = adjacency.num_nodes
    rows, cols, values = adjacency.coo()
    positive = values > 0
    rows, cols = rows[positive], cols[positive]
    degrees = np.bincount(rows, minlength=n)
    leaves = np.bincount(rows[degrees[cols] == 1], minlength=n)
    return int(np.count_nonzero(leaves >= min_leaves))


def describe(graph: AttributedGraph) -> Dict[str, object]:
    """Summary dictionary used in dataset documentation and tests."""
    summary: Dict[str, object] = {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_features": graph.num_features,
        "density": density(graph.adjacency),
    }
    if graph.labels is not None:
        summary["num_clusters"] = graph.num_clusters
        summary["homophily"] = homophily(graph.adjacency, graph.labels)
        _, counts = np.unique(graph.labels, return_counts=True)
        summary["cluster_sizes"] = counts.tolist()
    return summary
