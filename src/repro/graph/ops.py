"""Graph and feature perturbation operations.

Used by the robustness experiments (Figures 7-8 of the paper): adding noisy
edges, dropping existing edges, adding Gaussian feature noise and dropping
feature columns.  Also provides :func:`edge_difference` which the learning
dynamics experiments use to count added/deleted links of the operator-built
self-supervision graph (Figure 9).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency, as_dense
from repro.graph.stats import _upper_edges


def add_random_edges(
    graph: AttributedGraph, num_edges: int, rng: np.random.Generator
) -> AttributedGraph:
    """Connect ``num_edges`` uniformly random, currently unlinked node pairs."""
    # The candidates are the unlinked pairs, so this edit is O(N²) by definition.
    adjacency = graph.adjacency.to_dense()
    candidates = np.argwhere(np.triu(adjacency == 0, k=1))
    if candidates.shape[0] < num_edges:
        raise ValueError("not enough unlinked pairs to add the requested edges")
    chosen = candidates[rng.choice(candidates.shape[0], size=num_edges, replace=False)]
    adjacency[chosen[:, 0], chosen[:, 1]] = 1.0
    adjacency[chosen[:, 1], chosen[:, 0]] = 1.0
    return graph.with_adjacency(adjacency)


def drop_random_edges(
    graph: AttributedGraph, num_edges: int, rng: np.random.Generator
) -> AttributedGraph:
    """Remove ``num_edges`` uniformly random existing edges."""
    existing = graph.edge_list()
    if existing.shape[0] < num_edges:
        raise ValueError("graph does not have enough edges to drop")
    keep = np.ones(existing.shape[0], dtype=bool)
    keep[rng.choice(existing.shape[0], size=num_edges, replace=False)] = False
    return graph.with_adjacency(
        SparseAdjacency.from_edges(existing[keep], graph.num_nodes)
    )


def add_feature_noise(
    graph: AttributedGraph, variance: float, rng: np.random.Generator
) -> AttributedGraph:
    """Add zero-mean Gaussian noise with the given variance to all features."""
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    if variance == 0.0:
        return graph.copy()
    noise = rng.normal(0.0, np.sqrt(variance), size=graph.features.shape)
    return graph.with_features(as_dense(graph.features) + noise)


def drop_random_features(
    graph: AttributedGraph, num_columns: int, rng: np.random.Generator
) -> AttributedGraph:
    """Zero out ``num_columns`` randomly chosen feature columns."""
    features = graph.features
    num_features = features.shape[1]
    if num_columns > num_features:
        raise ValueError("cannot drop more columns than the graph has features")
    columns = rng.choice(num_features, size=num_columns, replace=False)
    if isinstance(features, SparseAdjacency):
        dropped = np.zeros(num_features, dtype=bool)
        dropped[columns] = True
        # The graph drops the zeroed entries when it canonicalises them.
        data = np.where(dropped[features.indices], 0.0, features.data)
        return graph.with_features(
            SparseAdjacency(data, features.indices, features.indptr, features.shape)
        )
    features = features.copy()
    features[:, columns] = 0.0
    return graph.with_features(features)


def edge_difference(
    original: SparseAdjacency, modified: SparseAdjacency, labels: np.ndarray
) -> Dict[str, int]:
    """Compare two adjacencies and classify added/deleted links.

    Returns the counts the paper plots in Figure 9 (d)-(f): total links of
    the modified graph, links added relative to ``original`` and links
    deleted, each split into *true* (same ground-truth label) and *false*
    (different labels) links.  A link is a positive entry above the
    diagonal; the two edge sets are compared as sorted ``i·N + j`` keys, in
    O(|E| log |E|).
    """
    n = original.num_nodes
    labels = np.asarray(labels)

    def _keys(adjacency: SparseAdjacency) -> np.ndarray:
        rows, cols = _upper_edges(adjacency)
        return np.unique(rows * n + cols)

    links, original_links = _keys(modified), _keys(original)
    added = np.setdiff1d(links, original_links, assume_unique=True)
    deleted = np.setdiff1d(original_links, links, assume_unique=True)

    def _split(keys: np.ndarray) -> Tuple[int, int]:
        true_links = int(np.count_nonzero(labels[keys // n] == labels[keys % n]))
        return true_links, keys.shape[0] - true_links

    total_true, total_false = _split(links)
    added_true, added_false = _split(added)
    deleted_true, deleted_false = _split(deleted)
    return {
        "total_links": int(links.shape[0]),
        "total_true_links": total_true,
        "total_false_links": total_false,
        "added_links": int(added.shape[0]),
        "added_true_links": added_true,
        "added_false_links": added_false,
        "deleted_links": int(deleted.shape[0]),
        "deleted_true_links": deleted_true,
        "deleted_false_links": deleted_false,
    }
