"""The graph operator Υ (Algorithm 2) — correction against Feature Drift.

Υ rewrites the self-supervision graph used by the reconstruction loss into a
clustering-oriented one:

1. for each cluster, the *centroid node* is the decidable node closest to
   the mean embedding of the cluster's decidable members (set Π),
2. **add_edge** — every decidable node is connected to the centroid node of
   its own cluster (if both agree on that cluster),
3. **drop_edge** — edges between decidable nodes assigned to different
   clusters are removed.

At convergence the resulting graph consists of K star-shaped sub-graphs, as
visualised in Figure 4 of the paper.  The worst-case complexity is
O(N (d + K) + |E| (N + K)).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.graph.sparse import SparseAdjacency
from repro.observability.tracer import span as _span


def _cluster_centroid_nodes(
    embeddings: np.ndarray,
    hard_assignments: np.ndarray,
    reliable_nodes: np.ndarray,
    num_clusters: int,
) -> Dict[int, int]:
    """The set Π: for each cluster, the reliable node nearest to its mean embedding.

    Clusters without any reliable member are omitted from the mapping.  All
    clusters are resolved at once: mean embeddings by a scatter-add over the
    reliable members, then one lexsort picks each cluster's closest member
    (ties resolved towards the earlier member, like a per-cluster argmin).
    """
    reliable_nodes = np.asarray(reliable_nodes, dtype=np.int64)
    if reliable_nodes.size == 0:
        return {}
    reliable_labels = hard_assignments[reliable_nodes]
    member_embeddings = embeddings[reliable_nodes]
    counts = np.bincount(reliable_labels, minlength=num_clusters)
    sums = np.zeros((num_clusters, embeddings.shape[1]))
    np.add.at(sums, reliable_labels, member_embeddings)
    means = sums / np.maximum(counts, 1)[:, None]
    distances = np.linalg.norm(member_embeddings - means[reliable_labels], axis=1)
    order = np.lexsort((np.arange(reliable_labels.size), distances, reliable_labels))
    sorted_labels = reliable_labels[order]
    present = np.flatnonzero(counts > 0)
    first_of_cluster = np.searchsorted(sorted_labels, present, side="left")
    winners = reliable_nodes[order[first_of_cluster]]
    return {int(cluster): int(node) for cluster, node in zip(present, winners)}


def _sorted_contains(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of ``queries`` in the ascending ``sorted_keys``.

    One binary search per query: O(|queries| log |keys|), where ``np.isin``
    hashes or sorts every key (numpy ≥ 2.3 sends all of them through the
    hash-based ``np.unique``).
    """
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return sorted_keys[at] == queries


def build_clustering_oriented_graph(
    adjacency: SparseAdjacency,
    assignments: np.ndarray,
    reliable_nodes: np.ndarray,
    embeddings: np.ndarray,
    add_edges: bool = True,
    drop_edges: bool = True,
) -> SparseAdjacency:
    """Apply Υ once and return the clustering-oriented graph ``A_self_clus``.

    Parameters
    ----------
    adjacency:
        The *original* sparse input graph A in CSR (Algorithm 2 always
        starts from it).  Υ runs edge-wise in O(|E| + |Ω|) and returns a
        new CSR matrix.
    assignments:
        (N, K) clustering assignment matrix P (soft or hard).
    reliable_nodes:
        Indices of the decidable set Ω produced by the operator Ξ.
    embeddings:
        (N, d) embedded representations, used to locate centroid nodes.
    add_edges, drop_edges:
        Toggles for the two edit operations (ablations of Table 9).
    """
    with _span("kernel.upsilon"):
        return _apply_upsilon(
            adjacency,
            assignments,
            reliable_nodes,
            embeddings,
            add_edges=add_edges,
            drop_edges=drop_edges,
        )


def _apply_upsilon(
    adjacency: SparseAdjacency,
    assignments: np.ndarray,
    reliable_nodes: np.ndarray,
    embeddings: np.ndarray,
    add_edges: bool = True,
    drop_edges: bool = True,
) -> SparseAdjacency:
    """Edge-wise Υ over the COO triples of a CSR adjacency.

    Algorithm 2 edits node by node, but its two operations commute:
    drop_edge only removes edges whose reliable endpoints disagree on the
    cluster, and add_edge only inserts same-cluster (node, centroid) edges,
    so neither can affect the other.  Both therefore run as vectorised set
    operations on the edge list.
    """
    assignments = np.asarray(assignments, dtype=np.float64)
    reliable_nodes = np.asarray(reliable_nodes, dtype=np.int64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    num_nodes = adjacency.num_nodes
    num_clusters = assignments.shape[1]
    hard = np.argmax(assignments, axis=1)

    if reliable_nodes.size == 0:
        return adjacency.copy()

    rows, cols, values = adjacency.coo()
    reliable_mask = np.zeros(num_nodes, dtype=bool)
    reliable_mask[reliable_nodes] = True

    if drop_edges:
        # Both directions of a disagreeing pair go, as in Algorithm 2.
        keep = ~(
            reliable_mask[rows] & reliable_mask[cols] & (hard[rows] != hard[cols])
        )
        rows, cols, values = rows[keep], cols[keep], values[keep]

    # The kept entries as ascending, unique (row, col) keys: canonical CSR
    # already stores them so; other input is sorted, first entry winning.
    kept = rows * num_nodes + cols
    if np.any(kept[1:] <= kept[:-1]):
        order = np.argsort(kept, kind="stable")
        kept = kept[order]
        first = np.concatenate(([True], kept[1:] != kept[:-1]))
        kept, values = kept[first], values[order[first]]

    if add_edges:
        centroid_nodes = _cluster_centroid_nodes(
            embeddings, hard, reliable_nodes, num_clusters
        )
        # Cluster → centroid-node lookup (-1 for clusters without one).
        centroid_of = np.full(num_clusters, -1, dtype=np.int64)
        for cluster, node in centroid_nodes.items():
            centroid_of[cluster] = node
        centroids = centroid_of[hard[reliable_nodes]]
        valid = (centroids >= 0) & (centroids != reliable_nodes)
        # Centroid nodes are reliable members of their own cluster, so
        # Algorithm 2's agreement check (hard[centroid] == cluster) always
        # holds; it is kept to mirror the algorithm line by line.
        valid &= hard[np.where(valid, centroids, 0)] == hard[reliable_nodes]
        sources = reliable_nodes[valid]
        targets = centroids[valid]
        # An add fires only when (node, centroid) is absent after the drops,
        # and a fired add writes *both* directions with 1.0, overwriting any
        # existing reverse entry (this matters for weighted or asymmetric A).
        fired = ~_sorted_contains(kept, sources * num_nodes + targets)
        sources, targets = sources[fired], targets[fired]
        # Sorted and unique (the return_counts form sorts, see _sorted_contains).
        added = np.unique(
            np.concatenate([sources * num_nodes + targets, targets * num_nodes + sources]),
            return_counts=True,
        )[0]
        new = added[~_sorted_contains(kept, added)]
        at = np.searchsorted(kept, new)
        kept = np.insert(kept, at, new)
        values = np.insert(values, at, 1.0)
        values[np.searchsorted(kept, added)] = 1.0

    counts = np.bincount(kept // num_nodes, minlength=num_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SparseAdjacency(values, kept % num_nodes, indptr, (num_nodes, num_nodes))


class GraphTransformOperator:
    """Object-style wrapper around :func:`build_clustering_oriented_graph`.

    Stores the add/drop toggles so the trainer can re-apply Υ every ``M2``
    epochs; the ablations of Table 9 are obtained by switching the toggles.
    """

    def __init__(self, add_edges: bool = True, drop_edges: bool = True) -> None:
        self.add_edges = bool(add_edges)
        self.drop_edges = bool(drop_edges)

    def __call__(
        self,
        adjacency: SparseAdjacency,
        assignments: np.ndarray,
        reliable_nodes: np.ndarray,
        embeddings: np.ndarray,
    ) -> SparseAdjacency:
        return build_clustering_oriented_graph(
            adjacency,
            assignments,
            reliable_nodes,
            embeddings,
            add_edges=self.add_edges,
            drop_edges=self.drop_edges,
        )
