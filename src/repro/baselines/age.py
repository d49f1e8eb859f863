"""AGE: Adaptive Graph Encoder (Cui et al., 2020) — simplified.

AGE decouples filtering from encoding: attributes are smoothed with a
Laplacian low-pass filter, then an embedding is refined with a
pseudo-supervised objective that pulls together high-similarity pairs and
pushes apart low-similarity pairs.  This compact variant performs the
Laplacian smoothing and a few rounds of similarity-threshold-guided linear
re-embedding (power-iteration style), then clusters with k-means — enough to
reproduce AGE's qualitative behaviour as the strongest non-GAE baseline of
Table 17.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.graph.graph import AttributedGraph
from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import as_dense


class AGE:
    """Adaptive Graph Encoder clustering baseline (simplified)."""

    def __init__(
        self,
        num_clusters: int,
        smoothing_order: int = 4,
        embedding_dim: int = 32,
        refine_rounds: int = 3,
        positive_quantile: float = 0.98,
        seed: int = 0,
    ) -> None:
        self.num_clusters = int(num_clusters)
        self.smoothing_order = int(smoothing_order)
        self.embedding_dim = int(embedding_dim)
        self.refine_rounds = int(refine_rounds)
        self.positive_quantile = float(positive_quantile)
        self.seed = int(seed)
        self.embedding_: Optional[np.ndarray] = None

    def _smooth(self, graph: AttributedGraph) -> np.ndarray:
        adj_norm = normalize_adjacency(graph.adjacency.to_dense(), self_loops=True)
        filter_matrix = (np.eye(graph.num_nodes) + adj_norm) / 2.0
        smoothed = as_dense(graph.row_normalized_features())
        for _ in range(self.smoothing_order):
            smoothed = filter_matrix @ smoothed
        return smoothed

    def _reduce(self, features: np.ndarray) -> np.ndarray:
        rank = min(self.embedding_dim, min(features.shape) - 1)
        u, s, _ = np.linalg.svd(features, full_matrices=False)
        return u[:, :rank] * s[:rank]

    def fit(self, graph: AttributedGraph) -> "AGE":
        embedding = self._reduce(self._smooth(graph))
        for _ in range(self.refine_rounds):
            normalized = embedding / np.maximum(
                np.linalg.norm(embedding, axis=1, keepdims=True), 1e-12
            )
            similarity = normalized @ normalized.T
            threshold = np.quantile(similarity, self.positive_quantile)
            # Pseudo-supervised graph: link high-similarity pairs.
            pseudo_graph = (similarity >= threshold).astype(np.float64)
            np.fill_diagonal(pseudo_graph, 0.0)
            degrees = pseudo_graph.sum(axis=1, keepdims=True)
            degrees[degrees == 0.0] = 1.0
            # Smooth the embedding over the pseudo graph (one propagation step).
            embedding = 0.5 * embedding + 0.5 * (pseudo_graph / degrees) @ embedding
        self.embedding_ = embedding
        return self

    def fit_predict(self, graph: AttributedGraph) -> np.ndarray:
        """Cluster the refined embedding with k-means."""
        self.fit(graph)
        kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed)
        return kmeans.fit_predict(self.embedding_)
