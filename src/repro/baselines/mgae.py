"""MGAE: Marginalized Graph Auto-Encoder (Wang et al., 2017).

MGAE stacks single-layer marginalised denoising auto-encoders on the
graph-convolved features: each layer has a closed-form ridge solution that
is *marginalised* over random feature corruption.  Clustering is spectral
clustering on a similarity graph built from the final representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.graph.graph import AttributedGraph
from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import as_dense


class MGAE:
    """Marginalized Graph Auto-Encoder clustering baseline."""

    def __init__(
        self,
        num_clusters: int,
        num_layers: int = 3,
        corruption: float = 0.4,
        ridge: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.num_clusters = int(num_clusters)
        self.num_layers = int(num_layers)
        self.corruption = float(corruption)
        self.ridge = float(ridge)
        self.seed = int(seed)
        self.representation_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _marginalized_layer(self, hidden: np.ndarray) -> np.ndarray:
        """Closed-form marginalised denoising mapping W applied to ``hidden``.

        With corruption probability p, E[S] = (1-p)² X^T X off-diagonal and
        (1-p) X^T X on the diagonal; W solves E[S] W = E[Q].
        """
        keep = 1.0 - self.corruption
        scatter = hidden.T @ hidden
        q = scatter * keep * keep
        np.fill_diagonal(q, np.diag(scatter) * keep)
        p_matrix = scatter * keep
        regularized = q + self.ridge * np.eye(q.shape[0])
        weights = np.linalg.solve(regularized, p_matrix)
        return np.tanh(hidden @ weights)

    def fit(self, graph: AttributedGraph) -> "MGAE":
        adj_norm = normalize_adjacency(graph.adjacency.to_dense(), self_loops=True)
        hidden = as_dense(graph.row_normalized_features())
        for _ in range(self.num_layers):
            hidden = adj_norm @ hidden
            hidden = self._marginalized_layer(hidden)
        self.representation_ = hidden
        return self

    def fit_predict(self, graph: AttributedGraph) -> np.ndarray:
        """Spectral-style clustering of the learned representation."""
        self.fit(graph)
        representation = self.representation_
        # Symmetric similarity graph + spectral embedding, as in the paper.
        similarity = representation @ representation.T
        similarity = (np.abs(similarity) + np.abs(similarity.T)) / 2.0
        degrees = similarity.sum(axis=1)
        inv_sqrt = np.zeros_like(degrees)
        nonzero = degrees > 0
        inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
        laplacian_norm = similarity * inv_sqrt[:, None] * inv_sqrt[None, :]
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian_norm)
        spectral = eigenvectors[:, -self.num_clusters :]
        norms = np.linalg.norm(spectral, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        spectral = spectral / norms
        kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed)
        return kmeans.fit_predict(spectral)
