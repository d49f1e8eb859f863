"""TADW: Text-Associated DeepWalk (Yang et al., 2015) — matrix factorisation baseline.

TADW factorises a random-walk proximity matrix ``M`` into ``W^T H X`` where
``X`` is a low-rank representation of the node attributes.  The embedding is
the concatenation of ``W`` and ``H X``; clustering is k-means on that
embedding.  This compact implementation uses alternating ridge-regularised
least squares on the dense proximity matrix, which is exact for the graph
sizes used in this repository.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.graph.graph import AttributedGraph, Features
from repro.graph.sparse import as_dense


class TADW:
    """Text-Associated DeepWalk clustering baseline."""

    def __init__(
        self,
        num_clusters: int,
        embedding_dim: int = 32,
        text_dim: int = 64,
        num_iterations: int = 20,
        ridge: float = 0.2,
        seed: int = 0,
    ) -> None:
        self.num_clusters = int(num_clusters)
        self.embedding_dim = int(embedding_dim)
        self.text_dim = int(text_dim)
        self.num_iterations = int(num_iterations)
        self.ridge = float(ridge)
        self.seed = int(seed)
        self.embedding_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _proximity_matrix(self, adjacency: np.ndarray) -> np.ndarray:
        """(A_hat + A_hat²)/2 where A_hat is the row-normalised adjacency."""
        adjacency = np.asarray(adjacency, dtype=np.float64)
        degrees = adjacency.sum(axis=1, keepdims=True)
        degrees[degrees == 0.0] = 1.0
        a_hat = adjacency / degrees
        return (a_hat + a_hat @ a_hat) / 2.0

    def _reduced_text(self, features: Features) -> np.ndarray:
        """SVD-reduced attribute matrix ``X`` (text_dim x N)."""
        features = as_dense(features)
        rank = min(self.text_dim, min(features.shape) - 1)
        u, s, _ = np.linalg.svd(features, full_matrices=False)
        return (u[:, :rank] * s[:rank]).T

    def fit(self, graph: AttributedGraph) -> "TADW":
        rng = np.random.default_rng(self.seed)
        proximity = self._proximity_matrix(graph.adjacency.to_dense())
        text = self._reduced_text(graph.row_normalized_features())
        k = self.embedding_dim // 2
        n = graph.num_nodes
        w = rng.normal(0.0, 0.1, size=(k, n))
        h = rng.normal(0.0, 0.1, size=(k, text.shape[0]))
        eye_k = np.eye(k) * self.ridge
        for _ in range(self.num_iterations):
            hx = h @ text
            # Solve for W: min ||M - W^T HX||² + ridge ||W||²
            gram = hx @ hx.T + eye_k
            w = np.linalg.solve(gram, hx @ proximity.T)
            # Solve for H: min ||M - W^T H X||² + ridge ||H||²
            gram_w = w @ w.T + eye_k
            target = w @ proximity @ text.T
            gram_x = text @ text.T + np.eye(text.shape[0]) * self.ridge
            h = np.linalg.solve(gram_w, target) @ np.linalg.inv(gram_x)
        self.embedding_ = np.concatenate([w.T, (h @ text).T], axis=1)
        return self

    def fit_predict(self, graph: AttributedGraph) -> np.ndarray:
        """Cluster the TADW embedding with k-means."""
        self.fit(graph)
        kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed)
        return kmeans.fit_predict(self.embedding_)
