"""AGC: Attributed Graph Clustering via Adaptive Graph Convolution (Zhang et al., 2019).

AGC applies a k-order low-pass graph filter ``(I - L_sym/2)^k`` to the node
attributes and clusters the filtered features with spectral clustering on
their linear-kernel similarity.  The filter order is selected adaptively by
monitoring the intra-cluster variance of the resulting partition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.errors import InternalInvariantError
from repro.graph.graph import AttributedGraph
from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import as_dense


class AGC:
    """Adaptive Graph Convolution clustering baseline."""

    def __init__(
        self,
        num_clusters: int,
        max_order: int = 6,
        seed: int = 0,
    ) -> None:
        self.num_clusters = int(num_clusters)
        self.max_order = int(max_order)
        self.seed = int(seed)
        self.selected_order_: Optional[int] = None
        self.filtered_features_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _intra_cluster_variance(features: np.ndarray, labels: np.ndarray) -> float:
        total = 0.0
        for cluster in np.unique(labels):
            members = features[labels == cluster]
            if members.shape[0] > 1:
                total += float(np.sum((members - members.mean(axis=0)) ** 2))
        return total / features.shape[0]

    def _spectral_labels(self, features: np.ndarray) -> np.ndarray:
        similarity = features @ features.T
        similarity = (np.abs(similarity) + np.abs(similarity.T)) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(similarity)
        spectral = eigenvectors[:, -self.num_clusters :]
        kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed)
        return kmeans.fit_predict(spectral)

    def fit_predict(self, graph: AttributedGraph) -> np.ndarray:
        """Adaptively choose the filter order and return cluster labels."""
        adj_norm = normalize_adjacency(graph.adjacency.to_dense(), self_loops=True)
        # Low-pass filter G = I - L_sym / 2 = (I + A_norm) / 2.
        filter_matrix = (np.eye(graph.num_nodes) + adj_norm) / 2.0
        features = as_dense(graph.row_normalized_features())
        best_labels: Optional[np.ndarray] = None
        best_variance = np.inf
        previous_variance = np.inf
        filtered = features
        for order in range(1, self.max_order + 1):
            filtered = filter_matrix @ filtered
            labels = self._spectral_labels(filtered)
            variance = self._intra_cluster_variance(filtered, labels)
            if variance < best_variance:
                best_variance = variance
                best_labels = labels
                self.selected_order_ = order
                self.filtered_features_ = filtered
            # Stop when the intra-cluster variance starts increasing.
            if variance > previous_variance:
                break
            previous_variance = variance
        if best_labels is None:
            raise InternalInvariantError(
                "AGC order search finished without selecting labels; "
                "max_order must be >= 1 and the first iteration always sets "
                "a candidate"
            )
        return best_labels
