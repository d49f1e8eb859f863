"""DGAE (Discriminative Graph Auto-Encoder) — Appendix B of the paper.

A second-group model introduced by the authors: a plain two-layer GCN
auto-encoder whose clustering phase minimises

``L = KL(Q || P) + gamma * L_bce(sigmoid(Z Z^T), A)``

where ``P`` is the Student's t soft assignment (Eq. 20) towards trainable
embedded centres ``mu`` (initialised with k-means) and ``Q`` is the
DEC-style sharpened target distribution.  Defaults follow Table 10 of the
paper (hidden 32, latent 16, Adam lr 0.01, gamma 0.001, 200 + 200 epochs).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.assignments import soft_assignment_student_t, target_distribution
from repro.clustering.kmeans import KMeans
from repro.models.base import GAEClusteringModel
from repro.nn.tensor import Tensor


class DGAE(GAEClusteringModel):
    """Discriminative Graph Auto-Encoder with a KL(Q||P) clustering loss."""

    group = "second"
    variational = False

    def __init__(
        self,
        num_features: int,
        num_clusters: int,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        learning_rate: float = 0.01,
        gamma: float = 0.001,
        seed: int = 0,
        target_refresh_interval: int = 5,
    ) -> None:
        super().__init__(
            num_features=num_features,
            num_clusters=num_clusters,
            hidden_dim=hidden_dim,
            latent_dim=latent_dim,
            learning_rate=learning_rate,
            gamma=gamma,
            seed=seed,
        )
        self.target_refresh_interval = int(target_refresh_interval)
        #: trainable embedded centres, created by :meth:`init_clustering`.
        self.centers: Optional[Tensor] = None

    # ------------------------------------------------------------------
    # clustering parameters
    # ------------------------------------------------------------------
    def init_clustering(self, embeddings: np.ndarray) -> None:
        """Initialise trainable centres with k-means on the embeddings."""
        kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed).fit(embeddings)
        self.centers = Tensor(kmeans.cluster_centers_.copy(), requires_grad=True)
        self.cluster_centers_ = kmeans.cluster_centers_.copy()
        self.cluster_variances_ = np.ones_like(kmeans.cluster_centers_)
        self._target = target_distribution(
            soft_assignment_student_t(embeddings, kmeans.cluster_centers_)
        )

    def refresh_clustering(self, embeddings: np.ndarray) -> None:
        """Refresh the target distribution Q from the current assignments."""
        if self.centers is None:
            self.init_clustering(embeddings)
            return
        self.cluster_centers_ = self.centers.numpy().copy()
        self._target = target_distribution(
            soft_assignment_student_t(embeddings, self.cluster_centers_)
        )

    def predict_assignments(self, embeddings: np.ndarray) -> np.ndarray:
        """Student's t soft assignments towards the current centres."""
        if self.centers is None:
            self.init_clustering(embeddings)
        return soft_assignment_student_t(embeddings, self.centers.numpy())

    # ------------------------------------------------------------------
    # checkpointing (repro.store)
    # ------------------------------------------------------------------
    def extra_state(self):
        state = super().extra_state()
        if self.centers is not None:
            # The trainable centres are a parameter that only exists after
            # init_clustering; declare them so snapshot validation accepts
            # trained checkpoints applied to freshly built models.
            state["trainable_extras"] = ["centers"]
        return state

    def load_extra_state(self, state) -> None:
        super().load_extra_state(state)
        if "centers" in state.get("trainable_extras", []) and self.cluster_centers_ is not None:
            # Materialise the trainable tensor; load_state_dict fills its
            # values from the snapshot's parameter entry right after.
            self.centers = Tensor(self.cluster_centers_.copy(), requires_grad=True)

    # ------------------------------------------------------------------
    # losses
    # ------------------------------------------------------------------
    def soft_assignment_tensor(self, z: Tensor) -> Tensor:
        """Differentiable Student's t soft assignment P(Z, mu)."""
        if self.centers is None:
            raise RuntimeError("init_clustering must run before the clustering loss")
        z_sq = (z * z).sum(axis=1, keepdims=True)
        # distances through the trainable centres (kept differentiable).
        mu_sq_t = (self.centers * self.centers).sum(axis=1).reshape(1, self.num_clusters)
        cross = z @ self.centers.T
        distances = z_sq + mu_sq_t - 2.0 * cross
        scores = (distances + 1.0) ** -1.0
        return scores / scores.sum(axis=1, keepdims=True)
