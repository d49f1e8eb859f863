"""GMM-VGAE (Hui et al., 2020): variational GAE with a Gaussian mixture prior.

A second-group model: after VGAE pretraining a diagonal Gaussian mixture is
fitted on the posterior means; the clustering phase then jointly optimises

``L = KL(Q || P) + gamma * (L_bce + KL_gaussian)``

where ``P`` are the (differentiable) mixture responsibilities of the latent
codes and ``Q`` is the sharpened target distribution.  Mixture parameters
are refreshed with EM steps on the current embeddings, which captures the
per-cluster variances the original model exploits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.assignments import soft_assignment_gaussian, target_distribution
from repro.clustering.gmm import GaussianMixture
from repro.models.base import GAEClusteringModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class GMMVGAE(GAEClusteringModel):
    """Variational GAE clustered with a Gaussian Mixture Model."""

    group = "second"
    variational = True

    def __init__(
        self,
        num_features: int,
        num_clusters: int,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        learning_rate: float = 0.01,
        gamma: float = 0.1,
        seed: int = 0,
        target_refresh_interval: int = 5,
        em_refresh_iterations: int = 2,
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
        self.em_refresh_iterations = int(em_refresh_iterations)
        self._mixture: Optional[GaussianMixture] = None

    # ------------------------------------------------------------------
    # clustering parameters
    # ------------------------------------------------------------------
    def init_clustering(self, embeddings: np.ndarray) -> None:
        """Fit a fresh diagonal GMM on the embeddings."""
        mixture = GaussianMixture(self.num_clusters, max_iter=100, seed=self.seed)
        mixture.fit(embeddings)
        self._mixture = mixture
        self.cluster_centers_ = mixture.means_.copy()
        self.cluster_variances_ = mixture.variances_.copy()
        self._target = target_distribution(mixture.predict_proba(embeddings))

    def refresh_clustering(self, embeddings: np.ndarray) -> None:
        """Run a few EM iterations from the current mixture parameters."""
        if self._mixture is None:
            self.init_clustering(embeddings)
            return
        mixture = self._mixture
        for _ in range(self.em_refresh_iterations):
            responsibilities, _ = mixture._e_step(embeddings)
            mixture._m_step(embeddings, responsibilities)
        self.cluster_centers_ = mixture.means_.copy()
        self.cluster_variances_ = mixture.variances_.copy()
        self._target = target_distribution(mixture.predict_proba(embeddings))

    def predict_assignments(self, embeddings: np.ndarray) -> np.ndarray:
        """Gaussian mixture responsibilities for given embeddings.

        The responsibilities are tempered by the latent dimensionality so the
        confidence scores consumed by the operator Ξ stay in a useful range
        (see :func:`repro.clustering.assignments.soft_assignment_gaussian`).
        """
        if self._mixture is None:
            self.init_clustering(embeddings)
        return soft_assignment_gaussian(
            embeddings,
            self.cluster_centers_,
            self.cluster_variances_,
            temperature=float(self.latent_dim),
        )

    # ------------------------------------------------------------------
    # checkpointing (repro.store)
    # ------------------------------------------------------------------
    def extra_state(self):
        state = super().extra_state()
        mixture = self._mixture
        state["mixture"] = None if mixture is None else {
            "num_components": mixture.num_components,
            "max_iter": mixture.max_iter,
            "tol": mixture.tol,
            "reg_covar": mixture.reg_covar,
            "seed": mixture.seed,
            "means": mixture.means_.copy(),
            "variances": mixture.variances_.copy(),
            "weights": mixture.weights_.copy(),
        }
        return state

    def load_extra_state(self, state) -> None:
        super().load_extra_state(state)
        mixture_state = state.get("mixture")
        if mixture_state is None:
            self._mixture = None
        else:
            mixture = GaussianMixture(
                mixture_state["num_components"],
                max_iter=mixture_state["max_iter"],
                tol=mixture_state["tol"],
                reg_covar=mixture_state["reg_covar"],
                seed=mixture_state["seed"],
            )
            mixture.means_ = np.array(mixture_state["means"], copy=True)
            mixture.variances_ = np.array(mixture_state["variances"], copy=True)
            mixture.weights_ = np.array(mixture_state["weights"], copy=True)
            self._mixture = mixture

    # ------------------------------------------------------------------
    # losses
    # ------------------------------------------------------------------
    def soft_assignment_tensor(self, z: Tensor) -> Tensor:
        """Differentiable Gaussian responsibilities P(Z | mixture params).

        Mixture means/variances are treated as constants (they are refreshed
        by EM), so the gradient flows only through the embeddings, exactly
        like the formulation of Eq. (15).
        """
        if self.cluster_centers_ is None or self.cluster_variances_ is None:
            raise RuntimeError("init_clustering must run before the clustering loss")
        inv_var = 1.0 / np.maximum(self.cluster_variances_, 1e-8)
        scaled_mu = self.cluster_centers_ * inv_var
        const = np.sum(self.cluster_centers_ ** 2 * inv_var, axis=1)
        z_sq_term = (z * z) @ Tensor(inv_var.T)
        cross_term = z @ Tensor(scaled_mu.T)
        log_scores = (z_sq_term - 2.0 * cross_term + Tensor(const[None, :])) * -0.5
        return F.softmax(log_scores, axis=1)
