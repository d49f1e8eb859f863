"""Feature Randomness and Feature Drift diagnostics.

Two families of metrics from the paper:

* the *training* metrics Λ_FR (Eq. 4) and Λ_FD (Eq. 7) — cosine similarity
  between parameter gradients of the pseudo-supervised loss and of its
  supervised (oracle) counterpart; computed on a live model with the autodiff
  engine;
* the *elementary* per-node metrics Λ'_FR and Λ'_FD (Definitions 1-2) — inner
  products between gradients of the graph-Laplacian losses with respect to a
  single embedded point; used by the theory experiments around Theorems 2-5.

Also provides :func:`graph_filter_impact`, the function ``P(x_i)`` of
Eq. (12) that quantifies whether the graph convolution helps clustering a
node.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import SparseAdjacency
from repro.models.base import GAEClusteringModel
from repro.nn.tensor import Tensor


def gradient_cosine(
    model: GAEClusteringModel,
    loss_fn_a: Callable[[], Tensor],
    loss_fn_b: Callable[[], Tensor],
    eps: float = 1e-12,
) -> float:
    """Cosine similarity between the parameter gradients of two scalar losses.

    Each loss function is evaluated and back-propagated independently; the
    model's gradients are cleared before and after so the measurement never
    leaks into training.
    """

    def grad_of(loss_fn: Callable[[], Tensor]) -> np.ndarray:
        model.zero_grad()
        loss = loss_fn()
        loss.backward()
        gradient = model.gradient_vector()
        model.zero_grad()
        # The measurement graph would otherwise linger as cyclic garbage
        # until the GC runs (REP003); diagnostics fire every few epochs, so
        # the piles add up.
        loss.release_graph()
        return gradient

    grad_a = grad_of(loss_fn_a)
    grad_b = grad_of(loss_fn_b)
    norm = np.linalg.norm(grad_a) * np.linalg.norm(grad_b)
    if norm < eps:
        return 0.0
    return float(np.clip(np.dot(grad_a, grad_b) / norm, -1.0, 1.0))


def feature_randomness_metric(
    model: GAEClusteringModel,
    features: Union[np.ndarray, SparseAdjacency],
    adj_norm: Union[np.ndarray, SparseAdjacency],
    oracle_target: np.ndarray,
    reliable_nodes: Optional[np.ndarray] = None,
) -> float:
    """Λ_FR (Eq. 4) for a second-group model.

    Compares the gradient of the model's clustering loss evaluated with its
    own (pseudo-supervised) target — restricted to the decidable set Ω when
    ``reliable_nodes`` is given — against the gradient of the same loss with
    the Hungarian-aligned oracle assignments ``Q'`` on all nodes.  Values lie
    in [-1, 1]; higher means less Feature Randomness.
    """
    if getattr(model, "group", None) != "second":
        raise TypeError(
            "feature_randomness_metric requires a second-group model (one "
            "with a differentiable clustering loss and soft assignment)"
        )

    def pseudo_loss() -> Tensor:
        z = model.encode(features, adj_norm, sample=False)
        return model.clustering_loss(z, reliable_nodes)

    def oracle_loss() -> Tensor:
        z = model.encode(features, adj_norm, sample=False)
        return model.clustering_loss_with_target(z, oracle_target, None)

    return gradient_cosine(model, pseudo_loss, oracle_loss)


def feature_drift_metric(
    model: GAEClusteringModel,
    features: Union[np.ndarray, SparseAdjacency],
    adj_norm: Union[np.ndarray, SparseAdjacency],
    self_supervision_graph: SparseAdjacency,
    oracle_graph: SparseAdjacency,
) -> float:
    """Λ_FD (Eq. 7).

    Compares the gradient of the reconstruction loss against the current
    (operator-built) self-supervision graph with the gradient of the same
    loss against the oracle clustering-oriented graph ``Υ(A, Q', V)``.
    Both graphs are CSR, as the reconstruction loss reads them.  Values lie
    in [-1, 1]; higher means less Feature Drift.
    """

    def pseudo_loss() -> Tensor:
        z = model.encode(features, adj_norm, sample=False)
        return model.reconstruction_loss(z, self_supervision_graph)

    def oracle_loss() -> Tensor:
        z = model.encode(features, adj_norm, sample=False)
        return model.reconstruction_loss(z, oracle_graph)

    return gradient_cosine(model, pseudo_loss, oracle_loss)


# ----------------------------------------------------------------------
# elementary per-node metrics (Definitions 1-2)
# ----------------------------------------------------------------------
def _laplacian_gradient(embeddings: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-node gradient of ``L_C(Z, A')``: ``∂L/∂z_i = Σ_j a'_ij (z_i - z_j)``.

    Valid for symmetric weight matrices (A_clus, A_sup, normalised A_self).
    """
    z = np.asarray(embeddings, dtype=np.float64)
    a = np.asarray(weights, dtype=np.float64)
    degrees = a.sum(axis=1)
    return degrees[:, None] * z - a @ z


def elementary_fr(
    embeddings: np.ndarray, clustering_weights: np.ndarray, supervision_weights: np.ndarray
) -> np.ndarray:
    """Λ'_FR per node (Definition 1): ``⟨∂L_C(Z,A_clus)/∂z_i, ∂L_C(Z,A_sup)/∂z_i⟩``."""
    grad_clus = _laplacian_gradient(embeddings, clustering_weights)
    grad_sup = _laplacian_gradient(embeddings, supervision_weights)
    return np.sum(grad_clus * grad_sup, axis=1)


def elementary_fd(
    embeddings: np.ndarray, self_supervision: np.ndarray, supervision_weights: np.ndarray
) -> np.ndarray:
    """Λ'_FD per node (Definition 2): ``⟨∂L_C(Z,~A_self)/∂z_i, ∂L_C(Z,A_sup)/∂z_i⟩``.

    ``self_supervision`` is normalised internally (``D^{-1/2} A D^{-1/2}``
    without self loops) as prescribed by the paper's simplifications.
    """
    normalized = normalize_adjacency(self_supervision, self_loops=False)
    grad_self = _laplacian_gradient(embeddings, normalized)
    grad_sup = _laplacian_gradient(embeddings, supervision_weights)
    return np.sum(grad_self * grad_sup, axis=1)


def graph_filter_impact(
    features: np.ndarray, adjacency: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """The function ``P(x_i)`` of Eq. (12).

    ``P(x_i) = ||x_i - h_sup(x_i)|| - ||h_self(x_i) - h_sup(x_i)||`` where
    ``h_sup`` averages over the node's ground-truth cluster and ``h_self``
    over its immediate (normalised) neighbourhood.  ``P(x_i) ≥ 0`` means the
    graph filtering operation moves the node towards its true cluster centre,
    i.e. has a positive impact on clustering that node.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    norm_self = normalize_adjacency(adjacency, self_loops=False)
    # Row-normalise so h_self is an average rather than a weighted sum.
    row_sums = norm_self.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    h_self = (norm_self / row_sums) @ x
    h_sup = np.zeros_like(x)
    for cluster in np.unique(labels):
        members = labels == cluster
        h_sup[members] = x[members].mean(axis=0)
    direct = np.linalg.norm(x - h_sup, axis=1)
    filtered = np.linalg.norm(h_self - h_sup, axis=1)
    return direct - filtered
