"""Clustering assignment utilities.

These implement the exact formulas the paper builds on:

* Eq. (15) — the Gaussian softening of hard assignments used by the sampling
  operator Ξ,
* Eq. (20) — the Student's t soft assignment used by DGAE,
* the DEC-style target distribution associated with the Student's t
  assignment (the "hard" counterpart Q of Appendix B),
* a one-hot encoding of hard labels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def hard_to_one_hot(labels: np.ndarray, num_clusters: Optional[int] = None) -> np.ndarray:
    """One-hot (N, K) encoding of integer hard labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if num_clusters is None:
        num_clusters = int(labels.max()) + 1
    one_hot = np.zeros((labels.shape[0], num_clusters))
    one_hot[np.arange(labels.shape[0]), labels] = 1.0
    return one_hot


def soft_assignment_gaussian(
    embeddings: np.ndarray,
    centers: np.ndarray,
    variances: Optional[np.ndarray] = None,
    temperature: float = 1.0,
    eps: float = 1e-12,
) -> np.ndarray:
    """Gaussian responsibility matrix of Eq. (15).

    ``p'_ij ∝ exp(-1/(2τ) (z_i - μ_j)^T Σ_j^{-1} (z_i - μ_j))`` with diagonal
    ``Σ_j``.  When ``variances`` is ``None`` unit variances are used, which
    reduces to a softmax over negative squared distances.

    ``temperature`` (τ) rescales the exponent.  Ξ's softening of hard
    assignments (:func:`soften_assignments`) and GMM-VGAE's
    ``predict_assignments``, which Ξ reads, use ``τ = d``, the latent
    dimensionality: the exponent becomes a
    per-dimension average rather than a sum, which divides every log-ratio
    between two clusters' scores by d.  The responsibilities are flatter,
    so the first and second confidence scores that Ξ compares with α1 and
    α2 do not saturate at 1 and 0 on low-dimensional, well-separated
    embeddings.  GMM-VGAE's training loss computes P at τ = 1
    (``soft_assignment_tensor``), so its labels and its training P use
    different scales; ROADMAP.md questions τ = d for GMM-VGAE in its open
    item on the R- claim for DGAE and GMM-VGAE.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    num_clusters = centers.shape[0]
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if variances is None:
        variances = np.ones_like(centers)
    variances = np.maximum(np.asarray(variances, dtype=np.float64), eps)
    log_scores = np.empty((embeddings.shape[0], num_clusters))
    for k in range(num_clusters):
        diff = embeddings - centers[k]
        log_scores[:, k] = -0.5 * np.sum(diff ** 2 / variances[k], axis=1) / temperature
    log_scores -= log_scores.max(axis=1, keepdims=True)
    scores = np.exp(log_scores)
    return scores / np.maximum(scores.sum(axis=1, keepdims=True), eps)


def soft_assignment_student_t(
    embeddings: np.ndarray, centers: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Student's t (degree 1) soft assignment of Eq. (20) / DEC.

    ``p_ij ∝ (1 + ||z_i - μ_j||²)^{-1}``.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    sq = (
        np.sum(embeddings ** 2, axis=1)[:, None]
        + np.sum(centers ** 2, axis=1)[None, :]
        - 2.0 * embeddings @ centers.T
    )
    np.maximum(sq, 0.0, out=sq)
    scores = 1.0 / (1.0 + sq)
    return scores / np.maximum(scores.sum(axis=1, keepdims=True), eps)


def target_distribution(soft_assignments: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """DEC/DGAE target distribution ``q_ij ∝ p_ij² / Σ_i p_ij``.

    Sharpens the soft assignment; DGAE minimises ``KL(Q || P)`` towards it.
    """
    p = np.asarray(soft_assignments, dtype=np.float64)
    weight = p ** 2 / np.maximum(p.sum(axis=0, keepdims=True), eps)
    return weight / np.maximum(weight.sum(axis=1, keepdims=True), eps)


def soften_assignments(
    assignments: np.ndarray,
    embeddings: np.ndarray,
    centers: Optional[np.ndarray] = None,
    variances: Optional[np.ndarray] = None,
    temperature: Optional[float] = None,
) -> np.ndarray:
    """First guideline of the sampling operator Ξ (Section 4.1).

    If ``assignments`` is already row-stochastic (soft) it is returned
    unchanged; otherwise hard assignments are converted to soft ones with the
    Gaussian responsibility of Eq. (15), estimating per-cluster means and
    diagonal variances from the hard partition when they are not supplied.
    ``temperature`` defaults to the embedding dimensionality (see
    :func:`soft_assignment_gaussian`).
    """
    assignments = np.asarray(assignments, dtype=np.float64)
    if assignments.ndim != 2:
        raise ValueError("assignments must be an (N, K) matrix")
    is_soft = np.allclose(assignments.sum(axis=1), 1.0) and np.any(
        (assignments > 0.0) & (assignments < 1.0)
    )
    if is_soft:
        return assignments
    hard = np.argmax(assignments, axis=1)
    num_clusters = assignments.shape[1]
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if temperature is None:
        temperature = float(embeddings.shape[1])
    if centers is None or variances is None:
        centers, variances = estimate_cluster_moments(embeddings, hard, num_clusters)
    return soft_assignment_gaussian(embeddings, centers, variances, temperature=temperature)


def estimate_cluster_moments(
    embeddings: np.ndarray, hard_labels: np.ndarray, num_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster means and diagonal variances from a hard partition.

    Empty clusters fall back to the global mean/variance so downstream soft
    assignments remain well defined.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    hard_labels = np.asarray(hard_labels, dtype=np.int64)
    global_mean = embeddings.mean(axis=0)
    global_var = embeddings.var(axis=0) + 1e-6
    centers = np.tile(global_mean, (num_clusters, 1))
    variances = np.tile(global_var, (num_clusters, 1))
    for k in range(num_clusters):
        members = embeddings[hard_labels == k]
        if members.shape[0] > 0:
            centers[k] = members.mean(axis=0)
        if members.shape[0] > 1:
            variances[k] = members.var(axis=0) + 1e-6
    return centers, variances
