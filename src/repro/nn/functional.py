"""Functional wrappers around :class:`~repro.nn.tensor.Tensor` operations.

These mirror the ``torch.nn.functional`` style API the original code base
uses, plus the loss functions of the model family (binary cross-entropy
from logits for the adversarial discriminator, KL terms for the variational
models, and the KL clustering loss of DGAE).  The weighted reconstruction
loss lives on :meth:`~repro.models.base.GAEClusteringModel.reconstruction_loss`,
which reads its target in CSR.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn.tensor import Tensor, as_tensor
from repro.observability.tracer import span as _span

ArrayOrTensor = Union[np.ndarray, Tensor]


def relu(x: ArrayOrTensor) -> Tensor:
    """Element-wise rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: ArrayOrTensor) -> Tensor:
    """Element-wise logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: ArrayOrTensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    return as_tensor(x).tanh()


def softplus(x: ArrayOrTensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    return as_tensor(x).softplus()


def exp(x: ArrayOrTensor) -> Tensor:
    return as_tensor(x).exp()


def log(x: ArrayOrTensor) -> Tensor:
    return as_tensor(x).log()


def linear(x: ArrayOrTensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def spmm(adjacency, x: ArrayOrTensor) -> Tensor:
    """Sparse-dense product ``A @ X`` with autograd support through ``X``.

    ``adjacency`` is a constant :class:`~repro.graph.sparse.SparseAdjacency`
    (or any object exposing ``matmul``/``transpose``): the GCN propagation
    matrix is fixed for a given graph, so no gradient flows into it.  The
    backward pass is ``∂L/∂X = Aᵀ @ ∂L/∂out``, also computed sparsely, which
    keeps both directions at O(nnz · d) instead of O(N² d).
    """
    x_t = as_tensor(x)
    with _span("kernel.spmm"):
        out_data = adjacency.matmul(x_t.data)
    adjacency_t = adjacency.transpose()

    def backward(grad: np.ndarray):
        return (adjacency_t.matmul(grad),)

    return x_t._make_child(out_data, (x_t,), backward)


def dropout(x: ArrayOrTensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.

    During evaluation (``training=False``) or with ``rate=0`` the input is
    returned unchanged.
    """
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask


def softmax(x: ArrayOrTensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def binary_cross_entropy_with_logits(logits: ArrayOrTensor, targets: ArrayOrTensor) -> Tensor:
    """Mean binary cross-entropy computed from logits.

    ``mean(softplus(x) − y·x)`` is ``−mean(y·log σ(x) + (1−y)·log(1−σ(x)))``
    without evaluating a logarithm of a saturated sigmoid.
    """
    logits = as_tensor(logits)
    targets_arr = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets, dtype=np.float64
    )
    return (logits.softplus() - Tensor(targets_arr) * logits).mean()


def gaussian_kl_divergence(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """KL( N(mu, sigma^2) || N(0, I) ) averaged over nodes.

    Used by VGAE-style models; ``log_sigma`` holds log standard deviations.
    """
    n = mu.shape[0]
    term = 1.0 + 2.0 * log_sigma - mu * mu - (2.0 * log_sigma).exp()
    return term.sum() * (-0.5 / n)


def kl_divergence_rows(p: ArrayOrTensor, q: ArrayOrTensor, eps: float = 1e-12) -> Tensor:
    """Row-wise ``KL(p || q)`` summed over all rows.

    Both arguments are (N, K) row-stochastic matrices.  This is the DGAE
    clustering loss ``KL(Q || P)`` of Appendix B when called as
    ``kl_divergence_rows(target, soft_assignment)``.
    """
    p = as_tensor(p)
    q = as_tensor(q)
    p_safe = p + eps
    q_safe = q + eps
    return (p * (p_safe.log() - q_safe.log())).sum()
