"""Functional wrappers around :class:`~repro.nn.tensor.Tensor` operations.

These mirror the ``torch.nn.functional`` style API the original code base
uses, plus the loss functions of the model family (binary cross-entropy
from logits for the adversarial discriminator, KL terms for the variational
models, and the KL clustering loss of DGAE).  The weighted reconstruction
loss is one fused op, :func:`inner_product_bce`, which walks ``Z Zᵀ`` in
``LOGIT_TILE``-sized tiles and never holds an (N, N) array.  It reads its
target as a :class:`TiledTarget`, whose stored entries :func:`tile_target`
has already bucketed by tile, so steps that reconstruct the same graph
share one bucketing.  :func:`~repro.models.base.reconstruction_target`
builds that target from a CSR graph, and
:meth:`~repro.models.base.GAEClusteringModel.reconstruction_loss` calls the
op.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, grad_enabled
from repro.observability.tracer import span as _span

ArrayOrTensor = Union[np.ndarray, Tensor]

#: Side of the square tiles of ``Z Zᵀ`` that :func:`inner_product_bce` visits.
LOGIT_TILE = 128


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
    (or any object exposing ``matmul``/``transpose``), so no gradient flows
    into it: the (N, N) GCN propagation matrix, which is fixed for a given
    graph, or the (N, F) input features of the first GCN layer, which
    multiply its weight ``W`` as ``spmm(X, W)``.  The backward pass is
    ``∂L/∂X = Aᵀ @ ∂L/∂out`` (``∂L/∂W = Xᵀ G`` for the features), also
    computed sparsely on the cached transpose, which keeps both directions
    at O(nnz · d) instead of O(N² d).  Both products run inside a
    ``kernel.spmm`` span.
    """
    x_t = as_tensor(x)
    with _span("kernel.spmm"):
        out_data = adjacency.matmul(x_t.data)

    def backward(grad: np.ndarray):
        with _span("kernel.spmm"):
            return (adjacency.transpose().matmul(grad),)

    return x_t._make_child(out_data, (x_t,), backward)


class TiledTarget(NamedTuple):
    """A sparse reconstruction target bucketed for :func:`inner_product_bce`.

    Built by :func:`tile_target`.  Its arrays are read-only, so every step
    that reconstructs the same graph can share one.  It holds one in-tile
    offset and one value per stored entry, plus one start per tile.
    """

    #: N, the number of rows ``Z`` must have.
    num_nodes: int
    #: (nnz,) int64 flat position of each entry inside its tile, in tile order.
    offsets: np.ndarray
    #: (nnz,) float64 value of each entry, in the same order.
    values: np.ndarray
    #: (blocks² + 1,) int64: tile ``k = i·blocks + j`` owns ``starts[k]:starts[k + 1]``.
    starts: np.ndarray
    #: weight ``w`` of the positive term at the stored entries.
    pos_weight: float
    #: normalisation the mean loss is multiplied by.
    norm: float


def tile_target(
    rows: np.ndarray,
    cols: np.ndarray,
    y: np.ndarray,
    num_nodes: int,
    pos_weight: float,
    norm: float,
) -> TiledTarget:
    """Bucket the target values ``y`` at ``(rows, cols)`` by the tiles of
    ``Z Zᵀ`` that :func:`inner_product_bce` visits.

    The loop visits the upper block triangle only, so an entry below the
    block diagonal moves to its mirror tile.  One stable argsort on the tile
    key then orders the entries as the loop visits the tiles, keeping the
    input order inside each tile.
    """
    n = int(num_nodes)
    tile = LOGIT_TILE
    blocks = -(-n // tile)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    mirrored = rows // tile > cols // tile
    rows, cols = np.where(mirrored, cols, rows), np.where(mirrored, rows, cols)
    keys = rows // tile * blocks + cols // tile
    order = np.argsort(keys, kind="stable")
    rows, cols = rows[order], cols[order]
    values = np.asarray(y, dtype=np.float64)[order]
    # The last column of tiles may be narrower than ``tile``.
    widths = np.minimum(tile, n - cols // tile * tile)
    offsets = rows % tile * widths + cols % tile
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=blocks * blocks))))
    for array in (offsets, values, starts):
        array.flags.writeable = False
    return TiledTarget(n, offsets, values, starts, float(pos_weight), float(norm))


def inner_product_bce(z: ArrayOrTensor, target: TiledTarget) -> Tensor:
    """Weighted BCE between ``sigmoid(Z Zᵀ)`` and a sparse target, fused.

    The target holds ``y`` at its stored entries and 0 elsewhere.  With
    ``x = Z Zᵀ``, ``w = target.pos_weight`` and ``norm = target.norm`` the
    loss is::

        norm / N² · [Σ_all softplus(x_ij) + Σ_stored y·((w−1)·softplus(x) − w·x)]

    The all-pairs sum runs over ``LOGIT_TILE``² tiles of the upper block
    triangle (``x`` is symmetric, so an off-diagonal tile counts twice),
    taking softplus and σ from one ``exp(−|x|)``.  Each stored entry is
    folded into the tile that holds it (or its mirror), where
    :func:`tile_target` bucketed it: its ``x`` and softplus are gathered
    there, and its gradient coefficient ``y·((w−1)·σ − w)`` is added to the
    tile's σ before the tile's two products with ``Z``.  Memory is
    O(B² + N·d + |E|): no (N, N) array exists.

    ``∂L/∂Z`` is computed in the same pass, only when gradients are
    enabled and ``z`` requires them; the backward scales it by the upstream
    gradient.  Raises ``ValueError`` when the target's node count differs
    from the rows of ``z``.
    """
    z_t = as_tensor(z)
    zd = z_t.data
    n = zd.shape[0]
    if target.num_nodes != n:
        raise ValueError(
            f"reconstruction target has {target.num_nodes} nodes but Z has {n} rows"
        )
    tile = LOGIT_TILE
    blocks = -(-n // tile)
    local, y, starts = target.offsets, target.values, target.starts
    w = target.pos_weight
    grad = np.zeros_like(zd) if grad_enabled() and z_t.requires_grad else None
    pairs = 0.0
    edges = 0.0
    with _span("kernel.inner_product_bce"):
        for i0 in range(0, n, tile):
            z_i = zd[i0:i0 + tile]
            for j0 in range(i0, n, tile):
                z_j = zd[j0:j0 + tile]
                key = i0 // tile * blocks + j0 // tile
                at = local[starts[key]:starts[key + 1]]
                y_at = y[starts[key]:starts[key + 1]]
                x = z_i @ z_j.T
                e = np.abs(x)
                np.negative(e, out=e)
                np.exp(e, out=e)
                softplus = np.log1p(e)
                softplus += np.maximum(x, 0.0)
                pairs += softplus.sum() if i0 == j0 else 2.0 * softplus.sum()
                edges += ((np.take(softplus, at) * (w - 1.0) - np.take(x, at) * w) * y_at).sum()
                if grad is None:
                    continue
                # σ = where(x ≥ 0, 1, e) / (1 + e); e ≤ 1, so the numerator
                # is max(e, [x ≥ 0]) (a masked select is several times slower).
                sigma = np.maximum(e, x >= 0.0)
                e += 1.0
                sigma /= e
                folded = (np.take(sigma, at) * (w - 1.0) - w) * y_at
                if i0 == j0:
                    np.add.at(sigma.reshape(-1), at, folded)
                    grad[i0:i0 + tile] += sigma @ z_i + sigma.T @ z_i
                else:
                    sigma *= 2.0  # the tile and its mirror
                    np.add.at(sigma.reshape(-1), at, folded)
                    grad[i0:i0 + tile] += sigma @ z_j
                    grad[j0:j0 + tile] += sigma.T @ z_i
    scale = target.norm / (n * n)
    if grad is not None:
        grad *= scale

    def backward(upstream: np.ndarray):
        return (upstream * grad,)

    return z_t._make_child(np.asarray((pairs + edges) * scale), (z_t,), backward)


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
