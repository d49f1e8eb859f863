"""Minimal neural-network substrate built on numpy.

This subpackage replaces the PyTorch dependency of the original R-GAE code
base with a small, self-contained reverse-mode automatic differentiation
engine.  It provides exactly what the paper's models need:

* :class:`~repro.nn.tensor.Tensor` — an autograd-enabled array wrapper.
* Functional ops (``relu``, ``sigmoid``, ``softplus``, reductions, matmul,
  the sparse propagation primitive :func:`~repro.nn.functional.spmm` and
  the fused, tiled reconstruction loss
  :func:`~repro.nn.functional.inner_product_bce`).
* Layers — :class:`~repro.nn.layers.Dense`,
  :class:`~repro.nn.layers.GraphConvolution`, :class:`~repro.nn.layers.MLP`.
* Optimizers — :class:`~repro.nn.optim.SGD`, :class:`~repro.nn.optim.Adam` —
  and :func:`~repro.nn.optim.train_step`, the one gradient step of every
  training loop.

Dense tensors remain the default substrate, but graph propagation also runs
against the CSR backend in :mod:`repro.graph.sparse`: pass a
:class:`~repro.graph.sparse.SparseAdjacency` to a
:class:`~repro.nn.layers.GraphConvolution` (or call
:func:`~repro.nn.functional.spmm` directly) and both the forward and the
backward pass cost O(|E| d) instead of O(N² d).
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.functional import spmm
from repro.nn.module import Module, Parameter
from repro.nn.layers import Dense, GraphConvolution, MLP
from repro.nn.init import glorot_uniform, zeros, normal
from repro.nn.optim import SGD, Adam, Optimizer, train_step

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "spmm",
    "Module",
    "Parameter",
    "Dense",
    "GraphConvolution",
    "MLP",
    "glorot_uniform",
    "zeros",
    "normal",
    "SGD",
    "Adam",
    "Optimizer",
    "train_step",
]
