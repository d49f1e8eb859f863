"""Neural layers used by the GAE model family.

* :class:`Dense` — fully-connected layer.
* :class:`GraphConvolution` — Kipf & Welling GCN layer
  ``H' = act(A_norm H W + b)`` where ``A_norm`` is the symmetrically
  normalised adjacency (a constant for a given graph).
* :class:`MLP` — a stack of dense layers, used by the adversarial
  discriminator of ARGAE/ARVGAE and by the theory experiments on extra
  encoder/decoder layers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.graph.sparse import SparseAdjacency
from repro.nn import functional as F
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_tensor

Activation = Optional[Callable[[Tensor], Tensor]]

_ACTIVATIONS = {
    None: None,
    "linear": None,
    "relu": F.relu,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
}


def resolve_activation(activation) -> Activation:
    """Map an activation name (or callable) to a callable or ``None``."""
    if callable(activation):
        return activation
    if activation in _ACTIVATIONS:
        return _ACTIVATIONS[activation]
    raise ValueError(f"unknown activation: {activation!r}")


class Dense(Module):
    """Fully-connected layer ``act(x W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation="relu",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = glorot_uniform(in_features, out_features, rng)
        self.bias = zeros(out_features) if bias else None
        self.activation = resolve_activation(activation)

    def forward(self, x) -> Tensor:
        out = F.linear(as_tensor(x), self.weight, self.bias)
        if self.activation is not None:
            out = self.activation(out)
        return out


class GraphConvolution(Module):
    """Graph convolutional layer ``act(A_norm X W + b)``.

    The normalised adjacency is passed at call time so the same layer can be
    evaluated against different self-supervision graphs (the R- operators
    rewrite the graph during training).  It may be a dense ``(N, N)`` array
    or a :class:`~repro.graph.sparse.SparseAdjacency`; the sparse form runs
    propagation (forward and backward) in O(|E| d) via :func:`repro.nn.functional.spmm`.
    The input ``X`` may likewise be an (N, F) ``SparseAdjacency``: the
    first layer's constant bag-of-words features
    (:func:`~repro.graph.sparse.feature_matrix`), whose product ``X W``
    and weight gradient ``Xᵀ G`` then also run through ``spmm``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation="relu",
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = glorot_uniform(in_features, out_features, rng)
        self.bias = zeros(out_features) if bias else None
        self.activation = resolve_activation(activation)

    def forward(self, x, adj_norm) -> Tensor:
        if isinstance(x, SparseAdjacency):
            support = F.spmm(x, self.weight)
        else:
            support = as_tensor(x) @ self.weight
        if isinstance(adj_norm, SparseAdjacency):
            out = F.spmm(adj_norm, support)
        else:
            adj = Tensor(np.asarray(adj_norm, dtype=np.float64))  # repro: noqa[REP002] dense half of the dual-path dispatch; spmm handles SparseAdjacency above, this wraps inputs that are already dense
            out = adj @ support
        if self.bias is not None:
            out = out + self.bias
        if self.activation is not None:
            out = self.activation(out)
        return out


class MLP(Module):
    """A stack of dense layers.

    ``hidden_activation`` is applied between layers and ``output_activation``
    after the final layer.  Used for the ARGAE discriminator and for the
    fully-connected stacks analysed in Theorems 2-3.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation="relu",
        output_activation=None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers: List[Dense] = []
        last_index = len(layer_sizes) - 2
        for index, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            activation = output_activation if index == last_index else hidden_activation
            self.layers.append(
                Dense(fan_in, fan_out, activation=activation, bias=bias, rng=rng)
            )

    def forward(self, x) -> Tensor:
        out = as_tensor(x)
        for layer in self.layers:
            out = layer(out)
        return out
