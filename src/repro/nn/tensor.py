"""Reverse-mode automatic differentiation over numpy arrays.

The :class:`Tensor` class records a dynamic computation graph as operations
are applied and computes gradients of a scalar loss with respect to every
tensor that has ``requires_grad=True`` via :meth:`Tensor.backward`.

Only the operations required by the GAE model family are implemented, but
each one supports full numpy broadcasting with correct gradient
accumulation (broadcast dimensions are summed out on the way back).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

# Grad mode is tracked per thread: a no_grad() evaluation pass on one thread
# (e.g. a metrics callback running concurrently with training) must not
# disable graph construction for every other thread, which a module-level
# boolean would.
_GRAD_STATE = threading.local()

# Sanitizer hook points (repro.analysis.sanitizers).  ``None`` when the
# sanitizers are off, which keeps the hot-path cost to one global load and
# an is-None test per operation.  The child hook sees every tensor produced
# by an autograd op; the grad hook sees every gradient accumulated during
# backward().
_CHILD_HOOK: Optional[Callable[["Tensor"], None]] = None
_GRAD_HOOK: Optional[Callable[["Tensor", np.ndarray], None]] = None


def set_sanitizer_hooks(
    child_hook: Optional[Callable[["Tensor"], None]],
    grad_hook: Optional[Callable[["Tensor", np.ndarray], None]],
) -> None:
    """Install (or, with ``None``, remove) the runtime sanitizer hooks."""
    global _CHILD_HOOK, _GRAD_HOOK
    _CHILD_HOOK = child_hook  # repro: noqa[REP102] per-process sanitizer hook slot, set once at worker start
    _GRAD_HOOK = grad_hook  # repro: noqa[REP102] per-process sanitizer hook slot, set once at worker start


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Useful for evaluation passes (metrics, cluster re-initialisation) where
    gradients are not needed, mirroring ``torch.no_grad``.  The flag is
    thread-local, so concurrent evaluation never corrupts grad state across
    threads.
    """
    previous = grad_enabled()
    _GRAD_STATE.enabled = False  # repro: noqa[REP102] thread-local grad mode, restored in finally; deterministic per worker
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` without copying existing tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


class Tensor:
    """A numpy array with reverse-mode autograd support."""

    # __weakref__ lets the sanitizers track live graph nodes in a WeakSet
    # without ever extending their lifetime.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def release_graph(self) -> None:
        """Sever the autograd graph rooted at this tensor.

        Every ``_backward`` closure captures its output tensor, so a
        computation graph is a web of reference cycles that only the
        *cyclic* garbage collector can reclaim; until it runs, the large
        intermediate arrays (and their accumulated gradients) of past
        steps pile up.  Training loops call this after ``optimizer.step()``
        so each step's graph is freed immediately by reference counting —
        essential for minibatch loops running many steps per epoch.  Leaf
        tensors (parameters) have no parents or closure and keep their
        accumulated ``grad``.
        """
        stack: List["Tensor"] = [self]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            parents = node._parents
            node._parents = ()
            node._backward = None
            stack.extend(parents)

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = grad_enabled() and any(p.requires_grad for p in parents)
        child = Tensor(data, requires_grad=requires)
        if requires:
            child._parents = tuple(parents)
            child._backward = backward
        if _CHILD_HOOK is not None:
            _CHILD_HOOK(child)
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if _GRAD_HOOK is not None:
            _GRAD_HOOK(self, grad)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor.

        If the tensor is not a scalar an explicit upstream ``grad`` of the
        same shape must be provided.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Post-order DFS with an explicit stack.  A recursive helper would
        # both hit the interpreter recursion limit on deep graphs and — being
        # a self-referencing closure — form a reference cycle that keeps the
        # whole topo list (the entire graph) alive until the cyclic GC runs.
        # Parents are pushed in reverse so the traversal (and therefore the
        # gradient accumulation order) is identical to the recursive form.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple["Tensor", bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in reversed(node._parents):
                stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            if parent_grads is None:
                continue
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = _unbroadcast(
                    np.asarray(pgrad, dtype=np.float64), parent.data.shape
                )
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return grad, grad

        return self._make_child(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return grad, -grad

        return self._make_child(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return grad * other_t.data, grad * self.data

        return self._make_child(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray):
            grad_self = grad / other_t.data
            grad_other = -grad * self.data / (other_t.data ** 2)
            return grad_self, grad_other

        return self._make_child(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1.0),)

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray):
            # A constant operand (the features, a dense propagation matrix)
            # needs no gradient: skip its product.
            grad_self = grad @ other_t.data.T if self.requires_grad else None
            grad_other = self.data.T @ grad if other_t.requires_grad else None
            return grad_self, grad_other

        return self._make_child(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad.T,)

        return self._make_child(self.data.T, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original_shape = self.data.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original_shape),)

        return self._make_child(self.data.reshape(*shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad)
            if axis is None:
                return (np.broadcast_to(grad, self.data.shape).copy(),)
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            return (np.broadcast_to(grad, self.data.shape).copy(),)

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # element-wise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * out_data,)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return self._make_child(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        out_data = self.data * mask

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return self._make_child(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out_data ** 2),)

        return self._make_child(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable log(1 + exp(x))."""
        x = self.data
        out_data = np.logaddexp(0.0, x)
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

        def backward(grad: np.ndarray):
            return (grad * sig,)

        return self._make_child(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make_child(out_data, (self,), backward)


def stack_parameters(tensors: Iterable[Tensor]) -> np.ndarray:
    """Flatten and concatenate tensor values into a single vector."""
    return np.concatenate([t.data.ravel() for t in tensors])


def stack_gradients(tensors: Iterable[Tensor]) -> np.ndarray:
    """Flatten and concatenate tensor gradients into a single vector.

    Parameters without gradients contribute zero blocks, so the result is
    always aligned with :func:`stack_parameters`.
    """
    blocks = []
    for t in tensors:
        if t.grad is None:
            blocks.append(np.zeros(t.data.size))
        else:
            blocks.append(np.asarray(t.grad).ravel())
    return np.concatenate(blocks)
