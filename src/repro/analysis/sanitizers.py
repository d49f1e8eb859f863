"""Opt-in runtime sanitizers guarding the library's training invariants.

Enable with ``REPRO_SANITIZE=1`` (the tier-1 suite runs once in this mode
in CI) or programmatically via :func:`install_sanitizers` /
:func:`sanitized`.  Three guards are provided:

* **NaN/Inf tensor guard** — every autograd op output and every gradient
  ``backward()`` computes (for intermediate nodes too, which keep no
  ``.grad``) is checked for non-finite values; violations raise
  :class:`~repro.errors.NonFiniteTensorError` at the op that produced
  them instead of surfacing as a corrupted metric hundreds of steps
  later.
* **Autograd leak detector** — :func:`autograd_leak_check` tracks every
  graph node created inside its scope and fails if any still holds a
  backward closure at exit.  The training loops wrap their epochs in it,
  so a missing ``release_graph()`` (the PR-4 leak class, lint rule
  REP003) fails a sanitized test run instead of silently inflating peak
  memory.
* **RNG isolation check** — :func:`rng_isolation_check` fails if the
  wrapped code consumed the process-global numpy RNG, which would break
  the bitwise ``--jobs`` determinism guarantee.  Pool workers wrap every
  trial in it when sanitizing.

The hooks cost one global load and an is-None test per tensor op when the
sanitizers are off, so shipping them enabled-in-CI-only is free for
production use.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Iterator, List, Set

import numpy as np

from repro.env import SANITIZE_ENV, env_flag
from repro.errors import AutogradLeakError, NonFiniteTensorError, RngIsolationError
from repro.nn import tensor as _tensor_mod
from repro.nn.tensor import Tensor

__all__ = [
    "sanitizers_enabled",
    "install_sanitizers",
    "uninstall_sanitizers",
    "install_from_env",
    "sanitized",
    "live_graph_nodes",
    "autograd_leak_check",
    "rng_isolation_check",
]

_enabled = False

# Weak tracking of every tensor produced by an autograd op while the
# sanitizers are enabled.  Entries vanish the moment the interpreter frees
# the tensor, so membership plus an intact ``_backward`` closure is exactly
# the "live graph node" condition the leak detector needs.
_graph_nodes: "weakref.WeakSet[Tensor]" = weakref.WeakSet()


def _describe_nonfinite(values: np.ndarray) -> str:
    nan = int(np.isnan(values).sum())
    pos = int(np.isposinf(values).sum())
    neg = int(np.isneginf(values).sum())
    parts = [
        text
        for count, text in ((nan, f"{nan} NaN"), (pos, f"{pos} +Inf"), (neg, f"{neg} -Inf"))
        if count
    ]
    return ", ".join(parts) or "non-finite values"


def _child_hook(child: Tensor) -> None:
    data = child.data
    if not np.all(np.isfinite(data)):
        raise NonFiniteTensorError(
            f"tensor operation produced {_describe_nonfinite(data)} in an "
            f"output of shape {data.shape}"
        )
    if child._backward is not None:
        _graph_nodes.add(child)  # repro: noqa[REP102] per-process leak-detector bookkeeping, reset every trial


def _grad_hook(node: Tensor, grad: np.ndarray) -> None:
    if not np.all(np.isfinite(grad)):
        raise NonFiniteTensorError(
            f"backward() accumulated {_describe_nonfinite(grad)} into a "
            f"gradient of shape {grad.shape}"
        )


def sanitizers_enabled() -> bool:
    """Whether the runtime sanitizers are currently installed."""
    return _enabled


def install_sanitizers() -> None:
    """Install the tensor hooks and start tracking graph nodes."""
    global _enabled
    _enabled = True  # repro: noqa[REP102] per-process install flag; each worker arms its own hooks
    _tensor_mod.set_sanitizer_hooks(_child_hook, _grad_hook)


def uninstall_sanitizers() -> None:
    """Remove the hooks and drop all tracking state."""
    global _enabled
    _enabled = False
    _tensor_mod.set_sanitizer_hooks(None, None)
    _graph_nodes.clear()


def install_from_env() -> bool:
    """Install the sanitizers when ``REPRO_SANITIZE`` is set; return whether.

    Idempotent, and called from process entry points that may run inside
    pool workers (workers inherit the parent environment, so exporting the
    flag before the pool starts sanitizes every trial).
    """
    if env_flag(SANITIZE_ENV) and not _enabled:  # repro: noqa[REP104] workers deliberately re-read inherited REPRO_SANITIZE (set before fan-out)
        install_sanitizers()
    return _enabled


@contextlib.contextmanager
def sanitized() -> Iterator[None]:
    """Enable the sanitizers for the duration of the context (tests)."""
    was_enabled = _enabled
    install_sanitizers()
    try:
        yield
    finally:
        if not was_enabled:
            uninstall_sanitizers()


def live_graph_nodes() -> int:
    """Number of tracked tensors that still hold a backward closure."""
    return sum(1 for node in _graph_nodes if node._backward is not None)


@contextlib.contextmanager
def autograd_leak_check(scope: str = "scope") -> Iterator[None]:
    """Fail if graph nodes created inside the context survive its exit.

    "Survive" means the tensor object is still alive *and* still holds its
    ``_backward`` closure: nodes severed by ``release_graph()`` (or built
    under ``no_grad()``) never trigger, and nodes freed by the reference
    counter leave the weak set on their own.  Nodes that were already live
    at entry are exempt, so the checks nest — a discriminator step guarded
    inside a guarded pretraining epoch sees only its own creations.

    No-op unless the sanitizers are installed.
    """
    if not _enabled:
        yield
        return
    # Strong references for the duration of the context: identity
    # membership must not be confused by ids being reused after a
    # pre-existing node is freed mid-scope.
    at_entry: List[Tensor] = [
        node for node in _graph_nodes if node._backward is not None
    ]
    entry_ids: Set[int] = {id(node) for node in at_entry}
    try:
        yield
    finally:
        del at_entry
    survivors = [
        node
        for node in _graph_nodes
        if node._backward is not None and id(node) not in entry_ids
    ]
    if survivors:
        raise AutogradLeakError(len(survivors), scope)


def _rng_state_fingerprint() -> tuple:
    state = np.random.get_state()
    return tuple(
        value.tobytes() if isinstance(value, np.ndarray) else value for value in state
    )


@contextlib.contextmanager
def rng_isolation_check(scope: str = "trial") -> Iterator[None]:
    """Fail if the wrapped code advanced the process-global numpy RNG.

    All library randomness must flow from explicitly seeded
    ``np.random.Generator`` objects (REP001); global-stream consumption
    would make results depend on execution order and break the bitwise
    ``--jobs`` determinism contract.  No-op unless the sanitizers are
    installed.
    """
    if not _enabled:
        yield
        return
    before = _rng_state_fingerprint()
    yield
    if _rng_state_fingerprint() != before:
        raise RngIsolationError(
            f"{scope} consumed the process-global numpy RNG; use an "
            f"explicitly seeded np.random.Generator instead"
        )
