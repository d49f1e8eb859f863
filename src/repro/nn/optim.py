"""Gradient-descent optimizers and the one training step every loop runs.

Both GAE pretraining and the clustering phase of every model in the paper
use Adam with learning rate 0.01; SGD is provided for ablations and tests.
:func:`train_step` is the single place where a gradient step happens.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer operating on a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serializable optimizer state (hyper-parameters plus buffers).

        Loading the result with :meth:`load_state_dict` into an optimizer
        over the same parameters makes subsequent steps bitwise identical
        to an uninterrupted run — the contract the snapshot/resume tests of
        :mod:`repro.store` pin down.
        """
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict` (inverse operation)."""
        raise NotImplementedError

    def _check_state(self, state: Dict[str, Any]) -> None:
        """Shared validation: type tag and per-parameter buffer shapes."""
        if not isinstance(state, dict):
            raise ValueError(f"optimizer state must be a dict, got {type(state).__name__}")
        expected = type(self).__name__
        found = state.get("type")
        if found != expected:
            raise ValueError(
                f"optimizer state was produced by {found!r}, cannot load into {expected}"
            )

    def _check_buffers(self, buffers, what: str) -> List[np.ndarray]:
        buffers = list(buffers)
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"optimizer state holds {len(buffers)} {what} buffers but the "
                f"optimizer has {len(self.parameters)} parameters"
            )
        restored = []
        for index, (buffer, param) in enumerate(zip(buffers, self.parameters)):
            buffer = np.asarray(buffer, dtype=np.float64)
            if buffer.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {what} buffer {index}: "
                    f"{buffer.shape} vs parameter {param.data.shape}"
                )
            restored.append(buffer.copy())
        return restored


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Optional[List[np.ndarray]] = None
        if self.momentum > 0.0:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            if self._velocity is not None:
                self._velocity[index] = self.momentum * self._velocity[index] - self.lr * grad
                param.data = param.data + self._velocity[index]
            else:
                param.data = param.data - self.lr * grad

    def state_dict(self) -> Dict[str, Any]:
        return {
            "type": "SGD",
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "velocity": None
            if self._velocity is None
            else [buffer.copy() for buffer in self._velocity],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._check_state(state)
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        velocity = state.get("velocity")
        self._velocity = None if velocity is None else self._check_buffers(velocity, "velocity")


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = float(lr)
        try:
            beta1, beta2 = betas
            self.beta1, self.beta2 = float(beta1), float(beta2)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"betas must be a pair of numbers in [0, 1), got {betas!r}"
            ) from exc
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta!r}")
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            self._m[index] = self.beta1 * self._m[index] + (1.0 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[index] / bias1
            v_hat = self._v[index] / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "type": "Adam",
            "lr": self.lr,
            "betas": (self.beta1, self.beta2),
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
            "m": [buffer.copy() for buffer in self._m],
            "v": [buffer.copy() for buffer in self._v],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._check_state(state)
        self.lr = float(state["lr"])
        self.beta1, self.beta2 = (float(beta) for beta in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
        self._m = self._check_buffers(state["m"], "first-moment")
        self._v = self._check_buffers(state["v"], "second-moment")


def train_step(
    optimizer: Optimizer,
    forward: Callable[[], Dict[str, Tensor]],
    after_backward: Optional[Callable[[Dict[str, Tensor]], None]] = None,
) -> Dict[str, Tensor]:
    """One gradient step: zero_grad → forward → backward → hook → step.

    ``forward()`` returns named tensors; its ``"loss"`` entry is the scalar
    that is minimised, the others are carried along for logging (or for the
    hook).  ``after_backward`` sees that dict once the gradients are in and
    before ``optimizer.step()`` — adversarial models train their
    discriminator there.  The step's graph is released whatever happens, so
    a failing step leaks nothing; the returned tensors keep their values.
    """
    optimizer.zero_grad()
    terms = forward()
    loss = terms["loss"]
    try:
        loss.backward()
        if after_backward is not None:
            after_backward(terms)
        optimizer.step()
    finally:
        loss.release_graph()
    return terms
