"""Self-tests for the runtime sanitizers (``REPRO_SANITIZE=1``).

Each guard is exercised both ways: the violation it exists to catch is
injected and must raise, and the corresponding clean pattern must pass.
Every test also verifies the guards are no-ops when the sanitizers are
not installed — that is what makes shipping them enabled-in-CI-only free.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizers import (
    autograd_leak_check,
    install_from_env,
    live_graph_nodes,
    rng_isolation_check,
    sanitized,
    sanitizers_enabled,
    uninstall_sanitizers,
)
from repro.env import SANITIZE_ENV, env_override
from repro.errors import (
    AutogradLeakError,
    NonFiniteTensorError,
    RngIsolationError,
)
from repro.nn.tensor import Tensor, no_grad


def small_loss():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    return (x * x).sum()


@pytest.fixture()
def uninstalled(request):
    """A guaranteed-off baseline, restored afterwards.

    The toggle/no-op tests need the sanitizers *absent* at entry, which is
    false when the whole suite runs under ``REPRO_SANITIZE=1`` (the CI
    sanitized tier-1 run installs them session-wide).
    """
    from repro.analysis.sanitizers import install_sanitizers

    was_enabled = sanitizers_enabled()
    uninstall_sanitizers()
    yield
    if was_enabled:
        install_sanitizers()
    else:
        uninstall_sanitizers()


# ----------------------------------------------------------------------
# install / uninstall plumbing
# ----------------------------------------------------------------------
def test_sanitized_context_toggles_and_restores(uninstalled):
    assert not sanitizers_enabled()
    with sanitized():
        assert sanitizers_enabled()
    assert not sanitizers_enabled()


def test_sanitized_context_nests(uninstalled):
    with sanitized():
        with sanitized():
            assert sanitizers_enabled()
        # the inner exit must not disable the outer scope
        assert sanitizers_enabled()
    assert not sanitizers_enabled()


def test_install_from_env_respects_flag(uninstalled):
    with env_override(SANITIZE_ENV, "0"):
        assert install_from_env() is False
        assert not sanitizers_enabled()
    try:
        with env_override(SANITIZE_ENV, "1"):
            assert install_from_env() is True
            assert sanitizers_enabled()
    finally:
        uninstall_sanitizers()


# ----------------------------------------------------------------------
# NaN/Inf tensor guard
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_forward_output_raises(sanitized_runtime):
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    with pytest.raises(NonFiniteTensorError, match="Inf"):
        x.log()  # log(0) = -inf at the op that produced it


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_forward_output_raises(sanitized_runtime):
    x = Tensor(np.array([-1.0, 4.0]), requires_grad=True)
    with pytest.raises(NonFiniteTensorError, match="NaN"):
        x.sqrt()  # sqrt(-1) = nan


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_raises(sanitized_runtime):
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    loss = (x ** 0.5).sum()  # forward is finite: sqrt(0) = 0
    with pytest.raises(NonFiniteTensorError, match="gradient"):
        loss.backward()  # d sqrt/dx at 0 = inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_at_an_intermediate_node_raises(sanitized_runtime):
    """Intermediate nodes keep no ``.grad``, but the guard still sees their
    gradient.  ``hidden`` passes zeros on to ``x``, so only the check at
    ``hidden`` itself can catch the Inf."""
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    hidden = x._make_child(x.data.copy(), (x,), lambda grad: (np.zeros_like(grad),))
    loss = (hidden ** 0.5).sum()  # forward is finite: sqrt(0) = 0
    with pytest.raises(NonFiniteTensorError, match="gradient"):
        loss.backward()  # d sqrt/dh at 0 = inf arrives at `hidden`
    assert x.grad is None
    loss.release_graph()


def test_finite_training_step_passes(sanitized_runtime):
    loss = small_loss()
    loss.backward()
    loss.release_graph()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_is_noop_when_uninstalled(uninstalled):
    assert not sanitizers_enabled()
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    out = x.log()  # no guard: -inf flows through silently, as before this PR
    assert np.isneginf(out.data[0])


# ----------------------------------------------------------------------
# autograd leak detector
# ----------------------------------------------------------------------
def test_retained_graph_is_detected(sanitized_runtime):
    with pytest.raises(AutogradLeakError, match="training-step"):
        with autograd_leak_check("training-step"):
            retained = small_loss()
            retained.backward()
            # missing release_graph(): the step graph survives the scope


def test_released_graph_passes(sanitized_runtime):
    with autograd_leak_check("training-step"):
        loss = small_loss()
        loss.backward()
        loss.release_graph()


def test_dropped_references_pass(sanitized_runtime):
    # Graphs freed by the reference counter alone are not leaks either.
    with autograd_leak_check("eval"):
        small_loss()


def test_no_grad_creates_no_graph_nodes(sanitized_runtime):
    with autograd_leak_check("inference"):
        with no_grad():
            kept = small_loss()  # noqa-free: no closure is ever created
        assert kept._backward is None
    assert live_graph_nodes() == 0


def test_leak_check_exempts_preexisting_nodes(sanitized_runtime):
    # The outer loss is live across the inner check (the ARGAE pattern:
    # a guarded discriminator step inside a guarded pretraining epoch).
    outer = small_loss()
    with autograd_leak_check("inner-step"):
        inner = small_loss()
        inner.backward()
        inner.release_graph()
    assert outer._backward is not None
    outer.release_graph()


def test_leak_error_carries_count_and_scope(sanitized_runtime):
    with pytest.raises(AutogradLeakError) as excinfo:
        with autograd_leak_check("epoch"):
            retained = small_loss()
            retained.backward()
    assert excinfo.value.scope == "epoch"
    assert excinfo.value.count >= 1


def test_leak_check_is_noop_when_uninstalled(uninstalled):
    with autograd_leak_check("anything"):
        retained = small_loss()
        retained.backward()  # no sanitizers: nothing raises
    assert retained._backward is not None


def test_body_exception_propagates_unmasked(sanitized_runtime):
    with pytest.raises(ValueError, match="from the body"):
        with autograd_leak_check("failing-step"):
            leaked = small_loss()
            leaked.backward()
            raise ValueError("from the body")


# ----------------------------------------------------------------------
# RNG isolation check
# ----------------------------------------------------------------------
def test_global_rng_consumption_is_detected(sanitized_runtime):
    with pytest.raises(RngIsolationError, match="worker-trial"):
        with rng_isolation_check("worker-trial"):
            np.random.rand(3)


def test_seeded_generators_pass(sanitized_runtime):
    with rng_isolation_check("worker-trial"):
        rng = np.random.default_rng(1234)
        rng.standard_normal(8)


def test_rng_check_is_noop_when_uninstalled(uninstalled):
    with rng_isolation_check("anything"):
        np.random.rand(1)  # no sanitizers: nothing raises


# ----------------------------------------------------------------------
# end-to-end: a real model trains cleanly under all guards
# ----------------------------------------------------------------------
def test_model_pretrain_is_sanitizer_clean(sanitized_runtime, tiny_graph):
    from repro.models import build_model

    with rng_isolation_check("pretrain"):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=3)
        model.pretrain(tiny_graph, epochs=3)
    assert live_graph_nodes() == 0
