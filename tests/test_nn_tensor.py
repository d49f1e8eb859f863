"""Unit tests for the autodiff engine: gradients checked against finite differences."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graph.sparse import SparseAdjacency
from repro.models.base import VariationalGCNEncoder, reconstruction_target
from repro.nn import functional as F
from repro.nn import tensor as tensor_module
from repro.nn.tensor import (
    Tensor,
    _unbroadcast,
    as_tensor,
    no_grad,
    stack_gradients,
    stack_parameters,
)


def numerical_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a numpy array."""
    grad = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn(value)
        flat[index] = original - eps
        minus = fn(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    """Compare autodiff gradient against finite differences for one input."""
    rng = np.random.default_rng(seed)
    value = rng.normal(0.0, 1.0, size=shape)
    x = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    auto_grad = x.grad

    def numeric_fn(arr):
        return build_loss(Tensor(arr)).item()

    num_grad = numerical_gradient(numeric_fn, value.copy())
    np.testing.assert_allclose(auto_grad, num_grad, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_addition_gradient(self):
        check_gradient(lambda x: (x + 3.0).sum(), (4, 3))

    def test_subtraction_gradient(self):
        check_gradient(lambda x: (10.0 - x).sum(), (4, 3))

    def test_multiplication_gradient(self):
        check_gradient(lambda x: (x * x * 2.0).sum(), (3, 3))

    def test_division_gradient(self):
        check_gradient(lambda x: (x / 2.5).sum(), (2, 5))

    def test_reciprocal_gradient(self):
        check_gradient(lambda x: (1.0 / (x * x + 2.0)).sum(), (3, 2))

    def test_power_gradient(self):
        check_gradient(lambda x: ((x * x + 1.0) ** 1.5).sum(), (3, 3))

    def test_negative_power_gradient(self):
        check_gradient(lambda x: ((x * x + 1.0) ** -1.0).sum(), (3, 3))

    def test_negation_gradient(self):
        check_gradient(lambda x: (-x).sum(), (2, 2))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x @ Tensor(other)).sum(), (5, 3))

    def test_matmul_both_sides_gradient(self):
        check_gradient(lambda x: (x @ x.T).sum(), (4, 3))

    @pytest.mark.parametrize("constant_side", [0, 1])
    def test_matmul_computes_no_gradient_for_a_constant_operand(self, constant_side):
        # e.g. the (N, J) features of a first GCN layer, or a dense
        # propagation matrix: their gradient would be thrown away.
        rng = np.random.default_rng(2)
        constant = Tensor(rng.normal(size=(6, 5)))
        trainable = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        operands = [constant, trainable] if constant_side == 0 else [trainable, constant]
        out = operands[0] @ operands[1]
        upstream = rng.normal(size=out.shape)
        grads = out._backward(upstream)
        assert grads[constant_side] is None
        expected = upstream @ constant.data.T if constant_side == 1 else constant.data.T @ upstream
        np.testing.assert_array_equal(grads[1 - constant_side], expected)

    def test_transpose_gradient(self):
        check_gradient(lambda x: (x.T * 2.0).sum(), (3, 5))

    def test_reshape_gradient(self):
        check_gradient(lambda x: (x.reshape(6) * 3.0).sum(), (2, 3))

    def test_getitem_gradient(self):
        check_gradient(lambda x: x[np.array([0, 2])].sum(), (4, 3))


class TestNonlinearities:
    def test_exp_gradient(self):
        check_gradient(lambda x: x.exp().sum(), (3, 3))

    def test_log_gradient(self):
        check_gradient(lambda x: (x * x + 1.0).log().sum(), (3, 3))

    def test_relu_gradient(self):
        # Shift away from zero so finite differences are stable.
        check_gradient(lambda x: (x + 0.3).relu().sum(), (4, 4))

    def test_sigmoid_gradient(self):
        check_gradient(lambda x: x.sigmoid().sum(), (4, 4))

    def test_tanh_gradient(self):
        check_gradient(lambda x: x.tanh().sum(), (4, 4))

    def test_softplus_gradient(self):
        check_gradient(lambda x: x.softplus().sum(), (4, 4))

    def test_softplus_matches_log1p_exp(self):
        x = Tensor(np.array([-3.0, 0.0, 2.0, 30.0]))
        np.testing.assert_allclose(x.softplus().numpy(), np.log1p(np.exp(np.minimum(x.data, 30.0))), rtol=1e-6)

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        y = x.clip(-1.0, 1.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all_gradient(self):
        check_gradient(lambda x: x.sum() * 2.0, (3, 4))

    def test_sum_axis_gradient(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_sum_keepdims_gradient(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), (3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda x: x.mean() * 5.0, (4, 4))

    def test_mean_axis_gradient(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2.0).sum(), (3, 5))


class TestBroadcasting:
    def test_broadcast_row_vector(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=(1, 4))
        check_gradient(lambda x: (x + Tensor(row)).sum(), (3, 4))

    def test_broadcast_gradient_accumulates_on_small_operand(self):
        row = Tensor(np.ones((1, 4)), requires_grad=True)
        x = Tensor(np.ones((3, 4)))
        loss = (x * row).sum()
        loss.backward()
        np.testing.assert_allclose(row.grad, np.full((1, 4), 3.0))

    def test_broadcast_scalar(self):
        scalar = Tensor(np.array(2.0), requires_grad=True)
        x = Tensor(np.ones((3, 3)))
        (x * scalar).sum().backward()
        assert scalar.grad == pytest.approx(9.0)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (x * 3.0).sum() + (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data)

    def test_no_grad_context_disables_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y.requires_grad is False
        assert y._backward is None

    def test_no_grad_is_thread_local(self):
        """Regression: no_grad() on one thread must not disable autograd on
        another (the flag used to be a module-level global)."""
        import threading

        x = Tensor(np.ones(4), requires_grad=True)
        inside_no_grad = threading.Event()
        main_done = threading.Event()
        results = {}

        def evaluation_thread():
            with no_grad():
                results["eval"] = (x * 2.0).sum().requires_grad
                inside_no_grad.set()
                # Hold the no_grad context open while the main thread records.
                main_done.wait(timeout=5.0)

        worker = threading.Thread(target=evaluation_thread)
        worker.start()
        assert inside_no_grad.wait(timeout=5.0)
        try:
            results["main"] = (x * 3.0).sum().requires_grad
        finally:
            main_done.set()
            worker.join(timeout=5.0)

        assert results["eval"] is False
        assert results["main"] is True

    def test_no_grad_restores_state_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert (x * 2.0).sum().requires_grad is True

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = (x * 2.0).detach()
        assert y.requires_grad is False

    def test_zero_grad_resets(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_as_tensor_passthrough(self):
        x = Tensor(np.ones(3))
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_stack_parameters_and_gradients_align(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (a.sum() + (b * 2.0).sum()).backward()
        params = stack_parameters([a, b])
        grads = stack_gradients([a, b])
        assert params.shape == grads.shape == (7,)
        np.testing.assert_allclose(grads, [1.0] * 4 + [2.0] * 3)

    def test_stack_gradients_zero_for_untouched(self):
        a = Tensor(np.ones(2), requires_grad=True)
        grads = stack_gradients([a])
        np.testing.assert_allclose(grads, [0.0, 0.0])

    def test_repr_mentions_shape(self):
        assert "shape=(2, 3)" in repr(Tensor(np.zeros((2, 3))))

    def test_diamond_graph_gradient(self):
        # y = f(x) used twice: gradients from both paths must add up.
        check_gradient(lambda x: ((x.sigmoid() * x.sigmoid()).sum()), (3, 3))


# ----------------------------------------------------------------------
# leaf-only gradients
# ----------------------------------------------------------------------
def _reference_backward(root: Tensor) -> None:
    """The engine before leaf-only gradients: every node that receives a
    gradient keeps a copy of it in ``.grad``, intermediate nodes included."""
    topo = []
    visited = set()
    stack = [(root, False)]
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

    grads = {id(root): np.ones_like(root.data)}
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
            pgrad = _unbroadcast(np.asarray(pgrad, dtype=np.float64), parent.data.shape)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pgrad
            else:
                grads[id(parent)] = pgrad


def _graph_nodes(root: Tensor):
    """Every tensor reachable from ``root`` through ``_parents``."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _vgae_loss(sparse_features: bool):
    """A two-layer variational GCN, the fused reconstruction BCE and the KL
    term on a 40-node graph; returns ``(loss, parameters)``."""
    rng = np.random.default_rng(7)
    n, f = 40, 12
    upper = np.triu(rng.random((n, n)) < 0.12, k=1)
    adjacency = SparseAdjacency.from_dense((upper | upper.T).astype(np.float64))
    features = (rng.random((n, f)) < 0.3) * rng.random((n, f))
    if sparse_features:
        features = SparseAdjacency.from_matrix(features)
    encoder = VariationalGCNEncoder(f, 16, 8, np.random.default_rng(0))
    mu, log_sigma = encoder(features, adjacency.normalize())
    z = mu + Tensor(rng.standard_normal(mu.shape)) * log_sigma.exp()
    loss = F.inner_product_bce(z, reconstruction_target(adjacency))
    loss = loss + F.gaussian_kl_divergence(mu, log_sigma)
    return loss, encoder.parameters()


def _diamond_loss():
    """``x`` reaches the loss along four paths, ``a`` along two."""
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
    a = x * 2.0
    b = x.exp()
    loss = (a * b + a + x.sigmoid() * x).sum()
    return loss, [x]


def _broadcast_bias_loss():
    """A row bias and a scalar gain broadcast over a (5, 4) product."""
    rng = np.random.default_rng(3)
    weight = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    gain = Tensor(np.array(1.5), requires_grad=True)
    out = (Tensor(rng.standard_normal((5, 3))) @ weight + bias) * gain
    loss = (out.tanh() ** 2.0).mean()
    return loss, [weight, bias, gain]


LEAF_GRAPHS = {
    "vgae_dense_features": lambda: _vgae_loss(sparse_features=False),
    "vgae_csr_features": lambda: _vgae_loss(sparse_features=True),
    "diamond": _diamond_loss,
    "broadcast_bias": _broadcast_bias_loss,
}


class TestLeafOnlyGradients:
    @pytest.mark.parametrize("name", sorted(LEAF_GRAPHS))
    def test_leaf_gradients_equal_the_reference_engine(self, name):
        reference_loss, reference_params = LEAF_GRAPHS[name]()
        _reference_backward(reference_loss)
        loss, params = LEAF_GRAPHS[name]()
        loss.backward()
        assert len(params) == len(reference_params) > 0
        for param, reference in zip(params, reference_params):
            assert param.grad.tobytes() == reference.grad.tobytes()
        reference_loss.release_graph()
        loss.release_graph()

    @pytest.mark.parametrize("name", sorted(LEAF_GRAPHS))
    def test_only_leaves_keep_a_gradient(self, name):
        loss, params = LEAF_GRAPHS[name]()
        loss.backward()
        nodes = _graph_nodes(loss)
        inner = [node for node in nodes if node._backward is not None]
        assert inner and loss in inner
        assert all(node.grad is None for node in inner)
        leaves = {id(node) for node in nodes if node.grad is not None}
        assert leaves == {id(param) for param in params}
        loss.release_graph()

    def test_grad_hook_sees_every_gradient_of_the_reference_engine(self):
        """The sanitizer's hook gets the same gradients, in the same order,
        intermediate nodes included."""
        saved = (tensor_module._CHILD_HOOK, tensor_module._GRAD_HOOK)
        seen = {"reference": [], "leaf_only": []}
        try:
            for label, log in seen.items():
                tensor_module.set_sanitizer_hooks(
                    None, lambda node, grad, log=log: log.append(grad.tobytes())
                )
                loss, params = _vgae_loss(sparse_features=False)
                if label == "reference":
                    _reference_backward(loss)
                else:
                    loss.backward()
                loss.release_graph()
        finally:
            tensor_module.set_sanitizer_hooks(*saved)
        assert len(seen["leaf_only"]) > len(params)
        assert seen["leaf_only"] == seen["reference"]

    def test_an_intermediate_gradient_is_read_through_a_new_leaf(self):
        """The documented recipe gives what the old engine kept on the node."""
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        hidden = (x * x).exp()
        _reference_backward((hidden.tanh() * 3.0).sum())
        leaf = Tensor((x * x).exp().data, requires_grad=True)
        (leaf.tanh() * 3.0).sum().backward()
        assert leaf.grad.tobytes() == hidden.grad.tobytes()


class TestStepMemory:
    #: tracemalloc peak above its start of any one ``train_step`` of the run
    #: below: 5.6-6.2 MB while every node kept a gradient, 4.0-4.1 MB since
    #: only leaves do.
    STEP_PEAK_BOUND = 5.0e6

    def test_r_gmm_vgae_steps_on_cora_sim_stay_below_the_bound(self, monkeypatch):
        """e2ebench's full_trial: R-GMM-VGAE on cora_sim, 80 + 40 epochs."""
        import repro.core.rethink as rethink
        import repro.models.base as base
        from repro.api import Pipeline
        from repro.nn.optim import train_step

        peaks = []

        def measured_step(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            terms = train_step(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return terms

        monkeypatch.setattr(base, "train_step", measured_step)
        monkeypatch.setattr(rethink, "train_step", measured_step)
        pipeline = (
            Pipeline().dataset("cora_sim").model("gmm_vgae")
            .rethink(stop_at_convergence=False).seed(0)
            .training(pretrain_epochs=80, rethink_epochs=40)
        )
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            pipeline.run()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(peaks) == 120
        assert max(peaks) < self.STEP_PEAK_BOUND
