"""Unit tests for the autodiff engine: gradients checked against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, no_grad, stack_gradients, stack_parameters


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
