"""Tests for functional ops, layers, modules and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.init import glorot_uniform, normal, zeros
from repro.nn.layers import Dense, GraphConvolution, MLP, resolve_activation
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, Optimizer, train_step
from repro.nn.tensor import Tensor


class TestFunctional:
    def test_sigmoid_range(self, rng):
        values = F.sigmoid(rng.normal(size=(5, 5))).numpy()
        assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(rng.normal(size=(6, 4)), axis=1).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_invariant_to_shift(self, rng):
        logits = rng.normal(size=(3, 4))
        a = F.softmax(logits, axis=1).numpy()
        b = F.softmax(logits + 100.0, axis=1).numpy()
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_bce_with_logits_matches_manual(self, rng):
        logits = rng.normal(size=(4, 4))
        targets = (rng.random((4, 4)) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets).item()
        probs = 1.0 / (1.0 + np.exp(-logits))
        manual = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        assert loss == pytest.approx(manual, rel=1e-6)

    def test_gaussian_kl_zero_for_standard_normal(self):
        mu = Tensor(np.zeros((5, 3)))
        log_sigma = Tensor(np.zeros((5, 3)))
        assert F.gaussian_kl_divergence(mu, log_sigma).item() == pytest.approx(0.0)

    def test_gaussian_kl_positive_otherwise(self, rng):
        mu = Tensor(rng.normal(size=(5, 3)))
        log_sigma = Tensor(rng.normal(size=(5, 3)) * 0.1)
        assert F.gaussian_kl_divergence(mu, log_sigma).item() > 0.0

    def test_kl_divergence_rows_zero_for_identical(self, rng):
        p = rng.random((4, 3))
        p = p / p.sum(axis=1, keepdims=True)
        assert F.kl_divergence_rows(p, p).item() == pytest.approx(0.0, abs=1e-9)

    def test_kl_divergence_rows_positive(self, rng):
        p = rng.random((4, 3))
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((4, 3))
        q /= q.sum(axis=1, keepdims=True)
        assert F.kl_divergence_rows(p, q).item() > 0.0

    def test_dropout_eval_mode_is_identity(self, rng):
        x = rng.normal(size=(5, 5))
        out = F.dropout(x, rate=0.5, rng=rng, training=False)
        np.testing.assert_allclose(out.numpy(), x)

    def test_dropout_preserves_expectation_roughly(self, rng):
        x = np.ones((2000, 1))
        out = F.dropout(x, rate=0.5, rng=rng, training=True).numpy()
        assert out.mean() == pytest.approx(1.0, abs=0.1)



class TestLayers:
    def test_dense_output_shape(self, rng):
        layer = Dense(8, 4, rng=np.random.default_rng(0))
        out = layer(rng.normal(size=(10, 8)))
        assert out.shape == (10, 4)

    def test_dense_relu_nonnegative(self, rng):
        layer = Dense(8, 4, activation="relu", rng=np.random.default_rng(0))
        assert np.all(layer(rng.normal(size=(10, 8))).numpy() >= 0.0)

    def test_dense_linear_activation(self, rng):
        layer = Dense(3, 2, activation=None, rng=np.random.default_rng(0))
        x = rng.normal(size=(5, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(x).numpy(), expected)

    def test_graph_convolution_propagates_neighbours(self):
        # Two connected nodes: output of node 0 must depend on node 1 features.
        adj_norm = np.array([[0.5, 0.5], [0.5, 0.5]])
        layer = GraphConvolution(2, 2, activation=None, rng=np.random.default_rng(0))
        x1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        x2 = np.array([[1.0, 0.0], [5.0, 5.0]])
        out1 = layer(x1, adj_norm).numpy()
        out2 = layer(x2, adj_norm).numpy()
        assert not np.allclose(out1[0], out2[0])

    def test_graph_convolution_shape(self, tiny_graph):
        from repro.graph.laplacian import normalize_adjacency

        layer = GraphConvolution(tiny_graph.num_features, 8, rng=np.random.default_rng(0))
        out = layer(tiny_graph.features, normalize_adjacency(tiny_graph.adjacency))
        assert out.shape == (tiny_graph.num_nodes, 8)

    def test_mlp_stacks_layers(self, rng):
        mlp = MLP([6, 5, 4, 1], rng=np.random.default_rng(0))
        assert len(mlp.layers) == 3
        assert mlp(rng.normal(size=(3, 6))).shape == (3, 1)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_resolve_activation_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_activation("swish")

    def test_resolve_activation_accepts_callable(self):
        fn = resolve_activation(lambda t: t)
        assert callable(fn)


class TestModule:
    def test_parameters_discovery(self):
        mlp = MLP([4, 3, 2], rng=np.random.default_rng(0))
        params = mlp.parameters()
        # two layers, each weight + bias
        assert len(params) == 4

    def test_named_parameters_paths(self):
        mlp = MLP([4, 3, 2], rng=np.random.default_rng(0))
        names = set(mlp.named_parameters())
        assert any("layers.0.weight" in name for name in names)

    def test_state_dict_roundtrip(self):
        source = MLP([4, 3, 2], rng=np.random.default_rng(0))
        target = MLP([4, 3, 2], rng=np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        for a, b in zip(source.parameters(), target.parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_load_state_dict_shape_mismatch(self):
        source = MLP([4, 3, 2], rng=np.random.default_rng(0))
        bad_state = {name: value[:1] for name, value in source.state_dict().items()}
        with pytest.raises(ValueError):
            source.load_state_dict(bad_state)

    def test_load_state_dict_missing_key(self):
        source = MLP([4, 3, 2], rng=np.random.default_rng(0))
        state = source.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(KeyError):
            source.load_state_dict(state)

    def test_parameter_vector_roundtrip(self):
        mlp = MLP([3, 2], rng=np.random.default_rng(0))
        vector = mlp.parameter_vector()
        mlp.load_parameter_vector(vector * 2.0)
        np.testing.assert_allclose(mlp.parameter_vector(), vector * 2.0)

    def test_train_eval_switch(self):
        mlp = MLP([3, 2], rng=np.random.default_rng(0))
        mlp.eval()
        assert mlp.training is False and mlp.layers[0].training is False
        mlp.train()
        assert mlp.training is True


class TestInit:
    def test_glorot_limits(self):
        weight = glorot_uniform(100, 100, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 200)
        assert weight.data.max() <= limit and weight.data.min() >= -limit
        assert weight.requires_grad

    def test_zeros(self):
        bias = zeros(5)
        np.testing.assert_allclose(bias.data, 0.0)
        assert bias.requires_grad

    def test_normal_scale(self):
        weight = normal((2000,), 0.5, np.random.default_rng(0))
        assert weight.data.std() == pytest.approx(0.5, abs=0.05)


class TestOptimizers:
    @staticmethod
    def _quadratic_problem():
        target = np.array([3.0, -2.0])
        param = Tensor(np.zeros(2), requires_grad=True)
        return param, target

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_sgd_converges_on_quadratic(self):
        param, target = self._quadratic_problem()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((param - Tensor(target)) ** 2.0).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        param, target = self._quadratic_problem()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2.0).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_adam_converges_on_quadratic(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2.0).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (param * 0.0).sum().backward()
        opt.step()
        assert abs(param.data[0]) < 10.0

    def test_step_skips_parameters_without_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        opt.zero_grad()
        (a * 2.0).sum().backward()
        opt.step()
        assert b.data[0] == pytest.approx(2.0)

    def test_adam_coerces_string_betas_from_json_specs(self):
        """Regression: a JSON spec passing betas as strings used to fail deep
        inside step(); they must be coerced to float at construction."""
        param = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([param], lr=0.1, betas=["0.9", "0.999"])
        assert opt.beta1 == pytest.approx(0.9)
        assert opt.beta2 == pytest.approx(0.999)
        opt.zero_grad()
        (param * 2.0).sum().backward()
        opt.step()
        assert np.isfinite(param.data).all()

    @pytest.mark.parametrize(
        "betas", [(0.9,), (0.9, 0.999, 0.5), ("x", "y"), (1.0, 0.999), (-0.1, 0.999), None]
    )
    def test_adam_rejects_invalid_betas(self, betas):
        param = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([param], betas=betas)

    def test_train_step_is_a_hand_written_step(self):
        param, target = self._quadratic_problem()
        reference = Tensor(param.data.copy(), requires_grad=True)
        reference_opt, opt = Adam([reference], lr=0.1), Adam([param], lr=0.1)
        seen_grads = []
        for _ in range(3):
            reference_opt.zero_grad()
            ((reference - Tensor(target)) ** 2.0).sum().backward()
            reference_opt.step()
            terms = train_step(
                opt,
                lambda: {"loss": ((param - Tensor(target)) ** 2.0).sum()},
                lambda terms: seen_grads.append(param.grad.copy()),
            )
        np.testing.assert_array_equal(param.data, reference.data)
        # the hook ran between backward and step, once per step
        assert len(seen_grads) == 3 and np.any(seen_grads[-1] != 0.0)
        loss = terms["loss"]
        assert loss._backward is None and loss._parents == () and np.isfinite(loss.item())

    def test_failing_step_releases_its_graph_and_skips_the_update(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        built = {}

        def forward():
            built["loss"] = ((param - Tensor(target)) ** 2.0).sum()
            return dict(built)

        def failing_hook(terms):
            raise ValueError("hook failure")

        with pytest.raises(ValueError, match="hook failure"):
            train_step(opt, forward, failing_hook)
        assert built["loss"]._backward is None and built["loss"]._parents == ()
        np.testing.assert_array_equal(param.data, np.zeros(2))
