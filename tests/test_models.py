"""Tests for the six GAE clustering models and their shared base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.sparse import SparseAdjacency
from repro.metrics import clustering_accuracy, evaluate_clustering
from repro.models import (
    ARGAE,
    ARVGAE,
    DGAE,
    GAE,
    GMMVGAE,
    VGAE,
    available_models,
    build_model,
    model_group,
    reconstruction_target,
    reconstruction_weights,
)
from repro.models.registry import FIRST_GROUP, SECOND_GROUP
from repro.nn.functional import LOGIT_TILE
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.observability.tracer import tracing_session


class TestRegistry:
    def test_six_models_available(self):
        assert len(available_models()) == 6

    def test_group_membership(self):
        for name in FIRST_GROUP:
            assert model_group(name) == "first"
        for name in SECOND_GROUP:
            assert model_group(name) == "second"

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("sage", 10, 3)
        with pytest.raises(KeyError):
            model_group("sage")

    def test_build_model_types(self):
        expectations = {
            "gae": GAE,
            "vgae": VGAE,
            "argae": ARGAE,
            "arvgae": ARVGAE,
            "gmm_vgae": GMMVGAE,
            "dgae": DGAE,
        }
        for name, klass in expectations.items():
            assert isinstance(build_model(name, 10, 3), klass)


class TestBaseMechanics:
    def test_reconstruction_weights_sparse_graph(self):
        # A 10-node target with one undirected edge: 2 positives, 98 negatives.
        pos_weight, norm = reconstruction_weights(10, 2.0)
        assert pos_weight > 1.0
        assert norm > 0.5
        assert (pos_weight, norm) == (98.0 / 2.0, 100.0 / 196.0)

    def test_reconstruction_weights_empty_graph(self):
        assert reconstruction_weights(5, 0.0) == (1.0, 1.0)

    def test_prepare_inputs_shapes(self, tiny_graph):
        features, adj_norm = GAE.prepare_inputs(tiny_graph)
        assert features.shape == tiny_graph.features.shape
        assert adj_norm.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)

    def test_embed_shape_and_determinism(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        z1 = model.embed(tiny_graph)
        z2 = model.embed(tiny_graph)
        assert z1.shape == (tiny_graph.num_nodes, model.latent_dim)
        np.testing.assert_allclose(z1, z2)

    def test_pretrain_decreases_loss(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        history = model.pretrain(tiny_graph, epochs=30)
        assert history.losses[-1] < history.losses[0]
        assert history.final_loss == history.losses[-1]

    def test_state_dict_reproduces_embeddings(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=10)
        clone = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=1)
        clone.load_state_dict(model.state_dict())
        np.testing.assert_allclose(model.embed(tiny_graph), clone.embed(tiny_graph))

    def test_predict_labels_range(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=10)
        labels = model.predict_labels(tiny_graph)
        assert labels.shape == (tiny_graph.num_nodes,)
        assert labels.min() >= 0 and labels.max() < tiny_graph.num_clusters

    def test_first_group_clustering_loss_is_none(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        features, adj_norm = model.prepare_inputs(tiny_graph)
        z = model.encode(features, adj_norm)
        assert model.clustering_loss(z) is None

    def test_variational_flag(self):
        assert VGAE(10, 3).variational and not GAE(10, 3).variational
        assert ARVGAE(10, 3).variational and not ARGAE(10, 3).variational


def _composite_reconstruction_loss(z: Tensor, target_adjacency: SparseAdjacency) -> Tensor:
    """The reference: the weighted BCE as the generic op chain computed it.

    Dense target plus I, clipped to [0, 1], its sums giving ``pos_weight``
    and ``norm``, then ``mean(w·y·softplus(−x) + (1−y)·softplus(x)) · norm``
    over the dense logits ``x = Z Zᵀ``.
    """
    target = target_adjacency.to_dense() + np.eye(target_adjacency.num_nodes)
    np.clip(target, 0.0, 1.0, out=target)
    total = float(target.size)
    positives = float(target.sum())
    negatives = total - positives
    pos_weight, norm = 1.0, 1.0
    if positives > 0.0:
        pos_weight = negatives / positives
        norm = total / (2.0 * negatives) if negatives > 0 else 1.0
    logits = z @ z.T
    targets = Tensor(target)
    losses = targets * (pos_weight * (-logits).softplus()) + (1.0 - targets) * logits.softplus()
    return losses.mean() * norm


def _loss_and_gradient(loss_fn, z: np.ndarray, target: SparseAdjacency):
    z_t = Tensor(z.copy(), requires_grad=True)
    loss = loss_fn(z_t, target)
    loss.backward()
    loss.release_graph()
    return loss.item(), z_t.grad


def _symmetric_target(rng, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


def _reconstruction_targets():
    rng = np.random.default_rng(11)
    sparse = _symmetric_target(rng, 23, 0.15)
    with_diagonal = _symmetric_target(rng, 17, 0.2)
    with_diagonal[[0, 3, 9], [0, 3, 9]] = 1.0
    heavy = _symmetric_target(rng, 19, 0.2) * rng.choice([1.0, 2.5, 7.0], size=(19, 19))
    heavy = np.maximum(heavy, heavy.T)
    complete = np.ones((12, 12)) - np.eye(12)
    # Three row blocks of tiles, the last one partial.
    n = 2 * LOGIT_TILE + 37
    tiled_diagonal = _symmetric_target(rng, n, 0.02)
    tiled_diagonal[[0, LOGIT_TILE, n - 1], [0, LOGIT_TILE, n - 1]] = 1.0
    tiled_heavy = _symmetric_target(rng, n, 0.02) * rng.choice([1.0, 2.5, 7.0], size=(n, n))
    return {
        "random_sparse": sparse,
        "stored_diagonal": with_diagonal,
        "values_above_one": heavy,
        "edgeless": np.zeros((15, 15)),
        "complete": complete,
        "tiled_symmetric": _symmetric_target(rng, n, 0.02),
        "tiled_asymmetric_weighted": (rng.random((n, n)) < 0.02) * rng.choice([0.3, 1.0], size=(n, n)),
        "tiled_stored_diagonal": tiled_diagonal,
        "tiled_values_above_one": np.maximum(tiled_heavy, tiled_heavy.T),
        "tiled_complete": np.ones((n, n)) - np.eye(n),
        "tiled_edgeless": np.zeros((n, n)),
    }


_TARGETS = _reconstruction_targets()


class TestReconstructionLoss:
    """The CSR loss against the dense composite reference."""

    @staticmethod
    def _model():
        return build_model("gae", 4, 2, seed=0)

    @pytest.mark.parametrize("name", sorted(_TARGETS))
    def test_matches_the_composite_reference(self, name):
        dense = _TARGETS[name]
        target = SparseAdjacency.from_dense(dense)
        z = np.random.default_rng(5).normal(0.0, 0.8, size=(dense.shape[0], 3))
        loss, grad = _loss_and_gradient(self._model().reconstruction_loss, z, target)
        ref_loss, ref_grad = _loss_and_gradient(_composite_reconstruction_loss, z, target)
        # The complete graph has no negatives: w = 0 and both losses vanish,
        # so the comparison is relative to the all-pairs softplus term.  Its
        # reference gradient is exactly 0, so atol is 0 and so must ours be.
        scale = max(abs(ref_loss), float(np.logaddexp(0.0, z @ z.T).mean()))
        assert abs(loss - ref_loss) <= 1e-12 * scale
        atol = 1e-12 * float(np.abs(ref_grad).max())
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("name", ["random_sparse", "stored_diagonal", "edgeless"])
    def test_gradient_matches_central_differences(self, name):
        dense = _TARGETS[name][:9, :9]
        target = SparseAdjacency.from_dense(dense)
        z = np.random.default_rng(3).normal(0.0, 0.7, size=(9, 3))
        model = self._model()
        _, grad = _loss_and_gradient(model.reconstruction_loss, z, target)
        step = 1e-6
        numeric = np.zeros_like(z)
        for index in np.ndindex(*z.shape):
            shifted = z.copy()
            shifted[index] += step
            upper = model.reconstruction_loss(Tensor(shifted), target).item()
            shifted[index] -= 2.0 * step
            lower = model.reconstruction_loss(Tensor(shifted), target).item()
            numeric[index] = (upper - lower) / (2.0 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_multi_tile_gradient_matches_central_differences(self):
        # A full Jacobian above one tile is too slow: check the directional
        # derivative along three random directions instead.
        target = SparseAdjacency.from_dense(_TARGETS["tiled_asymmetric_weighted"])
        rng = np.random.default_rng(7)
        z = rng.normal(0.0, 0.7, size=(target.num_nodes, 3))
        model = self._model()
        _, grad = _loss_and_gradient(model.reconstruction_loss, z, target)
        step = 1e-6
        for _ in range(3):
            direction = rng.normal(size=z.shape)
            upper = model.reconstruction_loss(Tensor(z + step * direction), target).item()
            lower = model.reconstruction_loss(Tensor(z - step * direction), target).item()
            numeric = (upper - lower) / (2.0 * step)
            assert numeric == pytest.approx(float(np.sum(grad * direction)), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("name", ["random_sparse", "tiled_stored_diagonal"])
    def test_no_grad_gives_the_same_value_without_a_graph(self, name):
        target = SparseAdjacency.from_dense(_TARGETS[name])
        z = Tensor(np.random.default_rng(2).normal(size=(target.num_nodes, 3)), requires_grad=True)
        model = self._model()
        with_grad = model.reconstruction_loss(z, target)
        with no_grad():
            without = model.reconstruction_loss(z, target)
        assert without.item() == with_grad.item()
        assert with_grad.requires_grad and not without.requires_grad

    @pytest.mark.parametrize("target_nodes", [8, 12])
    def test_rejects_a_target_of_another_size(self, target_nodes):
        z = Tensor(np.random.default_rng(0).normal(size=(10, 3)))
        target = SparseAdjacency.from_dense(np.zeros((target_nodes, target_nodes)))
        with pytest.raises(ValueError, match=f"{target_nodes} nodes.*10 rows"):
            self._model().reconstruction_loss(z, target)

    @pytest.mark.parametrize(
        "name",
        [
            "stored_diagonal",
            "values_above_one",
            "tiled_symmetric",
            "tiled_asymmetric_weighted",
            "tiled_stored_diagonal",
            "tiled_values_above_one",
        ],
    )
    def test_prepared_target_gives_the_bytes_of_its_adjacency(self, name):
        adjacency = SparseAdjacency.from_dense(_TARGETS[name])
        prepared = reconstruction_target(adjacency)
        z = np.random.default_rng(4).normal(0.0, 0.8, size=(adjacency.num_nodes, 3))
        model = self._model()
        loss, grad = _loss_and_gradient(model.reconstruction_loss, z, prepared)
        ref_loss, ref_grad = _loss_and_gradient(model.reconstruction_loss, z, adjacency)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        # The same prepared target again, now without gradients.
        with no_grad():
            without = model.reconstruction_loss(Tensor(z), prepared)
            ref_without = model.reconstruction_loss(Tensor(z), adjacency)
        assert without.data.tobytes() == ref_without.data.tobytes()
        assert np.float64(without.item()).tobytes() == np.float64(loss).tobytes()

    @pytest.mark.parametrize("target_nodes", [8, 12])
    def test_rejects_a_prepared_target_of_another_size(self, target_nodes):
        z = Tensor(np.random.default_rng(0).normal(size=(10, 3)))
        adjacency = SparseAdjacency.from_dense(np.zeros((target_nodes, target_nodes)))
        messages = []
        for target in (adjacency, reconstruction_target(adjacency)):
            with pytest.raises(ValueError, match=f"{target_nodes} nodes.*10 rows") as error:
                self._model().reconstruction_loss(z, target)
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    def test_prepared_arrays_are_read_only(self):
        prepared = reconstruction_target(SparseAdjacency.from_dense(_TARGETS["tiled_symmetric"]))
        for array in (prepared.offsets, prepared.values, prepared.starts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_traced_call_records_the_kernel_span(self):
        target = SparseAdjacency.from_dense(_TARGETS["random_sparse"])
        z = Tensor(np.random.default_rng(0).normal(size=(target.num_nodes, 3)))
        with tracing_session(enabled=True) as tracer:
            self._model().reconstruction_loss(z, target)
        assert [root["name"] for root in tracer.export()] == ["kernel.inner_product_bce"]

    def test_stable_for_large_logits(self):
        # |Z Zᵀ| up to 400: softplus never overflows and a perfect
        # reconstruction costs (almost) nothing.
        z = np.array([[20.0], [20.0], [-20.0], [-20.0]])
        target = SparseAdjacency.from_dense(np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        ))
        loss = self._model().reconstruction_loss(Tensor(z), target).item()
        assert np.isfinite(loss) and loss < 1e-6


def _modules(module: Module):
    yield module
    for value in vars(module).values():
        if isinstance(value, Module):
            yield from _modules(value)


def test_failed_embed_leaves_every_module_in_training_mode():
    from repro.datasets import load_dataset

    graph = load_dataset("brazil_air_sim", seed=0)
    model = build_model("vgae", graph.num_features, graph.num_clusters, seed=0)
    features, adj_norm = model.prepare_inputs(graph)
    with pytest.raises(ValueError):
        model.embed_inputs(features[:, :-1], adj_norm)
    modules = list(_modules(model))
    assert len(modules) == 5  # model, encoder and its three layers
    assert all(module.training for module in modules)


@pytest.mark.parametrize("name", ["gae", "vgae", "argae", "arvgae"])
class TestFirstGroupModels:
    def test_pretraining_beats_random_embeddings(self, name, tiny_graph):
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        random_acc = clustering_accuracy(tiny_graph.labels, model.predict_labels(tiny_graph))
        model.pretrain(tiny_graph, epochs=40)
        trained_acc = clustering_accuracy(tiny_graph.labels, model.predict_labels(tiny_graph))
        # On the well-separated tiny graph pretraining must give a clearly
        # non-random clustering (random ~ 0.4 for 3 balanced clusters).
        assert trained_acc > 0.6
        assert trained_acc >= random_acc - 0.05

    def test_fit_clustering_is_posthoc(self, name, tiny_graph):
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=5)
        history = model.fit_clustering(tiny_graph, epochs=5)
        assert history["loss"] == []


class TestAdversarialModels:
    def test_discriminator_excluded_from_encoder_parameters(self, tiny_graph):
        model = build_model("argae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        encoder_params = {id(p) for p in model.parameters()}
        discriminator_params = {id(p) for p in model.discriminator.parameters()}
        assert not encoder_params & discriminator_params

    def test_discriminator_loss_finite_and_positive(self, tiny_graph, rng):
        model = build_model("argae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        loss = model.discriminator_loss(rng.normal(size=(20, model.latent_dim)))
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_generator_loss_backpropagates_to_encoder(self, tiny_graph):
        model = build_model("argae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        features, adj_norm = model.prepare_inputs(tiny_graph)
        model.zero_grad()
        z = model.encode(features, adj_norm)
        model.generator_loss(z).backward()
        grads = model.gradient_vector()
        assert np.any(grads != 0.0)


class TestSecondGroupModels:
    def test_dgae_clustering_improves_or_matches_pretraining(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=30)
        before = clustering_accuracy(tiny_graph.labels, model.predict_labels(tiny_graph))
        model.fit_clustering(tiny_graph, epochs=25)
        after = clustering_accuracy(tiny_graph.labels, model.predict_labels(tiny_graph))
        assert after >= before - 0.05

    def test_dgae_centers_are_trainable(self, pretrained_dgae):
        assert pretrained_dgae.centers is not None
        assert any(p is pretrained_dgae.centers for p in pretrained_dgae.parameters())

    def test_dgae_soft_assignments_row_stochastic(self, pretrained_dgae, tiny_graph):
        assignments = pretrained_dgae.predict_assignments(pretrained_dgae.embed(tiny_graph))
        np.testing.assert_allclose(assignments.sum(axis=1), 1.0, atol=1e-9)

    def test_dgae_clustering_loss_positive_and_subsettable(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        z = pretrained_dgae.encode(features, adj_norm)
        full = pretrained_dgae.clustering_loss(z)
        subset = pretrained_dgae.clustering_loss(z, np.arange(10))
        empty = pretrained_dgae.clustering_loss(z, np.array([], dtype=int))
        assert full.item() >= 0.0 and subset.item() >= 0.0
        assert empty.item() == 0.0

    def test_dgae_loss_with_oracle_target(self, pretrained_dgae, tiny_graph):
        from repro.clustering import hard_to_one_hot

        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        z = pretrained_dgae.encode(features, adj_norm)
        oracle = hard_to_one_hot(tiny_graph.labels, tiny_graph.num_clusters)
        loss = pretrained_dgae.clustering_loss_with_target(z, oracle)
        assert np.isfinite(loss.item())

    def test_gmm_vgae_clustering_runs_and_history(self, tiny_graph):
        model = build_model("gmm_vgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=20)
        history = model.fit_clustering(tiny_graph, epochs=12)
        assert len(history["loss"]) == 12
        report = evaluate_clustering(tiny_graph.labels, model.predict_labels(tiny_graph))
        assert report.accuracy > 0.5

    def test_gmm_vgae_assignments_tempered(self, pretrained_gmm_vgae, tiny_graph):
        from repro.clustering.assignments import soft_assignment_gaussian

        embeddings = pretrained_gmm_vgae.embed(tiny_graph)
        assignments = pretrained_gmm_vgae.predict_assignments(embeddings)
        np.testing.assert_allclose(assignments.sum(axis=1), 1.0, atol=1e-9)
        # Tempering must never sharpen the responsibilities beyond the
        # untempered (temperature=1) ones.
        sharp = soft_assignment_gaussian(
            embeddings,
            pretrained_gmm_vgae.cluster_centers_,
            pretrained_gmm_vgae.cluster_variances_,
            temperature=1.0,
        )
        assert assignments.max(axis=1).mean() <= sharp.max(axis=1).mean() + 1e-9

    def test_gmm_vgae_soft_assignment_tensor_matches_numpy(self, pretrained_gmm_vgae, tiny_graph):
        from repro.clustering.assignments import soft_assignment_gaussian

        features, adj_norm = pretrained_gmm_vgae.prepare_inputs(tiny_graph)
        z = pretrained_gmm_vgae.encode(features, adj_norm, sample=False)
        tensor_version = pretrained_gmm_vgae.soft_assignment_tensor(z).numpy()
        numpy_version = soft_assignment_gaussian(
            z.numpy(),
            pretrained_gmm_vgae.cluster_centers_,
            pretrained_gmm_vgae.cluster_variances_,
        )
        np.testing.assert_allclose(tensor_version, numpy_version, atol=1e-6)

    def test_clustering_loss_before_init_raises(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        features, adj_norm = model.prepare_inputs(tiny_graph)
        z = model.encode(features, adj_norm)
        with pytest.raises(RuntimeError):
            model.clustering_loss(z)


class TestTrainingLoopsMatchRecordedOutputs:
    """``pretrain`` and ``fit_clustering`` (both on ``repro.nn.optim.train_step``)
    reproduce the outputs recorded from the hand-rolled loops they replaced,
    to 1e-10 (see the ``legacy_loops`` fixture)."""

    @pytest.mark.parametrize("name", ["gae", "vgae", "argae", "arvgae", "dgae", "gmm_vgae"])
    def test_pretrain(self, name, tiny_graph, legacy_loops):
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        losses = model.pretrain(tiny_graph, epochs=6).losses
        np.testing.assert_allclose(losses, legacy_loops["pretrain"][name], atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("name", ["dgae", "gmm_vgae"])
    def test_fit_clustering_in_chunks(self, name, tiny_graph, legacy_loops):
        """Clustering is initialised on the first call only and every call
        starts a fresh Adam, so chunked phases (experiments.dynamics) match."""
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=4)
        chunks = [
            model.fit_clustering(tiny_graph, epochs=7),
            model.fit_clustering(tiny_graph, epochs=5),
        ]
        for history, reference in zip(chunks, legacy_loops["fit_clustering"][name]):
            assert history.keys() == reference.keys()
            for key, values in reference.items():
                np.testing.assert_allclose(history[key], values, atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("name", ["dgae", "gmm_vgae"])
    def test_fit_clustering_runs_under_the_leak_check(self, name, tiny_graph, monkeypatch):
        import repro.models.base as base

        scopes = []
        leak_check = base.autograd_leak_check

        def recording_leak_check(scope):
            scopes.append(scope)
            return leak_check(scope)

        monkeypatch.setattr(base, "autograd_leak_check", recording_leak_check)
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.fit_clustering(tiny_graph, epochs=1)
        assert scopes == [f"{type(model).__name__}.fit_clustering"]
