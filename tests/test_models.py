"""Tests for the six GAE clustering models and their shared base class."""

from __future__ import annotations

import numpy as np
import pytest

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
    reconstruction_weights,
)
from repro.models.registry import FIRST_GROUP, SECOND_GROUP


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
        adjacency = np.zeros((10, 10))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        pos_weight, norm = reconstruction_weights(adjacency)
        assert pos_weight > 1.0
        assert norm > 0.5

    def test_reconstruction_weights_empty_graph(self):
        assert reconstruction_weights(np.zeros((5, 5))) == (1.0, 1.0)

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
