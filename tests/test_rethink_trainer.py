"""Tests for the RethinkTrainer (the R- training procedure of Eq. 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RethinkConfig, RethinkTrainer
from repro.metrics import clustering_accuracy
from repro.models import build_model


def small_config(**overrides) -> RethinkConfig:
    settings = dict(
        alpha1=0.4,
        update_omega_every=5,
        update_graph_every=5,
        epochs=15,
        pretrain_epochs=15,
        evaluate_every=5,
        stop_at_convergence=False,
    )
    settings.update(overrides)
    return RethinkConfig(**settings)


class TestRethinkTrainer:
    def test_full_fit_produces_report(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph)
        assert history.final_report is not None
        assert 0.0 <= history.final_report.accuracy <= 1.0
        assert history.epochs_run == 15
        assert len(history.losses) == 15

    def test_fit_with_pretrained_model(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=20)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph, pretrained=True)
        assert history.final_report.accuracy > 0.5

    def test_first_group_model_uses_reconstruction_only(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph)
        assert history.clustering_losses == []
        assert len(history.reconstruction_losses) == history.epochs_run

    def test_second_group_model_tracks_clustering_loss(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph)
        assert len(history.clustering_losses) == history.epochs_run

    def test_convergence_criterion_stops_training(self, tiny_graph):
        # The tiny graph is easy: with a permissive alpha1 the coverage
        # criterion should trigger well before the epoch budget.
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = small_config(
            alpha1=0.1, epochs=60, stop_at_convergence=True, update_omega_every=5
        )
        trainer = RethinkTrainer(model, config)
        history = trainer.fit(tiny_graph)
        assert history.converged
        assert history.epochs_run < 60

    def test_omega_coverage_recorded_every_epoch(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph)
        assert len(history.omega_coverage) == history.epochs_run
        assert all(0.0 <= value <= 1.0 for value in history.omega_coverage)

    def test_self_supervision_graph_is_built(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        trainer.fit(tiny_graph)
        assert trainer.self_supervision_graph_ is not None
        assert trainer.self_supervision_graph_.shape == tiny_graph.adjacency.shape
        assert trainer.last_sampling_ is not None

    def test_graph_transform_disabled_keeps_original_graph(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config(use_graph_transform=False))
        trainer.fit(tiny_graph)
        np.testing.assert_allclose(
            trainer.self_supervision_graph_.to_dense(), tiny_graph.adjacency.to_dense()
        )

    def test_sampling_disabled_selects_all_nodes(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config(use_sampling=False))
        history = trainer.fit(tiny_graph)
        assert all(size == tiny_graph.num_nodes for size in history.omega_sizes)

    def test_protection_delay_uses_all_nodes_initially(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = small_config(protection_delay=10, alpha1=0.9, epochs=12, update_omega_every=3)
        trainer = RethinkTrainer(model, config)
        history = trainer.fit(tiny_graph)
        assert history.omega_sizes[0] == tiny_graph.num_nodes

    def test_single_step_transform_uses_all_nodes(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config(single_step_transform=True, alpha1=0.99))
        trainer.fit(tiny_graph)
        # Even with an extreme alpha1 (tiny Omega) the transform must act on V:
        # inter-cluster original edges between any nodes get dropped.
        assert trainer.self_supervision_graph_ is not None

    def test_tracking_fr_fd_and_dynamics(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = small_config(evaluate_every=5)
        trainer = RethinkTrainer(model, config, callbacks=["dynamics", "fr_fd"])
        history = trainer.fit(tiny_graph)
        assert len(history.fr_rethought) == len(history.fr_baseline) > 0
        assert len(history.fd_rethought) == len(history.fd_baseline) > 0
        assert all(-1.0 <= v <= 1.0 for v in history.fr_rethought + history.fd_rethought)
        assert len(history.accuracy_all) == len(history.evaluation_epochs) > 0
        assert len(history.link_stats) > 0

    @pytest.mark.parametrize("name", ["gae", "vgae", "argae", "arvgae"])
    def test_fr_fd_on_first_group_records_only_fd(self, name, tiny_graph):
        # Λ_FR needs a clustering loss, which first-group models lack.
        model = build_model(name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = small_config(epochs=4, pretrain_epochs=4, evaluate_every=2)
        history = RethinkTrainer(model, config, callbacks=["fr_fd"]).fit(tiny_graph)
        assert history.fr_rethought == [] and history.fr_baseline == []
        assert len(history.fd_rethought) == len(history.fd_baseline) == 3  # epochs 0, 2, 3
        assert all(-1.0 <= v <= 1.0 for v in history.fd_rethought + history.fd_baseline)

    def test_graph_snapshots_recorded(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(
            model, small_config(), callbacks=[{"name": "graph_snapshots", "every": 5}]
        )
        history = trainer.fit(tiny_graph)
        assert 0 in history.graph_snapshots
        assert history.graph_snapshots[0].shape == tiny_graph.adjacency.shape

    def test_history_summary_keys(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        history = trainer.fit(tiny_graph)
        summary = history.summary()
        for key in ("epochs_run", "converged", "final_coverage", "acc", "nmi", "ari"):
            assert key in summary

    def test_predict_labels_delegates_to_model(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        trainer = RethinkTrainer(model, small_config())
        trainer.fit(tiny_graph)
        labels = trainer.predict_labels(tiny_graph)
        assert labels.shape == (tiny_graph.num_nodes,)

    def test_rethink_improves_over_random_for_first_group(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        random_acc = clustering_accuracy(tiny_graph.labels, model.predict_labels(tiny_graph))
        trainer = RethinkTrainer(model, small_config(epochs=25, pretrain_epochs=25))
        history = trainer.fit(tiny_graph)
        assert history.final_report.accuracy > max(0.6, random_acc - 0.05)

    def test_gamma_override_changes_loss_scale(self, tiny_graph):
        model_a = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model_a.pretrain(tiny_graph, epochs=10)
        state = model_a.state_dict()
        trainer_a = RethinkTrainer(model_a, small_config(gamma=0.0, epochs=5))
        history_a = trainer_a.fit(tiny_graph, pretrained=True)

        model_b = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model_b.load_state_dict(state)
        trainer_b = RethinkTrainer(model_b, small_config(gamma=10.0, epochs=5))
        history_b = trainer_b.fit(tiny_graph, pretrained=True)
        assert history_b.losses[0] > history_a.losses[0]


@pytest.mark.parametrize("sampler", ["full", "cluster"])
def test_exception_inside_an_epoch_marks_its_span(tiny_graph, sampler):
    from repro.api.callbacks import LambdaCallback
    from repro.observability import tracing_session

    def fail_in_epoch_one(epoch, logs):
        if epoch == 1:
            raise ValueError("callback failure")

    model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    config = small_config(epochs=3, pretrain_epochs=1, sampler=sampler, batch_size=32)
    trainer = RethinkTrainer(
        model, config, callbacks=[LambdaCallback(on_epoch_end=fail_in_epoch_one)]
    )
    with tracing_session(enabled=True) as tracer:
        with pytest.raises(ValueError, match="callback failure"):
            trainer.fit(tiny_graph)
    (fit,) = [root for root in tracer.export() if root["name"] == "trainer.fit"]
    epochs = [child for child in fit["children"] if child["name"] == "trainer.epoch"]
    assert [span["attributes"]["epoch"] for span in epochs] == [0, 1]
    assert epochs[0]["status"] == "ok"
    assert epochs[1]["status"] == "error"
    assert epochs[1]["attributes"]["error"] == "ValueError"
    assert epochs[1]["wall_seconds"] > 0.0
    assert fit["status"] == "error"


def _span_names(nodes):
    for node in nodes:
        yield node["name"]
        yield from _span_names(node.get("children", ()))


def test_each_boundary_fits_kmeans_and_upsilon_once(tiny_graph):
    """Epoch 0 reuses the initial fit; no Ξ or Υ runs before the loop.

    21 epochs at M1 = 20, M2 = 10: k-means fits at the initialisation
    (shared by epoch 0's refresh and Ξ), at epochs 10 and 20 (shared by
    epoch 20's Ξ) and for the final report; Υ runs at epochs 0, 10, 20.
    """
    from repro.observability import tracing_session

    model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    config = small_config(
        epochs=21, pretrain_epochs=2, update_omega_every=20, update_graph_every=10
    )
    with tracing_session(enabled=True) as tracer:
        history = RethinkTrainer(model, config).fit(tiny_graph)
    names = list(_span_names(tracer.export()))
    assert names.count("kernel.kmeans_fit") == 4
    assert names.count("kernel.upsilon") == 3
    assert names.count("trainer.omega_update") == 2
    (fit,) = [root for root in tracer.export() if root["name"] == "trainer.fit"]
    children = [child["name"] for child in fit["children"]]
    assert children[:2] == ["trainer.pretrain", "trainer.clustering_init"]
    assert children[-1] == "trainer.final_report"
    assert history.final_report is not None


def test_every_step_opens_forward_backward_and_optimizer_spans(tiny_graph):
    from repro.observability import tracing_session

    model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    config = small_config(epochs=3, pretrain_epochs=2)
    with tracing_session(enabled=True) as tracer:
        RethinkTrainer(model, config).fit(tiny_graph)
    (fit,) = [root for root in tracer.export() if root["name"] == "trainer.fit"]
    phases = [child for child in fit["children"] if child["name"] == "trainer.pretrain"]
    phases += [child for child in fit["children"] if child["name"] == "trainer.epoch"]
    step = ["step.forward", "step.backward", "step.optimizer"]
    steps = [2, 1, 1, 1]
    assert len(phases) == len(steps)
    for phase, count in zip(phases, steps):
        children = [child for child in phase["children"] if child["name"].startswith("step.")]
        assert [child["name"] for child in children] == step * count
        for forward in children[::3]:
            names = [kernel["name"] for kernel in forward["children"]]
            assert "kernel.inner_product_bce" in names


def test_operator_state_is_empty_until_epoch_zero(tiny_graph):
    from repro.api.callbacks import LambdaCallback

    model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    seen = []
    probe = LambdaCallback(
        on_train_begin=lambda graph, history: seen.append(
            (trainer.last_sampling_, trainer.self_supervision_graph_)
        )
    )
    trainer = RethinkTrainer(model, small_config(epochs=2, pretrain_epochs=1), callbacks=[probe])
    trainer.fit(tiny_graph)
    trainer.fit(tiny_graph, pretrained=True)
    assert seen == [(None, None), (None, None)]
    assert trainer.last_sampling_ is not None
    assert trainer.self_supervision_graph_ is not None
