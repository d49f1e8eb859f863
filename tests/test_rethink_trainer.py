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
