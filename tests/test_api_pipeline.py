"""Tests for the Pipeline facade, the callback system and config validation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.api import (
    CALLBACKS,
    ConfigError,
    ConvergenceStopping,
    LambdaCallback,
    Pipeline,
    RethinkCallback,
    SpecError,
    UnknownVariantError,
    resolve_callbacks,
)
from repro.core import RethinkConfig, RethinkTrainer
from repro.experiments.runner import PairResult
from repro.models import build_model


def fast_pipeline(graph, model="dgae", **overrides):
    settings = dict(
        alpha1=0.4,
        update_omega_every=5,
        update_graph_every=5,
        stop_at_convergence=False,
    )
    settings.update(overrides)
    return (
        Pipeline()
        .graph(graph)
        .model(model)
        .seed(0)
        .training(pretrain_epochs=10, clustering_epochs=6, rethink_epochs=10)
        .rethink(**settings)
    )


class RecordingCallback(RethinkCallback):
    """Records every event as (event_name, epoch_or_None)."""

    def __init__(self):
        self.events = []

    def on_train_begin(self, graph, history):
        self.events.append(("train_begin", None))

    def on_train_end(self, history):
        self.events.append(("train_end", None))

    def on_epoch_begin(self, epoch):
        self.events.append(("epoch_begin", epoch))

    def on_epoch_end(self, epoch, logs):
        self.events.append(("epoch_end", epoch))

    def on_omega_update(self, epoch, sampling):
        self.events.append(("omega_update", epoch))

    def on_graph_transform(self, epoch, graph_matrix):
        self.events.append(("graph_transform", epoch))

    def on_evaluate(self, epoch, context):
        self.events.append(("evaluate", epoch))


class TestCallbackFiringOrder:
    @pytest.fixture(scope="class")
    def events(self, tiny_graph):
        recorder = RecordingCallback()
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = RethinkConfig(
            alpha1=0.4,
            update_omega_every=4,
            update_graph_every=2,
            epochs=8,
            pretrain_epochs=8,
            evaluate_every=3,
            stop_at_convergence=False,
        )
        RethinkTrainer(model, config, callbacks=[recorder]).fit(tiny_graph)
        return recorder.events

    def test_lifecycle_brackets_everything(self, events):
        assert events[0] == ("train_begin", None)
        assert events[-1] == ("train_end", None)

    def test_epoch_begin_precedes_epoch_end_each_epoch(self, events):
        for epoch in range(8):
            begin = events.index(("epoch_begin", epoch))
            end = events.index(("epoch_end", epoch))
            assert begin < end

    def test_omega_updates_at_configured_cadence(self, events):
        omega_epochs = [epoch for name, epoch in events if name == "omega_update"]
        assert omega_epochs == [0, 4]

    def test_graph_transform_at_configured_cadence(self, events):
        transform_epochs = [epoch for name, epoch in events if name == "graph_transform"]
        assert transform_epochs == [0, 2, 4, 6]

    def test_omega_update_precedes_graph_transform_when_same_epoch(self, events):
        assert events.index(("omega_update", 0)) < events.index(("graph_transform", 0))

    def test_evaluate_fires_on_cadence_and_last_epoch(self, events):
        evaluate_epochs = [epoch for name, epoch in events if name == "evaluate"]
        assert evaluate_epochs == [0, 3, 6, 7]

    def test_evaluate_fires_before_epoch_end(self, events):
        assert events.index(("evaluate", 3)) < events.index(("epoch_end", 3))


class TestCallbackSystem:
    def test_registered_callback_names(self):
        for name in ("fr_fd", "dynamics", "graph_snapshots", "progress", "convergence_stopping"):
            assert name in CALLBACKS

    def test_resolve_callbacks_from_specs(self):
        resolved = resolve_callbacks(
            ["dynamics", {"name": "graph_snapshots", "every": 3}, ConvergenceStopping()]
        )
        assert len(resolved) == 3
        assert resolved[1].every == 3

    def test_resolve_rejects_nameless_dict(self):
        with pytest.raises(ValueError, match="name"):
            resolve_callbacks([{"every": 3}])

    def test_lambda_callback_rejects_unknown_hook(self):
        with pytest.raises(ValueError, match="unknown callback hooks"):
            LambdaCallback(on_epoch_midpoint=lambda: None)

    def test_convergence_stopping_as_callback(self, tiny_graph):
        result = fast_pipeline(
            tiny_graph,
            alpha1=0.1,
            stop_at_convergence=False,
            epochs=40,
        ).callbacks("convergence_stopping").run()
        assert result.history.converged
        assert result.history.epochs_run < 40

    def test_snapshot_callback_from_spec(self, tiny_graph):
        result = (
            fast_pipeline(tiny_graph)
            .callbacks({"name": "graph_snapshots", "every": 5})
            .run()
        )
        assert 0 in result.history.graph_snapshots
        assert result.history.graph_snapshots[0].shape == tiny_graph.adjacency.shape

    def test_tracking_via_declarative_callbacks(self, tiny_graph):
        result = (
            fast_pipeline(tiny_graph, evaluate_every=5)
            .callbacks("dynamics", "fr_fd")
            .run()
        )
        history = result.history
        assert len(history.accuracy_all) == len(history.evaluation_epochs) > 0
        assert len(history.fr_rethought) == len(history.fr_baseline) > 0
        assert len(history.link_stats) > 0


def brazil_rethink(model="gae"):
    """A tiny R- trial on the 130-node air-traffic graph: 2 + 4 epochs."""
    return (
        Pipeline()
        .dataset("brazil_air_sim")
        .model(model)
        .rethink()
        .seed(0)
        .training(pretrain_epochs=2, rethink_epochs=4)
    )


class TestTelemetryCallback:
    LOG_KEYS = {"loss", "reconstruction_loss", "num_reliable", "coverage", "num_batches"}

    def test_one_record_per_epoch_with_peak_allocations(self):
        history = brazil_rethink().callbacks("telemetry").run().history
        assert list(history.telemetry) == ["epochs"]
        records = history.telemetry["epochs"]
        assert len(records) == history.epochs_run == 4
        assert [record["epoch"] for record in records] == [0.0, 1.0, 2.0, 3.0]
        for record in records:
            assert set(record) == {"epoch", "peak_alloc_bytes", *self.LOG_KEYS}
            assert record["peak_alloc_bytes"] > 0

    def test_folds_the_fr_fd_series(self):
        # a second-group model, so fr_fd records Λ_FR as well as Λ_FD
        history = brazil_rethink("dgae").callbacks("telemetry", "fr_fd").run().history
        for name in ("fr_rethought", "fr_baseline", "fd_rethought", "fd_baseline"):
            series = getattr(history, name)
            assert series and history.telemetry[name] == series

    def test_epochs_reach_the_trace_summary(self):
        from repro.observability import (
            chrome_trace,
            merge_sweep_telemetry,
            summarize_trace,
            tracing_session,
        )

        with tracing_session(enabled=True) as tracer:
            history = brazil_rethink().callbacks("telemetry").run().history
        document = merge_sweep_telemetry([("trial", 0, tracer.payload())])
        rows = summarize_trace(chrome_trace(document)["traceEvents"])
        (row,) = [row for row in rows if row["name"] == "telemetry.epoch"]
        assert row["calls"] == history.epochs_run == 4
        assert row["peak_alloc_kb"] > 0

    def test_failed_fit_stops_tracemalloc(self):
        assert not tracemalloc.is_tracing()

        def fail_at_epoch_1(epoch, logs):
            if epoch == 1:
                raise RuntimeError("callback failed at epoch 1")

        pipeline = brazil_rethink().callbacks(
            "telemetry", LambdaCallback(on_epoch_end=fail_at_epoch_1)
        )
        with pytest.raises(RuntimeError, match="epoch 1"):
            pipeline.run()
        assert not tracemalloc.is_tracing()


class TestPipelineFacade:
    def test_fluent_and_from_spec_agree(self, tiny_graph):
        fluent = fast_pipeline(tiny_graph).run()
        respec = Pipeline.from_spec(fast_pipeline(tiny_graph).spec()).graph(tiny_graph).run()
        assert fluent.report.as_dict() == respec.report.as_dict()

    def test_from_json_round_trip_runs(self, tiny_graph):
        text = fast_pipeline(tiny_graph).spec().to_json()
        result = Pipeline.from_spec(text).graph(tiny_graph).run()
        assert 0.0 <= result.report.accuracy <= 1.0

    def test_base_variant_has_no_history(self, tiny_graph):
        result = fast_pipeline(tiny_graph).base().run()
        assert result.history is None
        assert result.variant == "base"
        assert result.report is not None

    def test_shared_pretraining_state(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=10)
        state = model.state_dict()
        template = fast_pipeline(tiny_graph).pretrained_state(state)
        base = template.base().run()
        rethought = template.rethink().run()
        assert base.report is not None and rethought.report is not None

    def test_pipeline_is_immutable(self, tiny_graph):
        template = fast_pipeline(tiny_graph)
        changed = template.seed(5)
        assert template.spec().seed == 0
        assert changed.spec().seed == 5

    def test_missing_dataset_raises(self):
        with pytest.raises(SpecError, match="no dataset"):
            Pipeline().model("gae").spec()

    def test_missing_model_raises(self):
        with pytest.raises(SpecError, match="no model"):
            Pipeline().dataset("cora_sim").spec()

    def test_variant_by_name_validates(self):
        with pytest.raises(UnknownVariantError):
            Pipeline().variant("weird")

    def test_run_summary_keys(self, tiny_graph):
        summary = fast_pipeline(tiny_graph).run().summary()
        for key in ("runtime_seconds", "acc", "nmi", "ari", "epochs_run"):
            assert key in summary


class TestConfigValidation:
    def test_alpha1_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha1"):
            RethinkConfig(alpha1=1.5).validate()

    def test_alpha2_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha2"):
            RethinkConfig(alpha2=-0.2).validate()

    def test_alpha2_defaults_to_half_alpha1(self):
        assert RethinkConfig(alpha1=0.6).resolved_alpha2 == pytest.approx(0.3)
        assert RethinkConfig(alpha1=0.6, alpha2=0.1).resolved_alpha2 == pytest.approx(0.1)

    def test_nonpositive_epochs(self):
        with pytest.raises(ConfigError, match="epochs"):
            RethinkConfig(epochs=0).validate()

    def test_bad_update_cadence(self):
        with pytest.raises(ConfigError, match="update_omega_every"):
            RethinkConfig(update_omega_every=0).validate()

    def test_bad_convergence_fraction(self):
        with pytest.raises(ConfigError, match="convergence_fraction"):
            RethinkConfig(convergence_fraction=0.0).validate()

    def test_negative_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            RethinkConfig(gamma=-1.0).validate()

    def test_gamma_required_for_second_group_without_model_default(self):
        with pytest.raises(ConfigError, match="second-group"):
            RethinkConfig().validate(model_group="second", model_gamma=None)

    def test_second_group_accepts_model_gamma(self):
        RethinkConfig().validate(model_group="second", model_gamma=1.0)

    def test_trainer_validates_eagerly(self, tiny_graph):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        with pytest.raises(ConfigError):
            RethinkTrainer(model, RethinkConfig(alpha1=2.0))

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestPairResultVariants:
    def test_unknown_variant_raises_typed_error(self):
        pair = PairResult(model="gae", dataset="cora_sim")
        with pytest.raises(UnknownVariantError, match="boosted"):
            pair.best("boosted")
        with pytest.raises(UnknownVariantError):
            pair.mean_std("boosted")

    def test_unknown_variant_error_is_value_error(self):
        pair = PairResult(model="gae", dataset="cora_sim")
        with pytest.raises(ValueError):
            pair.trials("boosted")

    def test_known_variants_still_work(self):
        pair = PairResult(model="gae", dataset="cora_sim")
        assert pair.trials("base") == []
        with pytest.raises(ValueError, match="no trials"):
            pair.best("base")


class TestCLI:
    def test_print_spec_round_trips(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api import RunSpec

        spec_path = tmp_path / "trial.json"
        spec_path.write_text(
            '{"dataset": "brazil_air_sim", "model": "gae", "seed": 1}'
        )
        assert main([str(spec_path), "--print-spec"]) == 0
        printed = capsys.readouterr().out
        spec = RunSpec.from_json(printed)
        assert spec.dataset.name == "brazil_air_sim"
        assert spec.seed == 1

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        from repro.api.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"dataset": "cora_sim"}')
        assert main([str(bad), "--print-spec"]) == 2
        assert "model" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        from repro.api.cli import main

        assert main(["/nonexistent/spec.json", "--print-spec"]) == 2

    def test_unknown_registry_name_reports_cleanly(self, tmp_path, capsys):
        from repro.api.cli import main

        spec_path = tmp_path / "trial.json"
        spec_path.write_text('{"dataset": "cora", "model": "gae"}')
        assert main([str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset 'cora'" in err
        assert "cora_sim" in err  # the error names the available datasets
