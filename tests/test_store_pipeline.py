"""Warm-start and checkpoint integration: Pipeline, trainer, runner, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.callbacks import LambdaCallback
from repro.api.cli import main as cli_main
from repro.api.pipeline import Pipeline
from repro.core.rethink import RethinkConfig, RethinkTrainer
from repro.errors import SpecError, StoreError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_model_pair
from repro.models import build_model
from repro.env import STORE_DIR_ENV
from repro.store import ArtifactStore, Snapshot

from repro.graph.generators import attributed_sbm_graph


def make_tiny_graph(seed: int = 0):
    return attributed_sbm_graph(
        num_nodes=90, proportions=[1 / 3] * 3, p_intra=0.25, p_inter=0.02,
        num_features=40, active_per_class=8, signal=0.4, noise=0.02,
        seed=seed, name="tiny",
    )


def tiny_pipeline(model="gae", variant="base", seed=0):
    pipeline = (
        Pipeline()
        .dataset("brazil_air_sim")
        .model(model)
        .seed(seed)
        .training(pretrain_epochs=4, clustering_epochs=2, rethink_epochs=3)
    )
    return pipeline.base() if variant == "base" else pipeline.rethink()


class TestPipelineWarmStart:
    def test_warm_run_matches_cold_run(self, tmp_path):
        pipeline = tiny_pipeline().warm_start(str(tmp_path))
        cold = pipeline.run()
        assert cold.extra["pretrain_cache"]["enabled"]
        assert not cold.extra["pretrain_cache"]["hit"]
        warm = pipeline.run()
        assert warm.extra["pretrain_cache"]["hit"]
        assert warm.report == cold.report
        reference = tiny_pipeline().run()
        assert reference.report == cold.report
        assert reference.extra["pretrain_cache"] == {
            "enabled": False, "hit": False, "key": None, "store": None,
            "seconds": reference.extra["pretrain_cache"]["seconds"],
        }

    def test_base_and_rethink_share_one_snapshot(self, tmp_path):
        base = tiny_pipeline(variant="base").warm_start(str(tmp_path)).run()
        rethink = tiny_pipeline(variant="rethink").warm_start(str(tmp_path)).run()
        assert not base.extra["pretrain_cache"]["hit"]
        assert rethink.extra["pretrain_cache"]["hit"]
        assert rethink.extra["pretrain_cache"]["key"] == base.extra["pretrain_cache"]["key"]
        assert len(ArtifactStore(str(tmp_path))) == 1

    def test_explicit_graphs_key_by_content(self, tmp_path):
        graph = make_tiny_graph()
        corrupted = make_tiny_graph(seed=1)

        def run(g):
            return (
                Pipeline().graph(g).model("gae").base().seed(0)
                .training(pretrain_epochs=3, clustering_epochs=2)
                .warm_start(str(tmp_path)).run()
            )

        first = run(graph)
        second = run(corrupted)
        assert not first.extra["pretrain_cache"]["hit"]
        assert not second.extra["pretrain_cache"]["hit"]
        assert first.extra["pretrain_cache"]["key"] != second.extra["pretrain_cache"]["key"]
        assert run(graph).extra["pretrain_cache"]["hit"]

    def test_run_trials_propagates_store(self, tmp_path):
        pipeline = tiny_pipeline().warm_start(str(tmp_path))
        cold = pipeline.run_sweep([0, 1], jobs=1).results
        assert [r.extra["pretrain_cache"]["hit"] for r in cold] == [False, False]
        warm = pipeline.run_sweep([0, 1], jobs=2).results
        assert [r.extra["pretrain_cache"]["hit"] for r in warm] == [True, True]
        for a, b in zip(cold, warm):
            assert a.report == b.report


class TestPretrainedStateHandoff:
    def test_mismatched_snapshot_fails_before_training(self):
        graph = make_tiny_graph()
        wrong = build_model("vgae", graph.num_features, graph.num_clusters, seed=0)
        epochs = []
        pipeline = (
            Pipeline().graph(graph).model("gae").rethink().seed(0)
            .training(pretrain_epochs=4, rethink_epochs=2)
            .callbacks(LambdaCallback(on_epoch_begin=epochs.append))
            .pretrained_state(wrong.state_dict())
        )
        with pytest.raises(KeyError, match="missing parameters.*output_layer"):
            pipeline.run()
        assert epochs == []

    def test_pretrained_state_takes_a_state_dict_only(self):
        model = build_model("gae", 40, 3, seed=0)
        for state in (Snapshot.capture(model), "ab" * 32):
            with pytest.raises(SpecError, match="state_dict"):
                tiny_pipeline().pretrained_state(state)

    def test_warm_start_takes_a_directory_or_false(self, tmp_path):
        for store in (True, ArtifactStore(str(tmp_path))):
            with pytest.raises(SpecError, match="store directory or False"):
                tiny_pipeline().warm_start(store)

    def test_run_trials_rejects_pretrained_state(self):
        pipeline = tiny_pipeline().pretrained_state({"w": np.zeros(2)})
        with pytest.raises(SpecError, match="warm_start"):
            pipeline.run_sweep([0, 1])


class TestPipelineSaveLoad:
    def test_save_load_round_trip(self, tmp_path):
        result = tiny_pipeline(model="dgae", variant="rethink").run()
        path = str(tmp_path / "dgae.snap")
        assert result.save(path) == path
        loaded = Pipeline.load(path)
        assert loaded.spec.to_dict() == result.spec.to_dict()
        assert loaded.extra["phase"] == "trained"
        from repro.parallel import load_dataset_cached

        graph = load_dataset_cached("brazil_air_sim", seed=0)
        diff = np.abs(result.model.embed(graph) - loaded.model.embed(graph)).max()
        assert diff <= 1e-10
        np.testing.assert_array_equal(
            result.model.predict_labels(graph), loaded.model.predict_labels(graph)
        )

    def test_load_requires_spec(self, tmp_path):
        graph = make_tiny_graph()
        model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
        path = str(tmp_path / "bare.snap")
        Snapshot.capture(model).save(path)
        with pytest.raises(StoreError, match="no RunSpec"):
            Pipeline.load(path)

    def test_pooled_results_cannot_be_saved(self, tmp_path):
        results = tiny_pipeline().run_sweep([0]).results
        with pytest.raises(StoreError, match="no model"):
            results[0].save(str(tmp_path / "x.snap"))


class TestStoreResolution:
    """The pipeline picks a trial's store once: its warm_start root, else
    the REPRO_STORE_DIR store, else none; sweeps hand the root to workers."""

    def test_warm_start_false_beats_the_variable(self, tmp_path, monkeypatch):
        planted = tmp_path / "planted"
        monkeypatch.setenv(STORE_DIR_ENV, str(planted))
        pipeline = tiny_pipeline().warm_start(False)
        results = [pipeline.run()]
        for jobs in (1, 2):
            results += pipeline.run_sweep([0, 1], jobs=jobs).results
        assert [r.extra["pretrain_cache"]["enabled"] for r in results] == [False] * 5
        assert not planted.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unset_warm_start_follows_the_variable(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        pipeline = tiny_pipeline()
        cold = pipeline.run_sweep([0, 1], jobs=jobs).results
        warm = pipeline.run_sweep([0, 1], jobs=jobs).results
        assert [r.extra["pretrain_cache"]["hit"] for r in cold] == [False, False]
        assert [r.extra["pretrain_cache"]["hit"] for r in warm] == [True, True]
        assert {r.extra["pretrain_cache"]["store"] for r in warm} == {str(tmp_path)}
        for a, b in zip(cold, warm):
            assert a.report == b.report

    def test_explicit_warm_start_beats_the_variable(self, tmp_path, monkeypatch):
        planted = tmp_path / "planted"
        monkeypatch.setenv(STORE_DIR_ENV, str(planted))
        store = str(tmp_path / "store")
        results = tiny_pipeline().warm_start(store).run_sweep([0, 1], jobs=2).results
        assert {r.extra["pretrain_cache"]["store"] for r in results} == {store}
        assert len(ArtifactStore(store)) == 2
        assert not planted.exists()


class TestTrainerPretraining:
    def test_trainer_never_warm_starts(self, tmp_path, monkeypatch):
        graph = make_tiny_graph()

        def fit():
            model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
            config = RethinkConfig(
                epochs=2, pretrain_epochs=3, stop_at_convergence=False
            )
            RethinkTrainer(model, config).fit(graph)
            return model.embed(graph)

        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        plain = fit()
        planted = tmp_path / "planted"
        monkeypatch.setenv(STORE_DIR_ENV, str(planted))
        np.testing.assert_array_equal(fit(), plain)
        assert not planted.exists()


class TestRunnerWarmStart:
    def test_warm_pair_sweep_skips_pretraining(self, tmp_path):
        config = ExperimentConfig(
            num_trials=2, pretrain_epochs=3, clustering_epochs=2, rethink_epochs=2
        )
        cold = run_model_pair("gae", "brazil_air_sim", config)
        populate = run_model_pair(
            "gae", "brazil_air_sim", config, store_dir=str(tmp_path)
        )
        warm = run_model_pair(
            "gae", "brazil_air_sim", config, store_dir=str(tmp_path)
        )
        for trial in populate.base_trials + populate.rethink_trials:
            assert trial.extra["pretrain_cache"]["enabled"]
        # D trials pretrain and write the snapshot; R-D trials read it.
        for trial in populate.base_trials:
            assert not trial.extra["pretrain_cache"]["hit"]
        for trial in populate.rethink_trials:
            assert trial.extra["pretrain_cache"]["hit"]
        for trial in warm.base_trials + warm.rethink_trials:
            assert trial.extra["pretrain_cache"]["hit"]
        # One snapshot per seed: the D / R-D pair shares it.
        assert len(ArtifactStore(str(tmp_path))) == config.num_trials
        for a, b, c in zip(
            cold.base_trials + cold.rethink_trials,
            populate.base_trials + populate.rethink_trials,
            warm.base_trials + warm.rethink_trials,
        ):
            assert a.report == b.report == c.report

    def test_corrupt_snapshot_degrades_to_cold(self, tmp_path):
        config = ExperimentConfig(
            num_trials=1, pretrain_epochs=2, clustering_epochs=2, rethink_epochs=2
        )
        first = run_model_pair("gae", "brazil_air_sim", config, store_dir=str(tmp_path))
        key = first.base_trials[0].extra["pretrain_cache"]["key"]
        with open(ArtifactStore(str(tmp_path))._object_path(key), "ab") as handle:
            handle.write(b"bitrot")
        with pytest.warns(RuntimeWarning, match="degraded to cold"):
            second = run_model_pair(
                "gae", "brazil_air_sim", config, store_dir=str(tmp_path)
            )
        for trial in second.base_trials:
            stats = trial.extra["pretrain_cache"]
            assert stats["degraded"] and not stats["hit"]
        # the degraded D trial rewrote the snapshot; its R-D trial reads it
        for trial in second.rethink_trials:
            assert trial.extra["pretrain_cache"]["hit"]
        for a, b in zip(
            first.base_trials + first.rethink_trials,
            second.base_trials + second.rethink_trials,
        ):
            assert a.report == b.report

    def test_pipeline_warm_start_hits_the_runner_snapshot(self, tmp_path):
        """Runner and Pipeline key a (dataset, model, seed, epochs) cell alike."""
        config = ExperimentConfig(
            num_trials=1, pretrain_epochs=3, clustering_epochs=2, rethink_epochs=2
        )
        pair = run_model_pair("gae", "brazil_air_sim", config, store_dir=str(tmp_path))
        result = tiny_pipeline().training(pretrain_epochs=3).warm_start(str(tmp_path)).run()
        stats = result.extra["pretrain_cache"]
        assert stats["hit"]
        assert stats["key"] == pair.base_trials[0].extra["pretrain_cache"]["key"]


class TestCli:
    def _write_spec(self, tmp_path):
        spec = {
            "dataset": "brazil_air_sim",
            "model": "gae",
            "variant": "base",
            "seed": 0,
            "training": {"pretrain_epochs": 3, "clustering_epochs": 2},
        }
        path = tmp_path / "trial.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_warm_start_save_and_checkpoint_flow(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        store = str(tmp_path / "store")
        snap = str(tmp_path / "model.snap")

        assert cli_main([spec_path, "--warm-start", store, "--save-to", snap]) == 0
        out = capsys.readouterr().out
        assert "pretrain cache: miss" in out

        assert cli_main([spec_path, "--warm-start", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pretrain_cache"]["hit"] is True

        assert cli_main(["--from-checkpoint", snap, "--json"]) == 0
        restored = json.loads(capsys.readouterr().out)
        assert restored["loaded_from"] == snap
        assert "accuracy" in restored or "acc" in restored

    def test_from_checkpoint_conflicts(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        assert cli_main([spec_path, "--from-checkpoint", "x.snap"]) == 2
        assert cli_main([]) == 2
        assert (
            cli_main([spec_path, "--seeds", "0", "1", "--save-to", "x.snap"]) == 2
        )

    def test_missing_checkpoint_is_clean_error(self, tmp_path, capsys):
        assert cli_main(["--from-checkpoint", str(tmp_path / "absent.snap")]) == 2
        assert "repro-run:" in capsys.readouterr().err
