"""Tests for the RunSpec hierarchy: dict / JSON round-trips and validation."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    DatasetSpec,
    ModelSpec,
    RethinkSpec,
    RunSpec,
    SpecError,
    TrainingSpec,
    UnknownVariantError,
)
from repro.experiments.config import ExperimentConfig


def full_spec() -> RunSpec:
    return RunSpec(
        dataset=DatasetSpec(name="cora_sim", seed=3),
        model=ModelSpec(name="gmm_vgae", options={"gamma": 0.5}),
        variant="rethink",
        seed=7,
        training=TrainingSpec(pretrain_epochs=12, clustering_epochs=8, rethink_epochs=10),
        rethink=RethinkSpec(overrides={"alpha1": 0.7, "stop_at_convergence": False}),
        callbacks=["dynamics", {"name": "graph_snapshots", "every": 5}],
        tags={"table": "1"},
    )


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = full_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_exact(self):
        spec = full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_serialisable(self):
        json.dumps(full_spec().to_dict())

    def test_minimal_spec_uses_defaults(self):
        spec = RunSpec.from_dict({"dataset": "cora_sim", "model": "gae"})
        assert spec.dataset == DatasetSpec(name="cora_sim")
        assert spec.model == ModelSpec(name="gae")
        assert spec.variant == "rethink"
        assert spec.seed == 0
        assert spec.training == TrainingSpec()
        assert spec.rethink == RethinkSpec()

    def test_shorthand_names_expand(self):
        spec = RunSpec.from_dict(
            {"dataset": {"name": "pubmed_sim", "seed": 2}, "model": "vgae"}
        )
        assert spec.dataset.seed == 2
        assert spec.model.name == "vgae"


class TestValidation:
    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown run spec field"):
            RunSpec.from_dict({"dataset": "cora_sim", "model": "gae", "grap": {}})

    def test_missing_dataset_rejected(self):
        with pytest.raises(SpecError, match="dataset"):
            RunSpec.from_dict({"model": "gae"})

    def test_unknown_variant_rejected(self):
        with pytest.raises(UnknownVariantError, match="refine"):
            RunSpec.from_dict({"dataset": "cora_sim", "model": "gae", "variant": "refine"})

    def test_unknown_rethink_override_rejected(self):
        with pytest.raises(SpecError, match="alpha3"):
            RethinkSpec(overrides={"alpha3": 0.1})

    @pytest.mark.parametrize(
        "name, value, replacement",
        [
            ("track_fr", True, '{"name": "fr_fd", "track_fd": false}'),
            ("track_fd", True, '{"name": "fr_fd", "track_fr": false}'),
            ("track_dynamics", True, '"dynamics"'),
            ("snapshot_graph_every", 5, '{"name": "graph_snapshots", "every": N}'),
            ("verbose", True, '"progress"'),
        ],
    )
    def test_retired_override_names_its_callback(
        self, name, value, replacement, tmp_path, capsys
    ):
        from repro.api import Pipeline
        from repro.api.callbacks import resolve_callbacks
        from repro.api.cli import main

        document = {
            "dataset": "brazil_air_sim",
            "model": "gae",
            "rethink": {"overrides": {name: value}},
        }
        with pytest.raises(SpecError, match=name) as error:
            RunSpec.from_json(json.dumps(document))
        assert replacement in str(error.value)
        with pytest.raises(SpecError, match=name):
            Pipeline().dataset("brazil_air_sim").model("gae").rethink(**{name: value})
        path = tmp_path / "trial.json"
        path.write_text(json.dumps(document))
        assert main([str(path)]) == 2
        assert replacement in capsys.readouterr().err
        # the named replacement is a working callback spec
        assert len(resolve_callbacks([json.loads(replacement.replace("N", "5"))])) == 1

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            RunSpec.from_json("{not json")

    def test_unknown_training_field_rejected(self):
        with pytest.raises(SpecError, match="training"):
            TrainingSpec.from_dict({"warmup_epochs": 5})


class TestConvenience:
    def test_replace_returns_modified_copy(self):
        spec = full_spec()
        base = spec.replace(variant="base")
        assert base.variant == "base"
        assert spec.variant == "rethink"

    def test_describe_mentions_variant_and_names(self):
        assert full_spec().describe() == "R-GMM_VGAE on cora_sim (seed 7)"

    def test_training_spec_from_experiment_config(self):
        config = ExperimentConfig(pretrain_epochs=9, clustering_epochs=7, rethink_epochs=5)
        training = TrainingSpec.from_experiment_config(config)
        assert (training.pretrain_epochs, training.clustering_epochs, training.rethink_epochs) == (9, 7, 5)
