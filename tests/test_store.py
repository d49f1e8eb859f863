"""Tests for repro.store: keys, snapshots, the artifact store, warm starts."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.env import STORE_DIR_ENV
from repro.errors import (
    ArtifactCorruptError,
    ArtifactNotFoundError,
    SnapshotMismatchError,
    SnapshotSchemaError,
    StoreError,
)
from repro.models import build_model
from repro.nn.optim import SGD, Adam
from repro.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    Snapshot,
    active_store,
    array_digest,
    canonical_json,
    config_hash,
    graph_fingerprint,
    pretrain_cache_key,
    pretrain_key,
    warm_pretrain,
)

from repro.graph.generators import attributed_sbm_graph
from repro.graph.sparse import ROW_BLOCK, SparseAdjacency


def make_tiny_graph(seed: int = 0):
    return attributed_sbm_graph(
        num_nodes=90, proportions=[1 / 3] * 3, p_intra=0.25, p_inter=0.02,
        num_features=40, active_per_class=8, signal=0.4, noise=0.02,
        seed=seed, name="tiny",
    )


ALL_MODELS = ["gae", "vgae", "argae", "arvgae", "dgae", "gmm_vgae"]
RESUME_MODELS = ["gae", "dgae", "gmm_vgae"]


class TestKeys:
    def test_config_hash_stable_across_dict_ordering(self):
        a = {"dataset": "cora_sim", "seed": 3, "options": {"x": 1, "y": 2}}
        b = {"options": {"y": 2, "x": 1}, "seed": 3, "dataset": "cora_sim"}
        assert config_hash(a) == config_hash(b)

    def test_config_hash_normalises_numpy_and_tuples(self):
        a = {"seed": np.int64(3), "thresholds": (0.5, np.float64(1.5)), "flag": np.True_}
        b = {"seed": 3, "thresholds": [0.5, 1.5], "flag": True}
        assert config_hash(a) == config_hash(b)

    def test_config_hash_stable_across_processes(self):
        payload = {"dataset": "cora_sim", "model": {"class": "GAE", "seed": 0}, "k": [1, 2]}
        script = (
            "import json,sys;from repro.store import config_hash;"
            "print(config_hash(json.loads(sys.argv[1])))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(payload)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == config_hash(payload)

    def test_config_hash_rejects_unhashable_values(self):
        with pytest.raises(StoreError):
            config_hash({"bad": object()})
        with pytest.raises(StoreError):
            config_hash({1: "non-string key"})

    def test_canonical_json_sorts_keys(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_array_digest_depends_on_content_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.reshape(2, 3))
        b = a.copy()
        b[0] += 1e-12
        assert array_digest(a) != array_digest(b)

    def test_array_digest_rejects_non_arrays(self):
        """A CSR matrix would hash as a 0-d object array: its address."""
        for value in (SparseAdjacency.from_matrix(np.eye(3)), [1.0, 2.0], 3.0):
            with pytest.raises(TypeError, match="np.ndarray"):
                array_digest(value)

    def test_graph_fingerprint_of_csr_features_is_the_dense_digest(self):
        """CSR features hash like their dense array (streamed in row
        blocks), so keys of explicit graphs whose features were held dense
        before still hit."""
        graph = attributed_sbm_graph(
            300, [0.5, 0.5], 0.05, 0.005, 400, 20, 0.2, 0.005, seed=1, name="fp"
        )
        assert isinstance(graph.features, SparseAdjacency)
        assert graph.num_nodes > ROW_BLOCK
        digest = graph_fingerprint(graph)["features"]
        assert digest == array_digest(graph.features.to_dense())
        # the digest of this graph's dense feature array, before CSR features
        assert digest == "b2c29af6044bae37388835a54f09973036a67b78d56584d0f1e6a975adc010fb"

    def test_graph_fingerprint_distinguishes_corrupted_graphs(self):
        graph = make_tiny_graph()
        corrupted_adj = graph.adjacency.to_dense()
        corrupted_adj[0, 1] = 1.0 - corrupted_adj[0, 1]
        corrupted_adj[1, 0] = corrupted_adj[0, 1]
        clean = graph_fingerprint(graph)
        assert clean == graph_fingerprint(graph)
        corrupted = graph_fingerprint(graph.with_adjacency(corrupted_adj))
        assert pretrain_key(
            dataset=clean, model={"class": "GAE"}, seed=0, pretrain_epochs=5
        ) != pretrain_key(
            dataset=corrupted, model={"class": "GAE"}, seed=0, pretrain_epochs=5
        )

    def test_pretrain_key_sensitivity(self):
        base = dict(
            dataset={"name": "cora_sim", "seed": 0, "options": {}},
            model={"class": "GAE", "seed": 0},
            seed=0,
            pretrain_epochs=10,
        )
        key = pretrain_key(**base)
        assert key == pretrain_key(**base)
        assert key != pretrain_key(**{**base, "seed": 1})
        assert key != pretrain_key(**{**base, "pretrain_epochs": 11})

    def test_pretrain_cache_key_shared_across_variants(self, tiny_graph):
        # The cache key has no variant coordinate at all: two models built
        # identically (as for a D / R-D pair) key to the same snapshot.
        model_a = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model_b = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        assert pretrain_cache_key(model_a, 10, graph=tiny_graph) == pretrain_cache_key(
            model_b, 10, graph=tiny_graph
        )


class TestOptimizerState:
    def _params(self, optimizer_cls, **kwargs):
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(0)
        params = [Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(2)]
        return params, optimizer_cls(params, **kwargs)

    def _run_steps(self, params, optimizer, steps, seed):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            for param in params:
                param.grad = rng.standard_normal(param.data.shape)
            optimizer.step()

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (Adam, {}),
        (SGD, {"momentum": 0.9}),
        (SGD, {}),
    ])
    def test_resume_matches_uninterrupted(self, optimizer_cls, kwargs):
        params_a, opt_a = self._params(optimizer_cls, **kwargs)
        self._run_steps(params_a, opt_a, 6, seed=1)

        params_b, opt_b = self._params(optimizer_cls, **kwargs)
        self._run_steps(params_b, opt_b, 3, seed=1)
        state = opt_b.state_dict()
        params_c, opt_c = self._params(optimizer_cls, **kwargs)
        for target, source in zip(params_c, params_b):
            target.data = source.data.copy()
        opt_c.load_state_dict(state)
        # Replay the same 6-step gradient stream, applying only steps 4-6.
        rng = np.random.default_rng(1)
        grads = [
            [rng.standard_normal(p.data.shape) for p in params_c] for _ in range(6)
        ]
        for step_grads in grads[3:]:
            for param, grad in zip(params_c, step_grads):
                param.grad = grad
            opt_c.step()
        for resumed, uninterrupted in zip(params_c, params_a):
            np.testing.assert_array_equal(resumed.data, uninterrupted.data)

    def test_wrong_type_rejected(self):
        _, adam = self._params(Adam)
        _, sgd = self._params(SGD)
        with pytest.raises(ValueError, match="produced by"):
            adam.load_state_dict(sgd.state_dict())

    def test_buffer_count_mismatch_rejected(self):
        _, adam = self._params(Adam)
        state = adam.state_dict()
        state["m"] = state["m"][:1]
        with pytest.raises(ValueError, match="buffers"):
            adam.load_state_dict(state)

    def test_buffer_shape_mismatch_rejected(self):
        _, adam = self._params(Adam)
        state = adam.state_dict()
        state["v"][0] = state["v"][0][:1]
        with pytest.raises(ValueError, match="shape mismatch"):
            adam.load_state_dict(state)


class TestModuleStateDict:
    def test_unexpected_keys_rejected(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        state = model.state_dict()
        state["phantom.weight"] = np.zeros((2, 2))
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_forward_caches_stay_out_of_state_dict(self, tiny_graph):
        # _last_mu is a requires-grad tensor after a training forward; it
        # must not leak into state_dict or the round trip breaks.
        model = build_model("vgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=1)
        state = model.state_dict()
        assert all(not name.startswith("_") for name in state)
        clone = build_model("vgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=1)
        clone.load_state_dict(state)


class TestSnapshot:
    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_capture_apply_round_trip(self, model_name, tiny_graph):
        model = build_model(model_name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        model.pretrain(tiny_graph, epochs=3)
        snapshot = Snapshot.capture(model, epoch=3, phase="pretrain")
        target = build_model(model_name, tiny_graph.num_features, tiny_graph.num_clusters, seed=9)
        snapshot.apply(target)
        np.testing.assert_array_equal(model.embed(tiny_graph), target.embed(tiny_graph))
        assert target.rng.bit_generator.state == model.rng.bit_generator.state

    def test_trained_dgae_snapshot_applies_to_fresh_model(self, pretrained_dgae, tiny_graph):
        model = pretrained_dgae
        snapshot = Snapshot.capture(model, phase="trained")
        assert "centers" in snapshot.params
        target = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=3)
        snapshot.apply(target)
        np.testing.assert_array_equal(
            model.centers.data, target.centers.data
        )
        emb = model.embed(tiny_graph)
        np.testing.assert_array_equal(
            model.predict_assignments(emb), target.predict_assignments(emb)
        )

    def test_validate_rejects_wrong_model_class(self, tiny_graph):
        gae = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        vgae = build_model("vgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        snapshot = Snapshot.capture(gae)
        with pytest.raises(SnapshotMismatchError, match="captured from"):
            snapshot.apply(vgae)

    def test_validate_rejects_shape_mismatch_without_mutation(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        snapshot = Snapshot.capture(model)
        name = next(iter(snapshot.params))
        snapshot.params[name] = snapshot.params[name][:1]
        target = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=5)
        before = target.state_dict()
        with pytest.raises(SnapshotMismatchError, match="shape mismatch"):
            snapshot.apply(target)
        after = target.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_apply_without_optimizer_state_rejected(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        snapshot = Snapshot.capture(model)
        optimizer = Adam(model.parameters())
        with pytest.raises(SnapshotMismatchError, match="no optimizer state"):
            snapshot.apply(model, optimizer=optimizer)

    def test_file_round_trip_and_schema_errors(self, tiny_graph, tmp_path):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        snapshot = Snapshot.capture(model, spec={"note": "test"}, epoch=7)
        path = str(tmp_path / "model.snap")
        snapshot.save(path)
        loaded = Snapshot.load(path)
        assert loaded.epoch == 7
        assert loaded.spec == {"note": "test"}
        assert loaded.schema_version == SCHEMA_VERSION
        for name, value in snapshot.params.items():
            np.testing.assert_array_equal(value, loaded.params[name])

        garbage = tmp_path / "garbage.snap"
        garbage.write_bytes(b"not a snapshot")
        with pytest.raises(ArtifactCorruptError, match="garbage.snap"):
            Snapshot.load(str(garbage))

        stale = snapshot.to_payload()
        stale["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SnapshotSchemaError, match="schema version"):
            Snapshot.from_payload(stale)
        with pytest.raises(SnapshotSchemaError, match="format tag"):
            Snapshot.from_payload({"anything": 1})

    @pytest.mark.parametrize("model_name", RESUME_MODELS)
    def test_resume_is_bitwise_identical(self, model_name, tiny_graph):
        """Pretraining k epochs, snapshotting, resuming k more == 2k straight."""
        total, half = 8, 4

        def fresh():
            model = build_model(
                model_name, tiny_graph.num_features, tiny_graph.num_clusters, seed=0
            )
            optimizer = Adam(model.parameters(), lr=model.learning_rate)
            return model, optimizer

        straight, straight_opt = fresh()
        straight.pretrain(tiny_graph, epochs=total, optimizer=straight_opt)

        first, first_opt = fresh()
        first.pretrain(tiny_graph, epochs=half, optimizer=first_opt)
        snapshot = Snapshot.capture(first, optimizer=first_opt, epoch=half)

        resumed, resumed_opt = fresh()
        snapshot.apply(resumed, optimizer=resumed_opt)
        resumed.pretrain(tiny_graph, epochs=total - half, optimizer=resumed_opt)

        diff = np.abs(straight.embed(tiny_graph) - resumed.embed(tiny_graph)).max()
        assert diff <= 1e-10
        np.testing.assert_array_equal(
            straight.embed(tiny_graph), resumed.embed(tiny_graph)
        )


class TestArtifactStore:
    def _snapshot(self, tiny_graph, seed=0):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=seed)
        return Snapshot.capture(model)

    def test_put_get_contains_manifest(self, tiny_graph, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = config_hash({"entry": 1})
        assert key not in store
        snapshot = self._snapshot(tiny_graph)
        store.put(key, snapshot)
        assert key in store
        assert store.keys() == [key]
        assert len(store) == 1
        loaded = store.get(key)
        for name, value in snapshot.params.items():
            np.testing.assert_array_equal(value, loaded.params[name])
        manifest = store.manifest(key)
        assert manifest["key"] == key
        assert manifest["model_class"] == "GAE"
        stats = store.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1 and stats["misses"] == 0

    def test_miss_raises_or_defaults(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = config_hash({"absent": True})
        assert store.get(key, default=None) is None
        with pytest.raises(ArtifactNotFoundError):
            store.get(key)
        with pytest.raises(ArtifactNotFoundError):
            store.manifest(key)
        assert store.stats()["misses"] == 2

    def test_rejects_non_hex_keys(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(StoreError, match="hex"):
            store.contains("../../etc/passwd")
        with pytest.raises(StoreError):
            store.contains("")

    def test_rejects_non_snapshot_values(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(StoreError, match="Snapshot"):
            store.put(config_hash({}), {"raw": "dict"})

    def test_delete_and_clear(self, tiny_graph, tmp_path):
        store = ArtifactStore(str(tmp_path))
        keys = [config_hash({"i": i}) for i in range(3)]
        for key in keys:
            store.put(key, self._snapshot(tiny_graph))
        assert store.delete(keys[0]) is True
        assert store.delete(keys[0]) is False
        assert store.clear() == 2
        assert store.keys() == []

    def test_root_is_required(self):
        with pytest.raises(StoreError, match="needs a root"):
            ArtifactStore(None)

    def test_active_store_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert active_store() is None
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        store = active_store()
        assert store is not None and store.root == str(tmp_path)


class TestWarmPretrain:
    def test_hit_is_bitwise_identical_to_cold(self, tiny_graph, tmp_path):
        store = ArtifactStore(str(tmp_path))

        def build():
            return build_model(
                "gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0
            )

        cold_model = build()
        cold_stats = warm_pretrain(cold_model, tiny_graph, 5, store=store)
        assert cold_stats["enabled"] and not cold_stats["hit"]

        warm_model = build()
        warm_stats = warm_pretrain(warm_model, tiny_graph, 5, store=store)
        assert warm_stats["hit"] and warm_stats["key"] == cold_stats["key"]
        np.testing.assert_array_equal(
            cold_model.embed(tiny_graph), warm_model.embed(tiny_graph)
        )
        assert cold_model.rng.bit_generator.state == warm_model.rng.bit_generator.state

    def test_no_store_means_plain_pretrain(self, tiny_graph, tmp_path, monkeypatch):
        # store=None pretrains cold even with the variable planted
        planted = tmp_path / "planted"
        monkeypatch.setenv(STORE_DIR_ENV, str(planted))
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        stats = warm_pretrain(model, tiny_graph, 2)
        assert stats == {
            "enabled": False, "hit": False, "key": None, "store": None,
            "seconds": stats["seconds"],
        }
        assert not planted.exists()
