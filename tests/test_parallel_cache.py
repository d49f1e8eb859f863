"""Tests for the worker-side dataset memoisation and the fixed
sparse-backend promotion thresholds.

The load-once guarantee is asserted two ways: in-process (a counting
dataset builder registered for the test is called exactly once across
repeated ``Pipeline.run`` calls) and across a process pool (every worker's
``dataset_cache`` counters — carried in ``RunResult.extra`` — report exactly
one miss for the shared dataset spec).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.api import Pipeline
from repro.core.rethink import RethinkConfig, RethinkTrainer
from repro.datasets.registry import DATASETS
from repro.models import build_model
from repro.parallel import (
    clear_dataset_cache,
    dataset_cache_info,
    load_dataset_cached,
    run_sweep,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


# ----------------------------------------------------------------------
# dataset cache unit behaviour
# ----------------------------------------------------------------------
class TestDatasetCache:
    def test_second_load_hits(self):
        first = load_dataset_cached("brazil_air_sim", seed=0)
        second = load_dataset_cached("brazil_air_sim", seed=0)
        assert first is second
        info = dataset_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_distinct_specs_never_alias(self):
        by_seed0 = load_dataset_cached("brazil_air_sim", seed=0)
        by_seed1 = load_dataset_cached("brazil_air_sim", seed=1)
        other = load_dataset_cached("europe_air_sim", seed=0)
        assert by_seed0 is not by_seed1 and by_seed0 is not other
        assert dataset_cache_info()["misses"] == 3

    def test_lru_eviction_respects_limit(self, monkeypatch):
        from repro.datasets import cache

        monkeypatch.setattr(cache, "DATASET_CACHE_SIZE", 2)
        load_dataset_cached("brazil_air_sim", seed=0)
        load_dataset_cached("brazil_air_sim", seed=1)
        load_dataset_cached("brazil_air_sim", seed=2)  # evicts seed 0
        assert dataset_cache_info()["size"] == 2
        load_dataset_cached("brazil_air_sim", seed=0)  # rebuilt
        assert dataset_cache_info()["misses"] == 4

    def test_builder_called_once_per_process(self):
        calls = {"count": 0}

        def counting_builder(seed: int = 0):
            calls["count"] += 1
            return DATASETS["brazil_air_sim"](seed)

        DATASETS.add("counting_ds_test", counting_builder)
        try:
            pipeline = (
                Pipeline()
                .dataset("counting_ds_test")
                .model("gae")
                .rethink(update_omega_every=2, update_graph_every=2)
                .training(pretrain_epochs=2, rethink_epochs=2)
            )
            pipeline.seed(0).run()
            pipeline.seed(1).run()
            pipeline.seed(2).run()
            assert calls["count"] == 1
        finally:
            DATASETS.unregister("counting_ds_test")


# ----------------------------------------------------------------------
# load-once guarantee across a process pool
# ----------------------------------------------------------------------
_CACHED_SPEC = {
    "dataset": "brazil_air_sim",
    "model": "gae",
    "variant": "rethink",
    "seed": 0,
    "training": {"pretrain_epochs": 2, "rethink_epochs": 2},
    "rethink": {"overrides": {"update_omega_every": 2, "update_graph_every": 2}},
}


class TestSingleTrialImports:
    def test_cache_is_one_object_under_both_names(self):
        from repro.datasets import cache

        assert cache.load_dataset_cached is load_dataset_cached
        assert cache.dataset_cache_info is dataset_cache_info

    def test_explicit_graph_trial_imports_no_pool_or_harness(self):
        """A single trial loads neither the process pool nor the harness."""
        script = textwrap.dedent(
            """
            import sys
            from repro.api import Pipeline
            from repro.graph.generators import attributed_sbm_graph

            graph = attributed_sbm_graph(
                num_nodes=60, proportions=[0.5, 0.5], p_intra=0.2, p_inter=0.02,
                num_features=12, active_per_class=4, signal=0.3, noise=0.02,
                seed=0, name="probe",
            )
            result = (
                Pipeline().graph(graph).model("gae").rethink().seed(0)
                .training(pretrain_epochs=2, rethink_epochs=3).run()
            )
            assert result.report is not None
            loaded = ("repro.parallel", "repro.experiments", "multiprocessing")
            print([name for name in loaded if name in sys.modules])
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"

    def test_pool_modules_load_with_the_first_pool(self, tmp_path):
        """Importing the pool's packages, a ``Pipeline.run`` and a ``repro-run``
        without ``--seeds`` load neither ``multiprocessing`` nor
        ``concurrent.futures``; a jobs=2 map loads both."""
        spec = tmp_path / "trial.json"
        spec.write_text(
            '{"dataset": "brazil_air_sim", "model": "gae", '
            '"training": {"pretrain_epochs": 2, "rethink_epochs": 2}}'
        )
        script = textwrap.dedent(
            f"""
            import sys
            import repro.parallel
            import repro.resilience
            from repro.api import Pipeline
            from repro.api.cli import main
            from repro.resilience import RetryPolicy, supervised_map

            assert repro.parallel.SweepOutcome is repro.resilience.SweepOutcome
            assert RetryPolicy().max_attempts == 1
            result = (
                Pipeline().dataset("brazil_air_sim").model("gae").rethink().seed(0)
                .training(pretrain_epochs=2, rethink_epochs=2).run()
            )
            assert result.report is not None
            assert main([{str(spec)!r}, "--json"]) == 0
            pool = ("multiprocessing", "concurrent.futures")
            print([name for name in pool if name in sys.modules])
            assert supervised_map(abs, [-1, 2], jobs=2).results == [1, 2]
            print([name for name in pool if name in sys.modules])
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        lines = out.stdout.strip().splitlines()
        assert lines[-2] == "[]"
        assert lines[-1] == "['multiprocessing', 'concurrent.futures']"

    def test_sampled_trials_leave_numpy_ma_unimported(self):
        """Plain ``np.unique`` / ``np.setdiff1d`` import ``numpy.ma`` on first
        use under numpy 2.4 (9–18 ms): no trial may call them, from building
        the graph out of unsorted CSR to the final report."""
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from repro.api import Pipeline
            from repro.graph import SparseAdjacency
            from repro.graph.generators import attributed_sbm_graph

            graph = attributed_sbm_graph(
                num_nodes=300, proportions=[0.5, 0.5], p_intra=0.05, p_inter=0.005,
                num_features=200, active_per_class=10, signal=0.1, noise=0.01,
                seed=0, name="probe",
            )
            a = graph.adjacency
            # Every row's entries reversed: AttributedGraph sorts them again.
            order = np.concatenate(
                [np.arange(a.indptr[i + 1] - 1, a.indptr[i] - 1, -1) for i in range(300)]
            )
            before = "numpy.ma" in sys.modules
            graph = graph.with_adjacency(
                SparseAdjacency(a.data[order], a.indices[order], a.indptr, a.shape)
            )
            for sampler in ("cluster", "neighbor"):
                result = (
                    Pipeline().graph(graph).model("gae").minibatch(sampler, batch_size=128)
                    .rethink().seed(0).training(pretrain_epochs=2, rethink_epochs=3).run()
                )
                assert result.report is not None
            print(before, "numpy.ma" in sys.modules)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "False False"


class TestWorkerSideCache:
    def test_pool_workers_load_dataset_once(self):
        results = run_sweep([dict(_CACHED_SPEC, seed=s) for s in [0, 1, 2, 3]], jobs=2).results
        by_pid = {}
        for result in results:
            info = result.extra["dataset_cache"]
            by_pid.setdefault(info["pid"], []).append(info)
        assert len(by_pid) >= 1
        for pid, infos in by_pid.items():
            # Workers run one spec over one dataset: exactly one miss each,
            # however many trials the pool handed to that worker.
            assert max(info["misses"] for info in infos) == 1, (pid, infos)
        trials_in_busiest = max(len(infos) for infos in by_pid.values())
        if trials_in_busiest > 1:
            busiest = max(by_pid.values(), key=len)
            assert max(info["hits"] for info in busiest) >= trials_in_busiest - 1

    def test_serial_run_trials_also_memoises(self):
        results = run_sweep([dict(_CACHED_SPEC, seed=s) for s in [0, 1, 2]], jobs=1).results
        final = results[-1].extra["dataset_cache"]
        assert final["misses"] == 1 and final["hits"] >= 2


# ----------------------------------------------------------------------
# clean error surfacing across the pool boundary
# ----------------------------------------------------------------------
class TestPoolErrorSurfacing:
    def test_registry_errors_pickle_round_trip(self):
        """Raised-in-worker errors must survive the pool's pickle round-trip
        (a failing round-trip turns a clean message into BrokenProcessPool)."""
        import pickle

        from repro.errors import UnknownEntryError, UnknownVariantError

        error = UnknownEntryError("dataset", "nope", ["a", "b"])
        restored = pickle.loads(pickle.dumps(error))
        assert str(restored) == str(error)
        assert (restored.kind, restored.name, restored.available) == (
            "dataset",
            "nope",
            ["a", "b"],
        )
        variant_error = pickle.loads(pickle.dumps(UnknownVariantError("weird")))
        assert str(variant_error) == str(UnknownVariantError("weird"))

    def test_cli_rejects_non_integer_seed_list(self, tmp_path, capsys):
        import json

        from repro.api.cli import main

        spec_path = tmp_path / "trial.json"
        spec_path.write_text(
            json.dumps({"dataset": "brazil_air_sim", "model": "gae", "seed": ["a"]})
        )
        assert main([str(spec_path)]) == 2
        assert "seed list" in capsys.readouterr().err


# ----------------------------------------------------------------------
# sparse promotion thresholds
# ----------------------------------------------------------------------
class TestSparseThresholds:
    def test_default_config_keeps_small_graph_dense(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = RethinkConfig(epochs=2, pretrain_epochs=1, stop_at_convergence=False)
        trainer = RethinkTrainer(model, config)
        trainer.fit(tiny_graph)
        assert isinstance(trainer.adj_norm_, np.ndarray)
