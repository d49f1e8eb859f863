"""Tests for the minibatch graph training subsystem.

Covers the CSR substrate operations (induced subgraphs, seeded neighbour
sampling), the METIS-free partitioner, the three loaders, the minibatch
training path of :class:`~repro.core.rethink.RethinkTrainer` — including
the acceptance-criteria guarantees: the default full-batch loop reproduces
the removed full-graph trainer's recorded outputs to 1e-10, and minibatch
runs are deterministic for equal seeds across ``jobs=1`` and ``jobs=4``
process pools.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.api import Pipeline
from repro.core.rethink import RethinkConfig, RethinkTrainer
from repro.errors import ConfigError, SpecError
from repro.graph.laplacian import normalize_adjacency
from repro.graph.sparse import SparseAdjacency
from repro.minibatch import (
    ClusterLoader,
    ClusterPartitioner,
    FullBatchLoader,
    NeighborLoader,
    build_loader,
)
from repro.graph.generators import attributed_sbm_graph
from repro.models import build_model
from repro.observability.tracer import tracing_session
from repro.parallel import run_sweep


def random_sparse(n: int, p: float, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < p).astype(float)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    return dense, SparseAdjacency.from_dense(dense)


# ----------------------------------------------------------------------
# CSR substrate: induced subgraphs and neighbour sampling
# ----------------------------------------------------------------------
class TestInducedSubgraph:
    def test_matches_dense_slicing(self, rng):
        dense, sparse = random_sparse(70, 0.1, 3)
        nodes = rng.permutation(70)[:25]  # deliberately unsorted
        block = sparse.induced_subgraph(nodes)
        assert np.array_equal(block.to_dense(), dense[np.ix_(nodes, nodes)])

    def test_identity_and_empty(self):
        dense, sparse = random_sparse(30, 0.15, 1)
        assert np.array_equal(
            sparse.induced_subgraph(np.arange(30)).to_dense(), dense
        )
        empty = sparse.induced_subgraph(np.array([], dtype=np.int64))
        assert empty.shape == (0, 0) and empty.nnz == 0

    def test_rejects_bad_indices(self):
        _, sparse = random_sparse(20, 0.2, 0)
        with pytest.raises(ValueError):
            sparse.induced_subgraph(np.array([0, 20]))
        with pytest.raises(ValueError):
            sparse.induced_subgraph(np.array([1, 1, 2]))


class TestSampleNeighbors:
    def test_deterministic_for_equal_rng(self):
        _, sparse = random_sparse(50, 0.2, 2)
        seeds = np.array([0, 7, 13, 21])
        first = sparse.sample_neighbors(seeds, 3, np.random.default_rng(9))
        second = sparse.sample_neighbors(seeds, 3, np.random.default_rng(9))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_fanout_and_edge_validity(self):
        dense, sparse = random_sparse(50, 0.2, 2)
        seeds = np.array([0, 7, 13, 21])
        src, dst = sparse.sample_neighbors(seeds, 3, np.random.default_rng(0))
        for seed in seeds:
            picked = dst[src == seed]
            assert picked.shape[0] == min(3, int(dense[seed].sum()))
            assert np.unique(picked).shape[0] == picked.shape[0]
            assert all(dense[seed, t] == 1.0 for t in picked)

    def test_large_fanout_keeps_all_neighbours(self):
        dense, sparse = random_sparse(40, 0.2, 4)
        seeds = np.arange(10)
        src, dst = sparse.sample_neighbors(seeds, 10_000, np.random.default_rng(0))
        assert src.shape[0] == int(dense[seeds].sum())

    def test_rejects_bad_arguments(self):
        _, sparse = random_sparse(20, 0.2, 0)
        with pytest.raises(ValueError):
            sparse.sample_neighbors(np.array([0]), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sparse.sample_neighbors(np.array([25]), 2, np.random.default_rng(0))


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
class TestClusterPartitioner:
    def test_parts_cover_all_nodes_once(self, tiny_graph):
        partition = ClusterPartitioner(4, seed=0).partition(tiny_graph.adjacency)
        ids = np.concatenate(partition.parts)
        assert ids.shape[0] == tiny_graph.num_nodes
        assert np.unique(ids).shape[0] == tiny_graph.num_nodes
        assert partition.num_parts == 4
        assert max(partition.sizes()) <= -(-tiny_graph.num_nodes // 4)
        assert 0.0 <= partition.edge_cut_fraction <= 1.0

    def test_deterministic_per_seed(self, tiny_graph):
        first = ClusterPartitioner(3, seed=5).partition(tiny_graph.adjacency)
        second = ClusterPartitioner(3, seed=5).partition(tiny_graph.adjacency)
        assert all(np.array_equal(a, b) for a, b in zip(first.parts, second.parts))

    def test_part_of_inverts_parts(self, tiny_graph):
        partition = ClusterPartitioner(3, seed=1).partition(tiny_graph.adjacency)
        assignment = partition.part_of()
        for index, part in enumerate(partition.parts):
            assert np.all(assignment[part] == index)

    def test_more_parts_than_nodes_clamps(self):
        _, sparse = random_sparse(5, 0.5, 0)
        partition = ClusterPartitioner(10, seed=0).partition(sparse)
        assert partition.num_parts <= 5
        assert sum(partition.sizes()) == 5

    def test_bfs_beats_random_split_on_edge_cut(self):
        # Two well-separated communities: BFS growth should keep most edges
        # inside parts, unlike an arbitrary node split.
        graph = attributed_sbm_graph(
            num_nodes=80,
            proportions=[0.5, 0.5],
            p_intra=0.25,
            p_inter=0.02,
            num_features=20,
            active_per_class=5,
            signal=0.4,
            noise=0.02,
            seed=2,
            name="two_blocks",
        )
        partition = ClusterPartitioner(2, seed=0).partition(graph.adjacency)
        assert partition.edge_cut_fraction < 0.5


# ----------------------------------------------------------------------
# loaders
# ----------------------------------------------------------------------
class TestFullBatchLoader:
    def test_single_batch_equals_prepare_inputs(self, tiny_graph):
        loader = FullBatchLoader(tiny_graph)
        assert loader.batches_per_epoch == 1
        (batch,) = list(loader.epoch_batches(0))
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters)
        features, adj_norm = model.prepare_inputs(tiny_graph)
        assert np.array_equal(batch.features, features)
        assert np.array_equal(np.asarray(batch.adj_norm), np.asarray(adj_norm))
        assert np.array_equal(batch.node_ids, np.arange(tiny_graph.num_nodes))


class TestClusterLoader:
    def test_epoch_covers_all_nodes_once(self, tiny_graph):
        loader = ClusterLoader(tiny_graph, batch_size=32, seed=3)
        batches = list(loader.epoch_batches(0))
        ids = np.concatenate([batch.node_ids for batch in batches])
        assert np.unique(ids).shape[0] == tiny_graph.num_nodes == ids.shape[0]

    def test_identical_sequences_for_equal_seeds(self, tiny_graph):
        first = ClusterLoader(tiny_graph, batch_size=32, seed=3)
        second = ClusterLoader(tiny_graph, batch_size=32, seed=3)
        for epoch in (0, 1, 5):
            a = [tuple(b.node_ids) for b in first.epoch_batches(epoch)]
            b = [tuple(b.node_ids) for b in second.epoch_batches(epoch)]
            assert a == b

    def test_epochs_reshuffle_batch_order(self, tiny_graph):
        loader = ClusterLoader(tiny_graph, batch_size=16, seed=3)
        orders = {
            tuple(tuple(b.node_ids) for b in loader.epoch_batches(epoch))
            for epoch in range(6)
        }
        assert len(orders) > 1  # some epoch permutes differently

    def test_batch_carries_renumbered_normalised_block(self, tiny_graph):
        loader = ClusterLoader(tiny_graph, batch_size=32, seed=0)
        batch = next(loader.epoch_batches(0))
        ids = batch.node_ids
        dense = tiny_graph.adjacency.to_dense()
        expected = normalize_adjacency(dense[np.ix_(ids, ids)], self_loops=True)
        assert np.allclose(batch.adj_norm.to_dense(), expected)
        assert np.array_equal(batch.features, tiny_graph.row_normalized_features()[ids])


class TestNeighborLoader:
    def test_seeds_cover_all_nodes_once(self, tiny_graph):
        loader = NeighborLoader(tiny_graph, batch_size=24, fanout=4, seed=1)
        batches = list(loader.epoch_batches(0))
        seeds = np.concatenate([batch.seed_ids for batch in batches])
        assert np.unique(seeds).shape[0] == tiny_graph.num_nodes == seeds.shape[0]

    def test_seeds_prefix_block_and_unique_nodes(self, tiny_graph):
        loader = NeighborLoader(tiny_graph, batch_size=24, fanout=4, seed=1)
        for batch in loader.epoch_batches(0):
            assert np.array_equal(batch.node_ids[: batch.num_seeds], batch.seed_ids)
            assert np.unique(batch.node_ids).shape[0] == batch.num_nodes
            assert batch.num_nodes >= batch.num_seeds

    def test_identical_sequences_for_equal_seeds(self, tiny_graph):
        make = lambda: NeighborLoader(tiny_graph, batch_size=24, fanout=4, seed=9)
        a = [tuple(b.node_ids) for b in make().epoch_batches(2)]
        b = [tuple(b.node_ids) for b in make().epoch_batches(2)]
        assert a == b

    def test_local_indices_of_maps_global_mask(self, tiny_graph):
        loader = NeighborLoader(tiny_graph, batch_size=24, fanout=4, seed=1)
        batch = next(loader.epoch_batches(0))
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[batch.node_ids[::2]] = True
        local = batch.local_indices_of(mask)
        assert np.array_equal(batch.node_ids[local], batch.node_ids[::2])


class TestBuildLoader:
    def test_dispatch(self, tiny_graph):
        assert isinstance(build_loader("full", tiny_graph), FullBatchLoader)
        assert isinstance(build_loader("neighbor", tiny_graph), NeighborLoader)
        assert isinstance(build_loader("cluster", tiny_graph), ClusterLoader)
        with pytest.raises(ValueError):
            build_loader("metis", tiny_graph)

    def test_default_batch_size(self, tiny_graph):
        loader = build_loader("cluster", tiny_graph)
        assert loader.batches_per_epoch == 1  # 90 nodes < default 256


# ----------------------------------------------------------------------
# trainer integration
# ----------------------------------------------------------------------
def _fit(model_name, dataset_graph, sampler, seed=0, epochs=6, callbacks=None, **overrides):
    model = build_model(
        model_name, dataset_graph.num_features, dataset_graph.num_clusters, seed=seed
    )
    config = RethinkConfig(
        epochs=epochs,
        pretrain_epochs=4,
        update_omega_every=2,
        update_graph_every=3,
        stop_at_convergence=False,
        sampler=sampler,
        **overrides,
    )
    trainer = RethinkTrainer(model, config, callbacks=callbacks)
    return trainer, trainer.fit(dataset_graph)


@pytest.fixture(scope="module")
def cora_graph():
    from repro.datasets import load_dataset

    return load_dataset("cora_sim", seed=0)


def _assert_matches_recorded(history, reference):
    for key in ("losses", "reconstruction_losses", "clustering_losses"):
        np.testing.assert_allclose(
            getattr(history, key), reference[key], atol=1e-10, rtol=0.0, err_msg=key
        )
    assert history.omega_sizes == reference["omega_sizes"]
    assert history.final_report.as_dict() == reference["final_report"]


class TestFullBatchEquivalence:
    """Acceptance criterion: the default whole-graph loop reproduces the
    removed full-graph loop (pinned in ``tests/data``) to 1e-10."""

    @pytest.mark.parametrize(
        "model_name", ["gae", "vgae", "argae", "arvgae", "dgae", "gmm_vgae"]
    )
    def test_matches_legacy_trainer(self, tiny_graph, model_name, legacy_loops):
        _, history = _fit(model_name, tiny_graph, sampler="full")
        _assert_matches_recorded(
            history, legacy_loops["rethink"][f"tiny/{model_name}/legacy"]
        )

    def test_matches_legacy_on_promoted_sparse_graph(self, cora_graph, legacy_loops):
        """cora_sim crosses the CSR promotion threshold: the whole-graph
        loader runs Υ on the CSR adjacency and matches the legacy loop, which
        ran it on the dense one."""
        for model_name in ("gae", "dgae", "gmm_vgae"):
            trainer, history = _fit(model_name, cora_graph, sampler="full", epochs=4)
            assert isinstance(trainer.self_supervision_graph_, SparseAdjacency)
            _assert_matches_recorded(
                history, legacy_loops["rethink"][f"cora_sim/{model_name}/legacy"]
            )

    def test_default_sampler_is_the_whole_graph(self, tiny_graph):
        assert RethinkConfig().sampler == "full"
        trainer, _ = _fit("gae", tiny_graph, sampler="full", epochs=1)
        assert isinstance(trainer.loader_, FullBatchLoader)
        # the whole-graph batch shares the trainer's prepared inputs
        batch = next(trainer.loader_.epoch_batches(0))
        assert batch.features is trainer.features_ and batch.adj_norm is trainer.adj_norm_

    @pytest.mark.parametrize("model_name", ["gae", "dgae", "gmm_vgae"])
    @pytest.mark.parametrize("sampler", ["cluster", "neighbor"])
    def test_sampled_loaders_match_recorded_outputs(
        self, tiny_graph, model_name, sampler, legacy_loops
    ):
        _, history = _fit(model_name, tiny_graph, sampler=sampler, batch_size=32, fanout=4)
        _assert_matches_recorded(
            history, legacy_loops["rethink"][f"tiny/{model_name}/{sampler}"]
        )

    def test_cluster_loader_on_promoted_graph_matches_recorded_outputs(
        self, cora_graph, legacy_loops
    ):
        trainer, history = _fit("dgae", cora_graph, sampler="cluster", epochs=4)
        assert isinstance(trainer.self_supervision_graph_, SparseAdjacency)
        _assert_matches_recorded(
            history, legacy_loops["rethink"]["cora_sim/dgae/cluster"]
        )


class TestMinibatchTraining:
    @pytest.mark.parametrize("model_name", ["gae", "dgae", "gmm_vgae"])
    @pytest.mark.parametrize("sampler", ["cluster", "neighbor"])
    def test_trains_and_reports(self, tiny_graph, model_name, sampler):
        trainer, history = _fit(
            model_name, tiny_graph, sampler=sampler, batch_size=32, fanout=4
        )
        assert history.epochs_run == len(history.losses) > 0
        assert history.final_report is not None
        assert trainer.loader_ is not None and trainer.loader_.batches_per_epoch >= 2
        assert all(np.isfinite(history.losses))

    def test_deterministic_repeat(self, tiny_graph):
        _, first = _fit("gae", tiny_graph, sampler="cluster", batch_size=32)
        _, second = _fit("gae", tiny_graph, sampler="cluster", batch_size=32)
        assert first.losses == second.losses

    def test_callbacks_fire_on_minibatch_path(self, tiny_graph):
        from repro.api.callbacks import LambdaCallback

        events = {"omega": 0, "graph": 0, "epochs": 0}
        callbacks = [
            LambdaCallback(
                on_omega_update=lambda epoch, sampling: events.__setitem__(
                    "omega", events["omega"] + 1
                ),
                on_graph_transform=lambda epoch, matrix: events.__setitem__(
                    "graph", events["graph"] + 1
                ),
                on_epoch_end=lambda epoch, logs: events.__setitem__(
                    "epochs", events["epochs"] + 1
                ),
            )
        ]
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        config = RethinkConfig(
            epochs=4,
            pretrain_epochs=2,
            update_omega_every=2,
            update_graph_every=2,
            stop_at_convergence=False,
            sampler="cluster",
            batch_size=32,
        )
        RethinkTrainer(model, config, callbacks=callbacks).fit(tiny_graph)
        assert events == {"omega": 2, "graph": 2, "epochs": 4}


def _count_spans(roots, name: str) -> int:
    return sum(
        (root["name"] == name) + _count_spans(root.get("children", []), name) for root in roots
    )


class TestReconstructionTargetCache:
    """Each reconstruction target is prepared once per graph and batch."""

    def test_traced_fit_prepares_once_per_batch_and_graph(self, tiny_graph):
        with tracing_session(enabled=True) as tracer:
            trainer, history = _fit("gae", tiny_graph, sampler="cluster", batch_size=32)
        batches = trainer.loader_.batches_per_epoch
        assert batches == 3 and history.epochs_run == 6
        # Pretraining, plus the Υ graphs of epochs 0 and 3 (the graph built
        # before the loop is replaced before any step uses it): 7 builds
        # for 4 + 18 steps.
        builds = _count_spans(tracer.export(), "kernel.reconstruction_target")
        assert builds == 1 + 2 * batches

    @pytest.mark.parametrize("method", ["pretrain", "fit_clustering"])
    @pytest.mark.parametrize("epochs, builds", [(0, 0), (3, 1)])
    def test_model_loops_prepare_once_per_call(self, tiny_graph, method, epochs, builds):
        model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        with tracing_session(enabled=True) as tracer:
            getattr(model, method)(tiny_graph, epochs=epochs)
        assert _count_spans(tracer.export(), "kernel.reconstruction_target") == builds

    def test_neighbor_batches_take_their_targets_with_them(self, tiny_graph, monkeypatch):
        from repro.api.callbacks import LambdaCallback

        yielded = {}
        epoch_batches = NeighborLoader.epoch_batches

        def recording(loader, epoch):
            for batch in epoch_batches(loader, epoch):
                yield batch
                # The trainer has taken its step on the batch.
                cached = batch.reconstruction_target is not None
                yielded.setdefault(epoch, []).append((weakref.ref(batch), cached))

        alive = []

        def on_epoch_end(epoch, logs):
            if epoch == 1:
                alive.extend(ref() is not None for ref, _ in yielded[0])

        monkeypatch.setattr(NeighborLoader, "epoch_batches", recording)
        _fit(
            "gae", tiny_graph, sampler="neighbor", epochs=2, batch_size=32, fanout=4,
            callbacks=[LambdaCallback(on_epoch_end=on_epoch_end)],
        )
        assert len(yielded[0]) == 3 and all(cached for _, cached in yielded[0])
        assert alive == [False, False, False]


class TestTrackingCallbacksOnPromotedGraph:
    """Υ keeps A_self_clus in CSR under every loader; Λ_FD and the link
    bookkeeping read it in CSR, and graph snapshots stay dense arrays."""

    @pytest.mark.parametrize("sampler", ["full", "cluster"])
    @pytest.mark.parametrize(
        "callback",
        [{"name": "fr_fd", "track_fr": False}, "dynamics", {"name": "graph_snapshots", "every": 1}],
        ids=["fd", "dynamics", "snapshots"],
    )
    def test_callbacks_get_dense_graphs(self, cora_graph, sampler, callback):
        trainer, history = _fit(
            "dgae", cora_graph, sampler=sampler, epochs=2, evaluate_every=1, callbacks=[callback]
        )
        n = cora_graph.num_nodes
        name = callback if isinstance(callback, str) else callback["name"]
        if name == "fr_fd":
            assert len(history.fd_rethought) == 2 and all(np.isfinite(history.fd_rethought))
            assert history.fr_rethought == []
        if name == "dynamics":
            assert len(history.link_stats) == 2 and len(history.accuracy_all) == 2
        if name == "graph_snapshots":
            assert sorted(history.graph_snapshots) == [0, 1]
            for snapshot in history.graph_snapshots.values():
                assert isinstance(snapshot, np.ndarray) and snapshot.shape == (n, n)
            final = trainer.self_supervision_graph_
            if isinstance(final, SparseAdjacency):
                final = final.to_dense()
            assert np.array_equal(history.graph_snapshots[1], final)


class TestMemoryGuard:
    def test_cluster_epoch_never_holds_a_dense_adjacency(self):
        """Building a 3000-node graph and running a cluster-loader R- epoch
        must peak below one dense (N, N) float64 array: the graph, Υ, the
        loader and the reconstruction targets stay CSR, and only each
        batch's (B, B) logits are dense."""
        import tracemalloc

        num_nodes = 3000
        tracemalloc.start()
        try:
            graph = attributed_sbm_graph(
                num_nodes=num_nodes,
                proportions=[1.0 / 7.0] * 7,
                p_intra=0.05,
                p_inter=0.0026,
                num_features=64,
                active_per_class=8,
                signal=0.10,
                noise=0.010,
                seed=0,
                name="sbm3000",
            )
            model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
            config = RethinkConfig(
                epochs=1,
                pretrain_epochs=0,
                sampler="cluster",
                batch_size=256,
                stop_at_convergence=False,
            )
            history = RethinkTrainer(model, config).fit(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert history.epochs_run == 1
        assert peak < num_nodes * num_nodes * 8

    @pytest.mark.slow
    def test_whole_graph_epoch_on_ten_thousand_nodes(self):
        """A whole-graph R- epoch on a 10⁴-node SBM (~30 neighbours per
        node) peaks below 128 MiB traced.  One dense (N, N) float64 array
        would be 763 MiB: the reconstruction loss walks Z Zᵀ in tiles."""
        import tracemalloc

        graph = attributed_sbm_graph(
            num_nodes=10_000,
            proportions=[1.0 / 7.0] * 7,
            p_intra=0.015,
            p_inter=0.001,
            num_features=64,
            active_per_class=8,
            signal=0.10,
            noise=0.010,
            seed=0,
            name="sbm10000",
        )
        model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
        config = RethinkConfig(epochs=1, pretrain_epochs=0, stop_at_convergence=False)
        tracemalloc.start()
        try:
            history = RethinkTrainer(model, config).fit(graph, pretrained=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert history.epochs_run == 1
        assert peak < 128 * 2**20


class TestConfigValidation:
    def test_rejects_unknown_sampler(self):
        with pytest.raises(ConfigError):
            RethinkConfig(sampler="metis").validate()
        with pytest.raises(ConfigError, match="full, neighbor, cluster"):
            RethinkConfig(sampler=None).validate()

    def test_rejects_bad_batch_and_fanout(self):
        with pytest.raises(ConfigError):
            RethinkConfig(sampler="cluster", batch_size=0).validate()
        with pytest.raises(ConfigError):
            RethinkConfig(fanout=0).validate()
        with pytest.raises(ConfigError):
            RethinkConfig(num_hops=0).validate()

    def test_sampler_flows_through_spec_roundtrip(self):
        spec = (
            Pipeline()
            .dataset("brazil_air_sim")
            .model("gae")
            .minibatch(sampler="cluster", batch_size=48)
            .spec()
        )
        rebuilt = Pipeline.from_spec(spec.to_json()).spec()
        assert rebuilt.rethink.overrides["sampler"] == "cluster"
        assert rebuilt.rethink.overrides["batch_size"] == 48

    def test_spec_rejects_unknown_override(self):
        with pytest.raises(SpecError):
            Pipeline.from_spec(
                {
                    "dataset": "brazil_air_sim",
                    "model": "gae",
                    "rethink": {"overrides": {"samplerr": "cluster"}},
                }
            )


# ----------------------------------------------------------------------
# cross-process determinism (acceptance criterion)
# ----------------------------------------------------------------------
_MINIBATCH_SPEC = {
    "dataset": "brazil_air_sim",
    "model": "gae",
    "variant": "rethink",
    "seed": 0,
    "training": {"pretrain_epochs": 3, "rethink_epochs": 4},
    "rethink": {
        "overrides": {
            "update_omega_every": 2,
            "update_graph_every": 2,
            "sampler": "cluster",
            "batch_size": 48,
            "stop_at_convergence": False,
        }
    },
}


class TestJobsDeterminism:
    def test_jobs4_bitwise_equals_jobs1_with_sampler(self):
        seeds = [0, 1, 2, 3]
        serial = run_sweep([dict(_MINIBATCH_SPEC, seed=s) for s in seeds], jobs=1).results
        pooled = run_sweep([dict(_MINIBATCH_SPEC, seed=s) for s in seeds], jobs=4).results

        def strip(result):
            summary = result.summary()
            summary.pop("runtime_seconds", None)
            return summary

        assert [strip(r) for r in serial] == [strip(r) for r in pooled]


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCliMinibatchFlags:
    def test_print_spec_overlays_flags(self, tmp_path, capsys):
        import json

        from repro.api.cli import main

        spec_path = tmp_path / "trial.json"
        spec_path.write_text(json.dumps(_MINIBATCH_SPEC))
        assert (
            main(
                [
                    str(spec_path),
                    "--print-spec",
                    "--sampler",
                    "neighbor",
                    "--batch-size",
                    "64",
                    "--fanout",
                    "5",
                    "--num-hops",
                    "3",
                ]
            )
            == 0
        )
        printed = json.loads(capsys.readouterr().out)
        overrides = printed["rethink"]["overrides"]
        assert overrides["sampler"] == "neighbor"
        assert overrides["batch_size"] == 64
        assert overrides["fanout"] == 5
        assert overrides["num_hops"] == 3

    def test_batch_flags_require_a_sampler(self, tmp_path, capsys):
        import json

        from repro.api.cli import main

        spec = {"dataset": "brazil_air_sim", "model": "gae"}
        spec_path = tmp_path / "trial.json"
        spec_path.write_text(json.dumps(spec))
        assert main([str(spec_path), "--batch-size", "64"]) == 2
        assert "sampler" in capsys.readouterr().err
