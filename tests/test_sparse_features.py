"""Tests for CSR input features (repro.graph.sparse.feature_matrix).

The first GCN layer multiplies bag-of-words features, which are ~98 % zeros
on the citation graphs.  On large graphs with sparse features they are an
(N, F) ``SparseAdjacency`` and ``X W`` runs through ``spmm``; everything
else keeps the dense array.  This file pins the rectangular CSR matrix
against dense references, the format rule, the agreement of all six models
between the two formats on ``cora_sim``, the minibatch blocks cut from
CSR features, and that graphs hold their features in that format from the
generator on (memory guard, registry formats, CSR row norms and edits).
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from repro.baselines import build_baseline
from repro.datasets import available_datasets, load_dataset, row_normalize
from repro.graph import (
    AttributedGraph,
    SparseAdjacency,
    add_feature_noise,
    drop_random_features,
    feature_matrix,
    planted_partition_features,
)
from repro.graph.sparse import FEATURE_DENSITY_THRESHOLD, ROW_BLOCK, SPARSE_NODE_THRESHOLD
from repro.minibatch import ClusterLoader, FullBatchLoader, NeighborLoader
from repro.models import GAEClusteringModel, build_model, reconstruction_target
from repro.nn import GraphConvolution
from repro.observability.tracer import tracing_session
from test_graph_sparse import _reference_spmm

MODEL_NAMES = ["gae", "vgae", "argae", "arvgae", "dgae", "gmm_vgae"]


def random_features(rng, n, f, density):
    """(n, f) non-negative features with about ``density`` of them non-zero."""
    return (rng.random((n, f)) < density) * rng.random((n, f))


def sparse_feature_graph(rng, n=300, f=120, density=0.015):
    """A ≥ 256-node graph whose features go CSR."""
    upper = np.triu(rng.random((n, n)) < 0.02, 1)
    labels = rng.integers(0, 3, n)
    return AttributedGraph(
        (upper | upper.T).astype(float), random_features(rng, n, f, density), labels
    )


@pytest.fixture(scope="module")
def cora_graph():
    return load_dataset("cora_sim", seed=0)


class TestRectangularMatrix:
    @pytest.fixture
    def dense(self, rng):
        dense = random_features(rng, 40, 25, 0.2)
        dense[3] = 0.0  # an empty row
        return dense

    def test_construction_round_trip(self, dense):
        matrix = SparseAdjacency.from_matrix(dense)
        assert matrix.shape == (40, 25)
        assert matrix.nnz == np.count_nonzero(dense)
        assert matrix.density == np.count_nonzero(dense) / dense.size
        np.testing.assert_array_equal(matrix.to_dense(), dense)
        np.testing.assert_allclose(matrix.out_degrees(), dense.sum(axis=1), rtol=1e-14)
        np.testing.assert_allclose(matrix.in_degrees(), dense.sum(axis=0), rtol=1e-14)

    def test_transpose(self, dense):
        matrix = SparseAdjacency.from_matrix(dense)
        transposed = matrix.transpose()
        assert transposed.shape == (25, 40)
        np.testing.assert_array_equal(transposed.to_dense(), dense.T)
        assert transposed.T is matrix

    def test_matmul_both_ways(self, dense, rng):
        matrix = SparseAdjacency.from_matrix(dense)
        w = rng.standard_normal((25, 7))
        g = rng.standard_normal((40, 7))
        np.testing.assert_allclose(matrix.matmul(w), dense @ w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(matrix.T.matmul(g), dense.T @ g, rtol=0, atol=1e-12)
        for operand, right in ((matrix, w), (matrix.T, g)):
            assert operand.matmul(right).tobytes() == _reference_spmm(operand, right).tobytes()
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix.matmul(g)

    @pytest.mark.parametrize(
        "rows", [[5, 0, 39, 3], [7, 7, 2], list(range(40)), []], ids=["some", "repeated", "all", "none"]
    )
    def test_row_gather_matches_dense_rows(self, dense, rows):
        rows = np.array(rows, dtype=np.int64)
        block = SparseAdjacency.from_matrix(dense)[rows]
        assert block.shape == (rows.shape[0], 25)
        np.testing.assert_array_equal(block.to_dense(), dense[rows])

    def test_row_gather_rejects_bad_indices(self, dense):
        matrix = SparseAdjacency.from_matrix(dense)
        with pytest.raises(ValueError, match="out of range"):
            matrix[np.array([0, 40])]
        with pytest.raises(ValueError, match="out of range"):
            matrix[np.array([-1])]
        with pytest.raises(ValueError, match="1-D"):
            matrix[np.array([[0, 1]])]

    def test_square_only_methods_raise(self, dense, rng):
        matrix = SparseAdjacency.from_matrix(dense)
        calls = {
            "num_nodes": lambda: matrix.num_nodes,
            "add_self_loops": matrix.add_self_loops,
            "normalize": matrix.normalize,
            "normalize without self loops": lambda: matrix.normalize(self_loops=False),
            "induced_subgraph": lambda: matrix.induced_subgraph(np.arange(3)),
            "sample_neighbors": lambda: matrix.sample_neighbors(np.arange(3), 2, rng),
            "quadratic_form_cross_term": lambda: matrix.quadratic_form_cross_term(
                rng.standard_normal((40, 2))
            ),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="square"):
                call()
        with pytest.raises(ValueError, match="square"):
            SparseAdjacency.from_dense(dense)

    def test_gcn_layer_on_csr_features(self, dense, rng):
        """Forward, weight gradient and the traced kernels of a CSR input."""
        upper = np.triu(rng.random((40, 40)) < 0.1, 1)
        adj_norm = SparseAdjacency.from_dense((upper | upper.T) * 1.0).normalize()
        matrix = SparseAdjacency.from_matrix(dense)
        layers = [GraphConvolution(25, 6, rng=np.random.default_rng(1)) for _ in range(2)]
        with tracing_session(enabled=True) as tracer:
            out_csr = layers[0](matrix, adj_norm)
            (out_csr * out_csr).sum().backward()
        out_dense = layers[1](dense, adj_norm)
        (out_dense * out_dense).sum().backward()
        np.testing.assert_allclose(out_csr.data, out_dense.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layers[0].weight.grad, layers[1].weight.grad, rtol=0, atol=1e-12)
        # X W and A (X W) forward, then Aᵀ G and Xᵀ G backward.
        assert [root["name"] for root in tracer.export()] == ["kernel.spmm"] * 4


class TestFeatureFormatRule:
    def test_large_graph_with_sparse_features_goes_csr(self, rng):
        graph = sparse_feature_graph(rng)
        features, _ = GAEClusteringModel.prepare_inputs(graph)
        assert isinstance(features, SparseAdjacency)
        dense = row_normalize(graph.features.to_dense())
        assert features.to_dense().tobytes() == dense.tobytes()

    @pytest.mark.parametrize("name", ["tiny", "brazil_air_sim"])
    def test_small_graphs_keep_the_dense_array(self, name, tiny_graph):
        graph = tiny_graph if name == "tiny" else load_dataset(name, seed=0)
        assert graph.num_nodes < SPARSE_NODE_THRESHOLD
        features, _ = GAEClusteringModel.prepare_inputs(graph)
        assert isinstance(features, np.ndarray)
        assert features.tobytes() == graph.row_normalized_features().tobytes()

    def test_noisy_features_stay_dense(self, rng, cora_graph):
        noisy = add_feature_noise(cora_graph, 0.01, rng)
        assert isinstance(GAEClusteringModel.prepare_inputs(noisy)[0], np.ndarray)
        assert isinstance(GAEClusteringModel.prepare_inputs(cora_graph)[0], SparseAdjacency)

    def test_thresholds_are_inclusive(self, rng):
        n, f = SPARSE_NODE_THRESHOLD, 100
        limit = int(FEATURE_DENSITY_THRESHOLD * n * f)
        features = np.zeros((n, f))
        features.flat[rng.choice(n * f, limit, replace=False)] = 1.0
        assert isinstance(feature_matrix(features), SparseAdjacency)
        features.flat[np.flatnonzero(features == 0.0)[0]] = 1.0
        assert isinstance(feature_matrix(features), np.ndarray)
        assert isinstance(feature_matrix(features[: n - 1] * 0.0), np.ndarray)

    def test_denser_features_stay_dense(self, rng):
        graph = sparse_feature_graph(rng, density=0.05)
        features = feature_matrix(graph.row_normalized_features())
        assert isinstance(features, np.ndarray)

    @pytest.mark.parametrize("density", [0.015, 0.05])
    def test_full_batch_loader_matches_prepare_inputs(self, rng, density):
        graph = sparse_feature_graph(rng, density=density)
        expected, adj_norm = GAEClusteringModel.prepare_inputs(graph)
        batch = next(FullBatchLoader(graph).epoch_batches(0))
        assert type(batch.features) is type(expected)
        assert type(batch.adj_norm) is type(adj_norm)
        if isinstance(expected, SparseAdjacency):
            for name in ("data", "indices", "indptr"):
                assert getattr(batch.features, name).tobytes() == getattr(expected, name).tobytes()
        else:
            assert batch.features.tobytes() == expected.tobytes()


def _step(model, features, adj_norm, target):
    """One training-step forward and backward on a copy of ``model``."""
    model = copy.deepcopy(model)
    z = model.encode(features, adj_norm)
    losses = model.training_losses(z, target, model.clustering_target(), gamma=model.gamma)
    losses["loss"].backward()
    grads = {name: param.grad for name, param in model.named_parameters().items()}
    return z.data, losses["loss"].item(), grads


class TestModelsAgreeAcrossFormats:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_encoder_loss_and_gradients(self, name, cora_graph):
        features, adj_norm = GAEClusteringModel.prepare_inputs(cora_graph)
        assert isinstance(features, SparseAdjacency)
        dense = features.to_dense()
        model = build_model(name, cora_graph.num_features, cora_graph.num_clusters, seed=0)
        model.init_clustering(model.embed_inputs(dense, adj_norm))
        target = reconstruction_target(cora_graph.adjacency)
        z_csr, loss_csr, grads_csr = _step(model, features, adj_norm, target)
        z_dense, loss_dense, grads_dense = _step(model, dense, adj_norm, target)
        np.testing.assert_allclose(z_csr, z_dense, rtol=0, atol=1e-12)
        assert abs(loss_csr - loss_dense) <= 1e-12
        assert grads_csr.keys() == grads_dense.keys()
        assert any(grad is not None for grad in grads_csr.values())
        for key, grad in grads_csr.items():
            if grad is None:
                assert grads_dense[key] is None, key
            else:
                np.testing.assert_allclose(grad, grads_dense[key], rtol=0, atol=1e-12, err_msg=key)


class TestBlocksOfCsrFeatures:
    @pytest.mark.parametrize(
        "make",
        [
            lambda graph, features: ClusterLoader(graph, batch_size=64, seed=2, features=features),
            lambda graph, features: NeighborLoader(
                graph, batch_size=64, fanout=3, seed=2, features=features
            ),
        ],
        ids=["cluster", "neighbor"],
    )
    def test_blocks_are_the_dense_row_slices(self, make, rng):
        """Blocks cut from CSR features hold the dense loader's nodes and rows."""
        graph = sparse_feature_graph(rng)
        dense = graph.row_normalized_features().to_dense()
        csr_loader, dense_loader = make(graph, None), make(graph, dense)
        assert len(csr_loader) == len(dense_loader) > 1
        for epoch in (0, 1):
            pairs = zip(csr_loader.epoch_batches(epoch), dense_loader.epoch_batches(epoch))
            for csr, plain in pairs:
                assert isinstance(csr.features, SparseAdjacency)
                assert np.array_equal(csr.node_ids, plain.node_ids)
                assert csr.features.to_dense().tobytes() == plain.features.tobytes()
                assert plain.features.tobytes() == dense[plain.node_ids].tobytes()


#: the feature format each registry dataset's model input had when graphs
#: still held dense features; the graph now holds that format itself.
REGISTRY_FORMATS = {
    "cora_sim": SparseAdjacency,
    "citeseer_sim": SparseAdjacency,
    "pubmed_sim": np.ndarray,
    "usa_air_sim": np.ndarray,
    "europe_air_sim": np.ndarray,
    "brazil_air_sim": np.ndarray,
}


class TestFeaturesHeldInTheirFormat:
    def test_generating_and_normalising_stays_below_one_dense_array(self):
        """minibatch_trial's 3000 x 500 bag of words never exists densely."""
        n, f = 3000, 500
        labels = np.arange(n) % 7
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            features = planted_partition_features(
                labels, f, 35, 0.10, 0.010, np.random.default_rng(0)
            )
            normalized = row_normalize(features, norm="l2")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert isinstance(normalized, SparseAdjacency)
        assert peak < n * f * np.dtype(np.float64).itemsize

    def test_registry_pins_every_dataset(self):
        assert set(REGISTRY_FORMATS) == set(available_datasets())

    @pytest.mark.parametrize("name", sorted(REGISTRY_FORMATS))
    def test_registry_datasets_hold_their_model_input_format(self, name):
        graph = load_dataset(name, seed=0)
        features, _ = GAEClusteringModel.prepare_inputs(graph)
        assert type(graph.features) is REGISTRY_FORMATS[name]
        assert type(features) is REGISTRY_FORMATS[name]

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_row_normalize_of_csr_is_the_dense_result_bytewise(self, rng, norm):
        dense = random_features(rng, 2 * ROW_BLOCK + 37, 90, 0.03) * 3.7
        dense[[0, ROW_BLOCK, 2 * ROW_BLOCK + 36]] = 0.0  # empty rows, one per block
        matrix = SparseAdjacency.from_matrix(dense)
        normalized = row_normalize(matrix, norm=norm)
        assert isinstance(normalized, SparseAdjacency)
        assert normalized.canonical() is normalized
        assert normalized.to_dense().tobytes() == row_normalize(dense, norm=norm).tobytes()
        assert matrix.to_dense().tobytes() == dense.tobytes()  # input unchanged

    def test_construction_applies_the_format_rule(self, rng, tiny_graph):
        graph = sparse_feature_graph(rng)
        assert isinstance(graph.features, SparseAdjacency)
        assert graph.features.canonical() is graph.features
        copied = graph.copy()
        assert isinstance(copied.features, SparseAdjacency)
        assert copied.features.data is not graph.features.data
        assert copied.features.to_dense().tobytes() == graph.features.to_dense().tobytes()
        small = tiny_graph.with_features(SparseAdjacency.from_matrix(tiny_graph.features))
        assert small.features.tobytes() == tiny_graph.features.tobytes()

    def test_drop_random_features_on_csr_matches_the_dense_edit(self, rng):
        graph = sparse_feature_graph(rng)
        modified = drop_random_features(graph, 30, np.random.default_rng(3))
        expected = graph.features.to_dense()
        expected[:, np.random.default_rng(3).choice(graph.num_features, 30, replace=False)] = 0.0
        assert isinstance(modified.features, SparseAdjacency)
        assert modified.features.canonical() is modified.features
        assert modified.features.to_dense().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["tadw", "mgae", "agc", "age"])
    def test_baselines_take_csr_features(self, name, rng):
        graph = sparse_feature_graph(rng)
        assert isinstance(graph.features, SparseAdjacency)
        labels = build_baseline(name, graph.num_clusters, seed=0).fit_predict(graph)
        assert labels.shape == (graph.num_nodes,)
