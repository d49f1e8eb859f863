"""Tests for the CSR sparse adjacency backend (repro.graph.sparse).

The backbone of this file is the sparse-vs-dense equivalence suite: every
operation the hot path was rewired onto (normalisation, spmm, GCN
forward/backward and the Laplacian quadratic form) must agree with the
dense reference to 1e-10 on random graphs, including graphs with isolated
nodes; the Υ graph transform must match the historical dense loop
``_reference_upsilon`` entry by entry, and ``SparseAdjacency.matmul`` the
per-column ``bincount`` kernel ``_reference_spmm`` byte for byte.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.graph_transform import build_clustering_oriented_graph
from repro.graph import (
    SparseAdjacency,
    laplacian_quadratic_form,
    laplacian_quadratic_form_dense,
    normalize_adjacency,
    propagation_matrix,
)
from repro.graph.graph import AttributedGraph
from repro.graph.sparse import ROW_CAP
from repro.models import GAE
from repro.nn import GraphConvolution, spmm
from repro.nn.tensor import Tensor
from repro.observability.tracer import tracing_session
from test_kernel_equivalence import _reference_upsilon

TOL = 1e-10


def random_adjacency(rng, n=70, p=0.08, isolated=2):
    """Random symmetric binary adjacency with a few isolated nodes."""
    a = (rng.random((n, n)) < p).astype(np.float64)
    a = np.triu(a, 1)
    a = a + a.T
    for node in rng.choice(n, size=isolated, replace=False):
        a[node, :] = 0.0
        a[:, node] = 0.0
    return a


def _reference_spmm(self, dense: np.ndarray) -> np.ndarray:
    """The per-column ``bincount`` kernel ``SparseAdjacency.matmul`` replaced."""
    dense = np.asarray(dense, dtype=np.float64)
    is_vector = dense.ndim == 1
    if is_vector:
        dense = dense[:, None]
    if dense.shape[0] != self.shape[1]:
        raise ValueError(
            f"dimension mismatch: {self.shape} @ {dense.shape}"
        )
    n, d = self.shape[0], dense.shape[1]
    if not self.nnz:
        out = np.zeros((n, d))
        return out[:, 0] if is_vector else out
    rows = self.row_indices()
    out_t = np.empty((d, n))
    for column in range(d):
        out_t[column] = np.bincount(
            rows,
            weights=self.data * dense[:, column][self.indices],
            minlength=n,
        )
    out = np.ascontiguousarray(out_t.T)
    return out[:, 0] if is_vector else out


def star_adjacency(n):
    """Normalised star: one hub row of degree n, n − 1 rows of degree 2."""
    edges = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    return SparseAdjacency.from_edges(edges, n).normalize()


def random_sparse_graph(n, avg_degree, rng):
    """Random undirected graph with ~``avg_degree`` neighbours per node."""
    pairs = rng.integers(0, n, size=(n * avg_degree // 2, 2))
    return SparseAdjacency.from_edges(pairs[pairs[:, 0] != pairs[:, 1]], n)


@pytest.fixture(params=[0, 1, 2])
def adjacency(request):
    rng = np.random.default_rng(request.param)
    return random_adjacency(rng)


class TestSparseAdjacencyConstruction:
    def test_dense_round_trip(self, adjacency):
        sparse = SparseAdjacency.from_dense(adjacency)
        assert sparse.nnz == np.count_nonzero(adjacency)
        np.testing.assert_array_equal(sparse.to_dense(), adjacency)

    def test_from_edges_matches_dense(self, adjacency):
        rows, cols = np.nonzero(np.triu(adjacency, k=1))
        edges = np.stack([rows, cols], axis=1)
        sparse = SparseAdjacency.from_edges(edges, adjacency.shape[0])
        np.testing.assert_array_equal(sparse.to_dense(), adjacency)

    def test_from_coo_sums_duplicates(self):
        sparse = SparseAdjacency.from_coo(
            rows=[0, 0, 1], cols=[1, 1, 0], values=[1.0, 2.0, 4.0], num_nodes=3
        )
        assert sparse.nnz == 2
        assert sparse.to_dense()[0, 1] == 3.0
        assert sparse.to_dense()[1, 0] == 4.0

    def test_empty_graph(self):
        sparse = SparseAdjacency.from_dense(np.zeros((5, 5)))
        assert sparse.nnz == 0
        assert sparse.matmul(np.ones((5, 3))).sum() == 0.0
        np.testing.assert_array_equal(sparse.normalize().to_dense(), np.eye(5))

    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError):
            SparseAdjacency.from_dense(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            SparseAdjacency.from_coo([0], [7], [1.0], num_nodes=3)

    @pytest.mark.parametrize("indptr", [[0, 1, 1], [1, 1, 2], [0, 2, 1], [0, 1, 3]])
    def test_malformed_indptr_raises(self, indptr):
        """indptr must start at 0, never decrease and end at nnz; otherwise
        entries would silently land in the wrong rows."""
        with pytest.raises(ValueError, match="indptr"):
            SparseAdjacency(np.ones(2), np.array([1, 0]), np.array(indptr), (2, 2))

    def test_degrees_and_transpose(self, adjacency):
        sparse = SparseAdjacency.from_dense(adjacency)
        np.testing.assert_allclose(sparse.out_degrees(), adjacency.sum(axis=1))
        np.testing.assert_allclose(sparse.in_degrees(), adjacency.sum(axis=0))
        np.testing.assert_array_equal(sparse.transpose().to_dense(), adjacency.T)
        # The transpose cache is symmetric both ways.
        assert sparse.transpose().transpose() is sparse

    def test_transpose_of_directed_matrix(self):
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        sparse = SparseAdjacency.from_dense(dense)
        np.testing.assert_array_equal(sparse.T.to_dense(), dense.T)


class TestNormalizationEquivalence:
    @pytest.mark.parametrize("self_loops", [True, False])
    def test_matches_dense(self, adjacency, self_loops):
        dense_norm = normalize_adjacency(adjacency, self_loops=self_loops)
        sparse_norm = normalize_adjacency(
            SparseAdjacency.from_dense(adjacency), self_loops=self_loops
        )
        assert isinstance(sparse_norm, SparseAdjacency)
        np.testing.assert_allclose(sparse_norm.to_dense(), dense_norm, atol=TOL)

    def test_isolated_nodes_stay_finite_without_self_loops(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        sparse_norm = normalize_adjacency(SparseAdjacency.from_dense(a), self_loops=False)
        dense = sparse_norm.to_dense()
        assert np.all(np.isfinite(dense))
        assert dense[2].sum() == 0.0 and dense[3].sum() == 0.0


class TestSpmm:
    def test_forward_matches_dense(self, adjacency, rng):
        sparse = SparseAdjacency.from_dense(adjacency)
        x = rng.standard_normal((adjacency.shape[0], 9))
        np.testing.assert_allclose(sparse.matmul(x), adjacency @ x, atol=TOL)
        np.testing.assert_allclose(sparse @ x[:, 0], adjacency @ x[:, 0], atol=TOL)

    def test_dimension_mismatch_raises(self, adjacency):
        sparse = SparseAdjacency.from_dense(adjacency)
        with pytest.raises(ValueError):
            sparse.matmul(np.ones((3, 2)))

    def test_backward_matches_dense_matmul(self, adjacency, rng):
        """spmm gradients equal the gradients of the dense A @ X product."""
        norm = normalize_adjacency(adjacency, self_loops=True)
        sparse = SparseAdjacency.from_dense(norm)
        x_data = rng.standard_normal((adjacency.shape[0], 6))
        weights = rng.standard_normal((adjacency.shape[0], 6))

        x_sparse = Tensor(x_data, requires_grad=True)
        (spmm(sparse, x_sparse) * weights).sum().backward()

        x_dense = Tensor(x_data, requires_grad=True)
        (Tensor(norm) @ x_dense * weights).sum().backward()

        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=TOL)

    def test_backward_finite_difference(self, rng):
        """Central finite differences through spmm confirm the analytic grad."""
        a = random_adjacency(rng, n=12, p=0.3, isolated=1)
        sparse = SparseAdjacency.from_dense(normalize_adjacency(a))
        x_data = rng.standard_normal((12, 3))
        weights = rng.standard_normal((12, 3))

        x = Tensor(x_data, requires_grad=True)
        (spmm(sparse, x) * weights).sum().backward()

        eps = 1e-6
        numeric = np.zeros_like(x_data)
        for i in range(x_data.shape[0]):
            for j in range(x_data.shape[1]):
                plus, minus = x_data.copy(), x_data.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                f_plus = float((sparse.matmul(plus) * weights).sum())
                f_minus = float((sparse.matmul(minus) * weights).sum())
                numeric[i, j] = (f_plus - f_minus) / (2.0 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)

    def test_traced_forward_and_backward_each_record_a_span(self, adjacency, rng):
        sparse = SparseAdjacency.from_dense(adjacency)
        x = Tensor(rng.standard_normal((adjacency.shape[0], 3)), requires_grad=True)
        with tracing_session(enabled=True) as tracer:
            spmm(sparse, x).sum().backward()
        assert [root["name"] for root in tracer.export()] == ["kernel.spmm"] * 2


class TestSpmmKernel:
    """``matmul`` against the per-column kernel, compared as raw bytes."""

    @staticmethod
    def assert_same_bytes(sparse, dense):
        expected = _reference_spmm(sparse, dense)
        got = sparse.matmul(dense)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("normalised", [False, True])
    def test_random_graphs_with_isolated_nodes(self, adjacency, rng, normalised):
        sparse = SparseAdjacency.from_dense(adjacency)
        if normalised:
            sparse = sparse.normalize()
        self.assert_same_bytes(sparse, rng.standard_normal((adjacency.shape[0], 16)))

    def test_asymmetric_weighted_rows_on_both_sides_of_the_cap(self, rng):
        n = 150
        density = np.linspace(0.02, 0.9, n)[rng.permutation(n), None]
        weights = rng.random((n, n)) * (rng.random((n, n)) < density)
        sparse = SparseAdjacency.from_dense(weights)
        degrees = np.diff(sparse.indptr)
        assert degrees.min() < ROW_CAP < degrees.max()
        self.assert_same_bytes(sparse, rng.standard_normal((n, 32)))

    @pytest.mark.parametrize("n", [1_000, 10_000])
    def test_star_hub_above_the_cap(self, rng, n):
        self.assert_same_bytes(star_adjacency(n), rng.standard_normal((n, 32)))

    def test_empty_matrix(self, rng):
        self.assert_same_bytes(SparseAdjacency.from_dense(np.zeros((5, 5))), rng.random((5, 3)))

    @pytest.mark.parametrize("shape", [(70,), (70, 1), (70, 500)], ids=["vector", "d1", "d500"])
    def test_vector_and_column_counts(self, adjacency, rng, shape):
        # d = 500 walks several gather chunks, splitting runs between them.
        self.assert_same_bytes(SparseAdjacency.from_dense(adjacency), rng.standard_normal(shape))

    def test_fortran_ordered_and_strided_inputs(self, adjacency, rng):
        sparse = SparseAdjacency.from_dense(adjacency).normalize()
        wide = rng.standard_normal((140, 24))
        self.assert_same_bytes(sparse, np.asfortranarray(wide[:70]))
        self.assert_same_bytes(sparse, wide[::2, ::3])
        self.assert_same_bytes(sparse, wide[1::2, 5])

    def test_inputs_holding_inf_nan_and_negative_zero(self, rng):
        # Sums of −0.0 are +0.0 only when they start from 0.0, and the NaN
        # of inf − inf keeps its sign only if the sums run in the same order.
        for sparse in (star_adjacency(300), random_sparse_graph(300, 20, rng).normalize()):
            x = rng.standard_normal((300, 8))
            x[rng.random(x.shape) < 0.05] = np.inf
            x[rng.random(x.shape) < 0.05] = -np.inf
            x[rng.random(x.shape) < 0.05] = np.nan
            x[:, 0] = -0.0
            with np.errstate(invalid="ignore"):
                self.assert_same_bytes(sparse, x)

    def test_layout_is_built_once_per_object(self, adjacency, rng):
        sparse = SparseAdjacency.from_dense(adjacency)
        x = rng.standard_normal((adjacency.shape[0], 4))
        sparse.matmul(x)
        layout = sparse._layout
        sparse.matmul(x)
        sparse.matmul(x[:, 0])
        assert sparse._layout is layout
        assert sparse.T._layout is None

    def test_product_memory_is_bounded_by_the_output(self):
        # Once the layout is cached, a product holds the degree-ordered
        # output, its row-ordered copy and one chunk of gathered rows — not
        # an (nnz, d) gather (~70 MiB here).
        rng = np.random.default_rng(0)
        n, d = 10_000, 32
        sparse = random_sparse_graph(n, 30, rng).normalize()
        x = rng.standard_normal((n, d))
        sparse.matmul(x)
        tracemalloc.start()
        try:
            sparse.matmul(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes


class TestGCNEquivalence:
    def test_forward_and_weight_gradients_match(self, adjacency, rng):
        norm_dense = normalize_adjacency(adjacency, self_loops=True)
        norm_sparse = SparseAdjacency.from_dense(norm_dense)
        x = rng.standard_normal((adjacency.shape[0], 5))

        layer_dense = GraphConvolution(5, 4, activation="relu", rng=np.random.default_rng(7))
        layer_sparse = GraphConvolution(5, 4, activation="relu", rng=np.random.default_rng(7))

        out_dense = layer_dense(x, norm_dense)
        out_sparse = layer_sparse(x, norm_sparse)
        np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=TOL)

        (out_dense * out_dense).sum().backward()
        (out_sparse * out_sparse).sum().backward()
        np.testing.assert_allclose(
            layer_sparse.weight.grad, layer_dense.weight.grad, atol=TOL
        )

    def test_input_gradients_match_through_two_layers(self, adjacency, rng):
        """A two-layer GCN stack (the paper's encoder shape) agrees end to end."""
        norm_dense = normalize_adjacency(adjacency, self_loops=True)
        norm_sparse = SparseAdjacency.from_dense(norm_dense)
        x_data = rng.standard_normal((adjacency.shape[0], 5))

        grads = {}
        for key, adj in (("dense", norm_dense), ("sparse", norm_sparse)):
            first = GraphConvolution(5, 4, activation="relu", rng=np.random.default_rng(3))
            second = GraphConvolution(4, 2, activation=None, rng=np.random.default_rng(4))
            x = Tensor(x_data, requires_grad=True)
            out = second(first(x, adj), adj)
            (out * out).sum().backward()
            grads[key] = x.grad
        np.testing.assert_allclose(grads["sparse"], grads["dense"], atol=TOL)


class TestQuadraticFormEquivalence:
    def test_matches_dense_reference(self, adjacency, rng):
        z = rng.standard_normal((adjacency.shape[0], 6))
        reference = laplacian_quadratic_form_dense(z, adjacency)
        assert laplacian_quadratic_form(z, adjacency) == pytest.approx(reference, abs=TOL)
        assert laplacian_quadratic_form(
            z, SparseAdjacency.from_dense(adjacency)
        ) == pytest.approx(reference, abs=TOL)

    def test_matches_direct_pairwise_sum(self, rng):
        a = random_adjacency(rng, n=25, p=0.2, isolated=1)
        z = rng.standard_normal((25, 4))
        direct = 0.5 * sum(
            a[i, j] * np.sum((z[i] - z[j]) ** 2)
            for i in range(25)
            for j in range(25)
        )
        assert laplacian_quadratic_form(z, a) == pytest.approx(direct, abs=TOL)
        assert laplacian_quadratic_form(
            z, SparseAdjacency.from_dense(a)
        ) == pytest.approx(direct, abs=TOL)

    def test_weighted_asymmetric_matrix(self, rng):
        """A' can be any non-negative weight matrix, not just binary symmetric."""
        weights = rng.random((30, 30)) * (rng.random((30, 30)) < 0.15)
        z = rng.standard_normal((30, 3))
        reference = laplacian_quadratic_form_dense(z, weights)
        assert laplacian_quadratic_form(z, weights) == pytest.approx(reference, abs=TOL)
        assert laplacian_quadratic_form(
            z, SparseAdjacency.from_dense(weights)
        ) == pytest.approx(reference, abs=TOL)

    def test_high_density_matrix_uses_gram_fallback_correctly(self, rng):
        """Dense weight matrices above the density threshold (e.g. membership
        graphs, nnz ~ N²/K) fall back to the Gram identity; the result must be
        identical either way."""
        n = 40
        labels = rng.integers(0, 3, size=n)
        membership = (labels[:, None] == labels[None, :]).astype(np.float64)
        z = rng.standard_normal((n, 4))
        reference = laplacian_quadratic_form_dense(z, membership)
        assert laplacian_quadratic_form(z, membership) == pytest.approx(
            reference, abs=TOL
        )
        assert laplacian_quadratic_form(
            z, SparseAdjacency.from_dense(membership)
        ) == pytest.approx(reference, abs=TOL)


class TestGraphTransformEquivalence:
    @pytest.mark.parametrize("add_edges", [True, False])
    @pytest.mark.parametrize("drop_edges", [True, False])
    def test_sparse_matches_dense(self, adjacency, rng, add_edges, drop_edges):
        n = adjacency.shape[0]
        assignments = rng.random((n, 4))
        assignments /= assignments.sum(axis=1, keepdims=True)
        embeddings = rng.standard_normal((n, 6))
        reliable = rng.choice(n, size=n // 2, replace=False)

        dense_result = _reference_upsilon(
            adjacency, assignments, reliable, embeddings,
            add_edges=add_edges, drop_edges=drop_edges,
        )
        sparse_result = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(adjacency), assignments, reliable, embeddings,
            add_edges=add_edges, drop_edges=drop_edges,
        )
        assert isinstance(sparse_result, SparseAdjacency)
        np.testing.assert_array_equal(sparse_result.to_dense(), dense_result)

    def test_sparse_matches_dense_on_asymmetric_weighted_input(self, rng):
        """Υ's dense loop only adds a star edge when (node, centroid) is
        absent, but writes *both* directions when it fires; the CSR Υ must
        reproduce that even for asymmetric or weighted inputs."""
        n = 40
        weights = (rng.random((n, n)) * (rng.random((n, n)) < 0.12)).astype(np.float64)
        np.fill_diagonal(weights, 0.0)
        assignments = rng.random((n, 3))
        assignments /= assignments.sum(axis=1, keepdims=True)
        embeddings = rng.standard_normal((n, 4))
        reliable = rng.choice(n, size=25, replace=False)

        dense_result = _reference_upsilon(weights, assignments, reliable, embeddings)
        sparse_result = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(weights), assignments, reliable, embeddings
        )
        np.testing.assert_array_equal(sparse_result.to_dense(), dense_result)

    def test_empty_reliable_set_returns_copy(self, adjacency):
        sparse = SparseAdjacency.from_dense(adjacency)
        result = build_clustering_oriented_graph(
            sparse, np.ones((adjacency.shape[0], 2)) / 2.0,
            np.array([], dtype=np.int64), np.zeros((adjacency.shape[0], 3)),
        )
        assert result is not sparse
        np.testing.assert_array_equal(result.to_dense(), adjacency)


class TestPropagationMatrixDispatch:
    def test_small_graphs_stay_dense(self, adjacency):
        sparse = SparseAdjacency.from_dense(adjacency)
        assert isinstance(propagation_matrix(sparse), np.ndarray)

    def test_large_sparse_graphs_go_sparse(self, rng):
        big = random_adjacency(rng, n=300, p=0.02, isolated=0)
        result = propagation_matrix(SparseAdjacency.from_dense(big))
        assert isinstance(result, SparseAdjacency)
        np.testing.assert_allclose(
            result.to_dense(), normalize_adjacency(big, self_loops=True), atol=TOL
        )

    def test_dense_graphs_stay_dense_regardless_of_size(self, rng):
        big = random_adjacency(rng, n=300, p=0.6, isolated=0)
        assert isinstance(propagation_matrix(SparseAdjacency.from_dense(big)), np.ndarray)

    def test_model_trains_on_sparse_backend(self, rng):
        """End to end: a GAE pretrain step over the sparse propagation path."""
        n = 300
        adjacency = random_adjacency(rng, n=n, p=0.02, isolated=0)
        features = rng.random((n, 8))
        labels = np.zeros(n, dtype=np.int64)
        graph = AttributedGraph(adjacency, features, labels, name="sparse_smoke")

        model = GAE(num_features=8, num_clusters=2, hidden_dim=8, latent_dim=4, seed=0)
        _, adj_norm = model.prepare_inputs(graph)
        assert isinstance(adj_norm, SparseAdjacency)

        history = model.pretrain(graph, epochs=5)
        assert len(history.losses) == 5
        assert np.isfinite(history.losses).all()
        assert history.losses[-1] < history.losses[0]
        assert model.embed(graph).shape == (n, 4)
