"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    hard_to_one_hot,
    soft_assignment_gaussian,
    soft_assignment_student_t,
    target_distribution,
)
from repro.core.graph_transform import build_clustering_oriented_graph
from repro.core.sampling import select_reliable_nodes
from repro.core.supervision import aligned_oracle_assignments, membership_graph
from repro.datasets.features import degree_one_hot_features, row_normalize
from repro.graph.laplacian import laplacian_quadratic_form, normalize_adjacency
from repro.graph.sparse import SparseAdjacency
from repro.metrics import (
    adjusted_rand_index,
    clustering_accuracy,
    normalized_mutual_information,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def labels_pair(draw):
    """Two random label vectors of the same length over small alphabets."""
    n = draw(st.integers(min_value=2, max_value=40))
    k1 = draw(st.integers(min_value=1, max_value=4))
    k2 = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return rng.integers(0, k1, size=n), rng.integers(0, k2, size=n)


@st.composite
def random_graph(draw):
    """Random symmetric binary adjacency with zero diagonal."""
    n = draw(st.integers(min_value=2, max_value=20))
    p = draw(st.floats(min_value=0.0, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


@st.composite
def embeddings_and_centers(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(k, d))


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(pair=labels_pair())
    def test_metrics_bounded(self, pair):
        true, pred = pair
        assert 0.0 <= clustering_accuracy(true, pred) <= 1.0
        assert 0.0 <= normalized_mutual_information(true, pred) <= 1.0
        assert -1.0 <= adjusted_rand_index(true, pred) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(pair=labels_pair())
    def test_metrics_symmetric_under_relabelling(self, pair):
        true, pred = pair
        # Permuting the prediction alphabet must not change any metric.
        permutation = np.arange(pred.max() + 1)
        np.random.default_rng(0).shuffle(permutation)
        permuted = permutation[pred]
        assert clustering_accuracy(true, pred) == pytest.approx(
            clustering_accuracy(true, permuted)
        )
        assert normalized_mutual_information(true, pred) == pytest.approx(
            normalized_mutual_information(true, permuted)
        )
        assert adjusted_rand_index(true, pred) == pytest.approx(
            adjusted_rand_index(true, permuted), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(pair=labels_pair())
    def test_perfect_prediction_is_optimal(self, pair):
        true, _ = pair
        assert clustering_accuracy(true, true) == 1.0
        assert adjusted_rand_index(true, true) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(pair=labels_pair())
    def test_accuracy_at_least_largest_class_share(self, pair):
        true, pred = pair
        _, counts = np.unique(true, return_counts=True)
        majority = counts.max() / counts.sum()
        constant = np.zeros_like(pred)
        assert clustering_accuracy(true, constant) >= majority - 1e-12


class TestGraphProperties:
    @settings(max_examples=50, deadline=None)
    @given(adjacency=random_graph())
    def test_normalized_adjacency_symmetric_and_bounded(self, adjacency):
        norm = normalize_adjacency(adjacency, self_loops=True)
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-8
        assert eigenvalues.min() >= -1.0 - 1e-8

    @settings(max_examples=50, deadline=None)
    @given(adjacency=random_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_laplacian_quadratic_form_nonnegative(self, adjacency, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(adjacency.shape[0], 3))
        assert laplacian_quadratic_form(z, adjacency) >= -1e-9

    @settings(max_examples=50, deadline=None)
    @given(adjacency=random_graph())
    def test_degree_one_hot_rows(self, adjacency):
        features = degree_one_hot_features(SparseAdjacency.from_dense(adjacency))
        np.testing.assert_allclose(features.sum(axis=1), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(adjacency=random_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_row_normalize_unit_or_zero(self, adjacency, seed):
        rng = np.random.default_rng(seed)
        features = rng.random((adjacency.shape[0], 5)) * (rng.random((adjacency.shape[0], 1)) > 0.2)
        normalized = row_normalize(features)
        norms = np.linalg.norm(normalized, axis=1)
        assert np.all((np.isclose(norms, 1.0)) | (np.isclose(norms, 0.0)))


class TestAssignmentProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=embeddings_and_centers())
    def test_gaussian_assignment_row_stochastic(self, data):
        embeddings, centers = data
        soft = soft_assignment_gaussian(embeddings, centers)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(soft >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(data=embeddings_and_centers())
    def test_student_t_assignment_row_stochastic(self, data):
        embeddings, centers = data
        soft = soft_assignment_student_t(embeddings, centers)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(soft >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(data=embeddings_and_centers())
    def test_target_distribution_preserves_stochasticity(self, data):
        embeddings, centers = data
        soft = soft_assignment_student_t(embeddings, centers)
        target = target_distribution(soft)
        np.testing.assert_allclose(target.sum(axis=1), 1.0, atol=1e-9)


class TestOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        data=embeddings_and_centers(),
        alpha1=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sampling_monotone_in_alpha1(self, data, alpha1):
        embeddings, centers = data
        soft = soft_assignment_gaussian(embeddings, centers)
        loose = select_reliable_nodes(embeddings, soft, alpha1=0.0, alpha2=0.0)
        strict = select_reliable_nodes(embeddings, soft, alpha1=alpha1)
        assert strict.num_reliable <= loose.num_reliable
        assert loose.num_reliable == embeddings.shape[0]

    @settings(max_examples=30, deadline=None)
    @given(adjacency=random_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_transform_output_valid_adjacency(self, adjacency, seed):
        rng = np.random.default_rng(seed)
        n = adjacency.shape[0]
        k = min(3, n)
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        embeddings = rng.normal(size=(n, 4))
        assignments = hard_to_one_hot(labels, k)
        reliable = rng.choice(n, size=max(1, n // 2), replace=False)
        out = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(adjacency), assignments, reliable, embeddings
        ).to_dense()
        np.testing.assert_allclose(out, out.T)
        assert set(np.unique(out)).issubset({0.0, 1.0})
        assert np.all(np.diag(out) == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(pair=labels_pair())
    def test_oracle_assignments_one_hot(self, pair):
        true, pred = pair
        k = int(pred.max()) + 1
        oracle = aligned_oracle_assignments(true, hard_to_one_hot(pred, k))
        np.testing.assert_allclose(oracle.sum(axis=1), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(pair=labels_pair())
    def test_membership_graph_row_sums(self, pair):
        labels, _ = pair
        graph = membership_graph(labels)
        np.testing.assert_allclose(graph.sum(axis=1), 1.0, atol=1e-9)


class TestTensorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
    )
    def test_softmax_rows_sum_to_one(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        probs = F.softmax(rng.normal(size=(rows, cols)) * 10.0, axis=1).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sigmoid_softplus_identity(self, seed):
        # d/dx softplus(x) = sigmoid(x): check via autodiff on random inputs.
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(5,)) * 3.0
        x = Tensor(values.copy(), requires_grad=True)
        x.softplus().sum().backward()
        np.testing.assert_allclose(x.grad, 1.0 / (1.0 + np.exp(-values)), atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matmul_transpose_gradient_symmetry(self, seed):
        # loss = sum(Z Z^T) has gradient 2 * (sum over j) structure; check finite value.
        rng = np.random.default_rng(seed)
        z = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        (z @ z.T).sum().backward()
        assert np.all(np.isfinite(z.grad))
