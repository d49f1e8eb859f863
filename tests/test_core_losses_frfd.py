"""Tests for the theoretical loss decompositions (Props 1-2, Thm 1) and FR/FD metrics.

The decomposition identities are checked both on fixed random instances and
property-based with hypothesis over random embeddings, graphs and partitions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import hard_to_one_hot
from repro.core import (
    aligned_oracle_assignments,
    build_clustering_oriented_graph,
    combined_objective,
    elementary_fd,
    elementary_fr,
    feature_drift_metric,
    feature_randomness_metric,
    gradient_cosine,
    graph_filter_impact,
    kmeans_loss,
    laplacian_term,
    reconstruction_bce_sum,
    reconstruction_remainder,
    supervision_graph,
    clustering_graph,
)
from repro.core.losses import kmeans_loss_as_laplacian
from repro.models import build_model


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def embedding_graph_partition(draw):
    """Random (Z, A, labels) triple of modest size."""
    n = draw(st.integers(min_value=4, max_value=12))
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, size=(n, d))
    upper = np.triu((rng.random((n, n)) < 0.4), k=1)
    adjacency = (upper | upper.T).astype(float)
    labels = rng.integers(0, k, size=n)
    # Guarantee every cluster id below k appears at least once.
    labels[:k] = np.arange(k)
    return z, adjacency, labels


class TestLossDecompositions:
    def test_proposition1_fixed_instance(self, rng):
        z = rng.normal(size=(10, 4))
        upper = np.triu(rng.random((10, 10)) < 0.3, k=1)
        adjacency = (upper | upper.T).astype(float)
        left = reconstruction_bce_sum(z, adjacency)
        right = laplacian_term(z, adjacency) + reconstruction_remainder(z, adjacency)
        assert left == pytest.approx(right, rel=1e-9)

    def test_proposition2_fixed_instance(self, rng):
        z = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        assert kmeans_loss(z, labels) == pytest.approx(kmeans_loss_as_laplacian(z, labels), rel=1e-9)

    def test_theorem1_fixed_instance(self, rng):
        z = rng.normal(size=(10, 3))
        upper = np.triu(rng.random((10, 10)) < 0.3, k=1)
        adjacency = (upper | upper.T).astype(float)
        labels = rng.integers(0, 2, size=10)
        labels[:2] = [0, 1]
        result = combined_objective(z, adjacency, labels, gamma=0.7)
        assert result["gap"] < 1e-8 * max(1.0, abs(result["direct"]))

    @settings(max_examples=40, deadline=None)
    @given(data=embedding_graph_partition())
    def test_proposition1_property(self, data):
        z, adjacency, _ = data
        left = reconstruction_bce_sum(z, adjacency)
        right = laplacian_term(z, adjacency) + reconstruction_remainder(z, adjacency)
        assert left == pytest.approx(right, rel=1e-8, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(data=embedding_graph_partition())
    def test_proposition2_property(self, data):
        z, _, labels = data
        assert kmeans_loss(z, labels) == pytest.approx(
            kmeans_loss_as_laplacian(z, labels), rel=1e-8, abs=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(data=embedding_graph_partition(), gamma=st.floats(min_value=0.01, max_value=5.0))
    def test_theorem1_property(self, data, gamma):
        z, adjacency, labels = data
        result = combined_objective(z, adjacency, labels, gamma=gamma)
        scale = max(1.0, abs(result["direct"]))
        assert result["gap"] < 1e-7 * scale

    def test_laplacian_term_nonnegative(self, rng):
        z = rng.normal(size=(8, 3))
        upper = np.triu(rng.random((8, 8)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(float)
        assert laplacian_term(z, adjacency) >= 0.0

    def test_kmeans_loss_zero_for_collapsed_clusters(self):
        z = np.tile(np.array([[1.0, 2.0]]), (6, 1))
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert kmeans_loss(z, labels) == pytest.approx(0.0)


class TestElementaryMetrics:
    def test_elementary_fr_positive_when_clustering_matches_truth(self, rng):
        z = rng.normal(size=(12, 3))
        labels = np.repeat([0, 1, 2], 4)
        a_sup = supervision_graph(labels)
        a_clus = clustering_graph(hard_to_one_hot(labels))
        values = elementary_fr(z, a_clus, a_sup)
        # identical graphs -> inner product of identical gradients -> >= 0
        assert np.all(values >= -1e-9)

    def test_elementary_fd_shape(self, rng, tiny_graph):
        z = rng.normal(size=(tiny_graph.num_nodes, 4))
        a_sup = supervision_graph(tiny_graph.labels)
        values = elementary_fd(z, tiny_graph.adjacency.to_dense(), a_sup)
        assert values.shape == (tiny_graph.num_nodes,)
        assert np.all(np.isfinite(values))

    def test_graph_filter_impact_positive_on_homophilous_graph(self, tiny_graph):
        impact = graph_filter_impact(
            tiny_graph.row_normalized_features(),
            tiny_graph.adjacency.to_dense(),
            tiny_graph.labels,
        )
        # On a strongly homophilous SBM the filtering helps most nodes.
        assert impact.shape == (tiny_graph.num_nodes,)
        assert np.mean(impact >= 0.0) > 0.5


class TestGradientMetrics:
    def test_gradient_cosine_of_identical_losses_is_one(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        target = tiny_graph.adjacency

        def loss():
            z = pretrained_dgae.encode(features, adj_norm, sample=False)
            return pretrained_dgae.reconstruction_loss(z, target)

        assert gradient_cosine(pretrained_dgae, loss, loss) == pytest.approx(1.0, abs=1e-6)

    def test_gradient_cosine_of_opposite_losses_is_minus_one(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        target = tiny_graph.adjacency

        def loss():
            z = pretrained_dgae.encode(features, adj_norm, sample=False)
            return pretrained_dgae.reconstruction_loss(z, target)

        def negative_loss():
            z = pretrained_dgae.encode(features, adj_norm, sample=False)
            return pretrained_dgae.reconstruction_loss(z, target) * -1.0

        assert gradient_cosine(pretrained_dgae, loss, negative_loss) == pytest.approx(-1.0, abs=1e-6)

    def test_gradient_cosine_clears_model_gradients(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        target = tiny_graph.adjacency

        def loss():
            z = pretrained_dgae.encode(features, adj_norm, sample=False)
            return pretrained_dgae.reconstruction_loss(z, target)

        gradient_cosine(pretrained_dgae, loss, loss)
        assert np.all(pretrained_dgae.gradient_vector() == 0.0)

    def test_feature_randomness_metric_range(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        embeddings = pretrained_dgae.embed(tiny_graph)
        assignments = pretrained_dgae.predict_assignments(embeddings)
        oracle = aligned_oracle_assignments(tiny_graph.labels, assignments)
        value = feature_randomness_metric(pretrained_dgae, features, adj_norm, oracle)
        assert -1.0 <= value <= 1.0

    def test_feature_randomness_metric_requires_second_group(self, tiny_graph):
        model = build_model("gae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
        with pytest.raises(TypeError):
            feature_randomness_metric(model, None, None, None)

    def test_feature_drift_metric_identical_graphs_is_one(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        target = tiny_graph.adjacency
        value = feature_drift_metric(pretrained_dgae, features, adj_norm, target, target)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_feature_drift_metric_with_oracle_graph(self, pretrained_dgae, tiny_graph):
        features, adj_norm = pretrained_dgae.prepare_inputs(tiny_graph)
        embeddings = pretrained_dgae.embed(tiny_graph)
        assignments = pretrained_dgae.predict_assignments(embeddings)
        oracle = aligned_oracle_assignments(tiny_graph.labels, assignments)
        oracle_graph = build_clustering_oriented_graph(
            tiny_graph.adjacency, oracle, np.arange(tiny_graph.num_nodes), embeddings
        )
        value = feature_drift_metric(
            pretrained_dgae, features, adj_norm, tiny_graph.adjacency, oracle_graph
        )
        assert -1.0 <= value <= 1.0
