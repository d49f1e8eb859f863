"""Tests for the sampling operator Ξ, the graph operator Υ and the supervision graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import hard_to_one_hot
from repro.core import (
    GraphTransformOperator,
    SamplingOperator,
    aligned_oracle_assignments,
    build_clustering_oriented_graph,
    clustering_graph,
    select_reliable_nodes,
    supervision_graph,
)
from repro.core.sampling import confidence_scores
from repro.core.supervision import membership_graph
from repro.graph.sparse import SparseAdjacency
from repro.graph.stats import star_subgraph_count


def two_blob_embeddings(rng, n_per=20, separation=8.0):
    """Two well separated 2-D blobs plus labels."""
    a = rng.normal(size=(n_per, 2)) + np.array([0.0, 0.0])
    b = rng.normal(size=(n_per, 2)) + np.array([separation, separation])
    z = np.concatenate([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return z, labels


class TestSamplingOperator:
    def test_confidence_scores_ordering(self):
        soft = np.array([[0.7, 0.2, 0.1], [0.4, 0.35, 0.25]])
        first, second = confidence_scores(soft)
        np.testing.assert_allclose(first, [0.7, 0.4])
        np.testing.assert_allclose(second, [0.2, 0.35])

    def test_coverage_on_empty_graph_raises(self):
        from repro.core.sampling import SamplingResult

        empty = SamplingResult(
            reliable_nodes=np.array([], dtype=np.int64),
            soft_assignments=np.zeros((0, 3)),
            first_scores=np.array([]),
            second_scores=np.array([]),
        )
        with pytest.raises(ValueError, match="empty graph"):
            empty.coverage()

    def test_confidence_scores_single_cluster(self):
        first, second = confidence_scores(np.ones((3, 1)))
        np.testing.assert_allclose(second, 0.0)

    def test_selects_confident_nodes_only(self, rng):
        z, labels = two_blob_embeddings(rng)
        soft = np.full((z.shape[0], 2), 0.5)
        soft[:10] = [0.95, 0.05]
        result = select_reliable_nodes(z, soft, alpha1=0.8)
        assert set(result.reliable_nodes.tolist()) == set(range(10))

    def test_margin_criterion_excludes_borderline(self, rng):
        z, _ = two_blob_embeddings(rng)
        soft = np.tile([0.55, 0.45], (z.shape[0], 1))
        # confident enough for alpha1=0.5 but margin 0.1 < alpha2=0.25
        result = select_reliable_nodes(z, soft, alpha1=0.5)
        assert result.num_reliable == 0

    def test_default_alpha2_is_half_alpha1(self, rng):
        z, _ = two_blob_embeddings(rng)
        soft = np.tile([0.62, 0.38], (z.shape[0], 1))
        # margin 0.24 >= default alpha2 = 0.45/2 = 0.225 -> every node selected
        assert select_reliable_nodes(z, soft, alpha1=0.45).num_reliable == z.shape[0]
        # with an explicit larger alpha2 the margin criterion fails
        assert select_reliable_nodes(z, soft, alpha1=0.45, alpha2=0.3).num_reliable == 0

    def test_alpha_validation(self, rng):
        z, _ = two_blob_embeddings(rng)
        soft = np.tile([0.6, 0.4], (z.shape[0], 1))
        with pytest.raises(ValueError):
            select_reliable_nodes(z, soft, alpha1=1.5)
        with pytest.raises(ValueError):
            select_reliable_nodes(z, soft, alpha1=0.5, alpha2=-0.1)
        with pytest.raises(ValueError):
            SamplingOperator(alpha1=-0.2)

    def test_hard_assignments_are_softened(self, rng):
        z, labels = two_blob_embeddings(rng)
        hard = hard_to_one_hot(labels)
        result = select_reliable_nodes(z, hard, alpha1=0.5)
        assert np.any((result.soft_assignments > 0.0) & (result.soft_assignments < 1.0))
        # Well-separated blobs: essentially every node should be decidable.
        assert result.coverage() > 0.9

    def test_mask_matches_reliable_nodes(self, rng):
        z, labels = two_blob_embeddings(rng)
        result = select_reliable_nodes(z, hard_to_one_hot(labels), alpha1=0.5)
        mask = result.mask()
        assert mask.sum() == result.num_reliable
        assert np.all(mask[result.reliable_nodes])

    def test_operator_ablation_switches(self, rng):
        z, labels = two_blob_embeddings(rng, separation=2.0)
        hard = hard_to_one_hot(labels)
        full = SamplingOperator(alpha1=0.9)(z, hard)
        no_criteria = SamplingOperator(
            alpha1=0.9, use_confidence_criterion=False, use_margin_criterion=False
        )(z, hard)
        assert no_criteria.num_reliable == z.shape[0]
        assert full.num_reliable <= no_criteria.num_reliable

    def test_higher_alpha1_selects_fewer(self, rng):
        z, labels = two_blob_embeddings(rng, separation=3.0)
        hard = hard_to_one_hot(labels)
        low = select_reliable_nodes(z, hard, alpha1=0.3).num_reliable
        high = select_reliable_nodes(z, hard, alpha1=0.95).num_reliable
        assert high <= low


class TestGraphTransformOperator:
    @staticmethod
    def _setup(rng):
        z, labels = two_blob_embeddings(rng, n_per=10)
        n = z.shape[0]
        adjacency = np.zeros((n, n))
        # a few intra-cluster edges and two inter-cluster (clustering-irrelevant) edges
        for i, j in [(0, 1), (2, 3), (10, 11), (12, 13), (0, 10), (5, 15)]:
            adjacency[i, j] = adjacency[j, i] = 1.0
        assignments = hard_to_one_hot(labels)
        return adjacency, assignments, z, labels

    @staticmethod
    def _transform(adjacency, *args, **kwargs):
        """Υ on the CSR form of a dense toy adjacency, densified for asserts."""
        sparse = SparseAdjacency.from_dense(adjacency)
        return build_clustering_oriented_graph(sparse, *args, **kwargs).to_dense()

    def test_returns_copy_when_no_reliable_nodes(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        sparse = SparseAdjacency.from_dense(adjacency)
        out = build_clustering_oriented_graph(sparse, assignments, np.array([], dtype=int), z)
        np.testing.assert_allclose(out.to_dense(), adjacency)
        assert out is not sparse

    def test_drops_inter_cluster_edges_between_reliable_nodes(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        all_nodes = np.arange(z.shape[0])
        out = self._transform(adjacency, assignments, all_nodes, z)
        assert out[0, 10] == 0.0 and out[5, 15] == 0.0

    def test_adds_centroid_edges(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        all_nodes = np.arange(z.shape[0])
        out = self._transform(adjacency, assignments, all_nodes, z)
        added = (out > adjacency).sum()
        assert added > 0

    def test_result_is_symmetric_binary(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        out = self._transform(adjacency, assignments, np.arange(z.shape[0]), z)
        np.testing.assert_allclose(out, out.T)
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_add_only_and_drop_only_toggles(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        nodes = np.arange(z.shape[0])
        add_only = self._transform(adjacency, assignments, nodes, z, drop_edges=False)
        drop_only = self._transform(adjacency, assignments, nodes, z, add_edges=False)
        # add-only never removes existing edges.
        assert np.all(add_only >= adjacency)
        # drop-only never adds edges.
        assert np.all(drop_only <= adjacency)

    def test_operator_object_uses_toggles(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        nodes = np.arange(z.shape[0])
        out = GraphTransformOperator(add_edges=False, drop_edges=False)(
            SparseAdjacency.from_dense(adjacency), assignments, nodes, z
        )
        np.testing.assert_allclose(out.to_dense(), adjacency)

    def test_full_transform_creates_star_subgraphs(self, rng):
        # With all nodes reliable, no prior edges, the output should contain
        # K star-shaped sub-graphs (the Figure 4 end state).
        z, labels = two_blob_embeddings(rng, n_per=12)
        adjacency = SparseAdjacency.from_dense(np.zeros((z.shape[0], z.shape[0])))
        assignments = hard_to_one_hot(labels)
        out = build_clustering_oriented_graph(adjacency, assignments, np.arange(z.shape[0]), z)
        assert star_subgraph_count(out, min_leaves=3) == 2

    def test_respects_original_graph_as_base(self, rng):
        adjacency, assignments, z, _ = self._setup(rng)
        nodes = np.arange(z.shape[0])
        out = self._transform(adjacency, assignments, nodes, z)
        # intra-cluster original edges between reliable nodes must survive
        assert out[2, 3] == 1.0 and out[12, 13] == 1.0


class TestSupervisionGraphs:
    def test_membership_graph_weights(self):
        labels = np.array([0, 0, 1])
        graph = membership_graph(labels)
        np.testing.assert_allclose(graph[0, 1], 0.5)
        np.testing.assert_allclose(graph[2, 2], 1.0)
        np.testing.assert_allclose(graph[0, 2], 0.0)

    def test_membership_graph_rows_sum_to_one(self, rng):
        labels = rng.integers(0, 4, size=50)
        graph = membership_graph(labels, num_clusters=4)
        np.testing.assert_allclose(graph.sum(axis=1), 1.0, atol=1e-9)

    def test_clustering_graph_uses_argmax(self, rng):
        soft = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        graph = clustering_graph(soft)
        assert graph[0, 1] > 0.0 and graph[0, 2] == 0.0

    def test_supervision_graph_matches_membership(self):
        labels = np.array([0, 1, 0, 1])
        np.testing.assert_allclose(supervision_graph(labels), membership_graph(labels))

    def test_oracle_assignment_is_one_hot_and_aligned(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        predicted = hard_to_one_hot(np.array([2, 2, 0, 0, 1, 1]), 3)
        oracle = aligned_oracle_assignments(true, predicted)
        np.testing.assert_allclose(oracle.sum(axis=1), 1.0)
        # Perfect (permuted) clustering: the oracle must equal the prediction.
        np.testing.assert_allclose(oracle, predicted)

    def test_oracle_assignment_imperfect_clustering(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        predicted_hard = np.array([0, 0, 1, 1, 1, 1])
        oracle = aligned_oracle_assignments(true, hard_to_one_hot(predicted_hard, 2))
        # Nodes of true class 0 map to predicted cluster 0, class 1 to cluster 1.
        np.testing.assert_allclose(oracle[:3, 0], 1.0)
        np.testing.assert_allclose(oracle[3:, 1], 1.0)
