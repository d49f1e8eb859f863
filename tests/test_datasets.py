"""Tests for the dataset registry and feature construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    air_traffic_datasets,
    available_datasets,
    citation_datasets,
    dataset_summary,
    degree_one_hot_features,
    load_dataset,
    row_normalize,
)
from repro.graph.sparse import SparseAdjacency
from repro.graph.stats import homophily


class TestRegistry:
    def test_six_datasets_registered(self):
        assert len(available_datasets()) == 6

    def test_citation_and_airtraffic_partition(self):
        assert set(citation_datasets()) | set(air_traffic_datasets()) == set(available_datasets())
        assert not set(citation_datasets()) & set(air_traffic_datasets())

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("cora")  # real name, not the surrogate

    def test_determinism_per_seed(self):
        a = load_dataset("brazil_air_sim", seed=1)
        b = load_dataset("brazil_air_sim", seed=1)
        np.testing.assert_allclose(a.adjacency.to_dense(), b.adjacency.to_dense())

    def test_different_seeds_differ(self):
        a = load_dataset("brazil_air_sim", seed=1)
        b = load_dataset("brazil_air_sim", seed=2)
        assert not np.allclose(a.adjacency.to_dense(), b.adjacency.to_dense())

    @pytest.mark.parametrize(
        "name,clusters",
        [
            ("cora_sim", 7),
            ("citeseer_sim", 6),
            ("pubmed_sim", 3),
            ("usa_air_sim", 4),
            ("europe_air_sim", 4),
            ("brazil_air_sim", 4),
        ],
    )
    def test_cluster_counts_match_paper(self, name, clusters):
        graph = load_dataset(name)
        assert graph.num_clusters == clusters
        graph.validate()

    def test_citation_datasets_are_homophilous(self):
        for name in citation_datasets():
            graph = load_dataset(name)
            assert homophily(graph.adjacency, graph.labels) > 0.5

    def test_features_are_row_normalized(self):
        graph = load_dataset("cora_sim")
        norms = np.linalg.norm(graph.features.to_dense(), axis=1)
        nonzero = norms > 0
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-9)

    def test_air_traffic_uses_degree_features(self):
        graph = load_dataset("brazil_air_sim")
        # One-hot rows before normalisation become single-spike rows after.
        assert np.all((graph.features > 0).sum(axis=1) == 1)

    def test_summary_reports_surrogate(self):
        summary = dataset_summary("cora_sim")
        assert summary["surrogate_of"] == "Cora"
        assert summary["num_nodes"] == 600


class TestFeatures:
    def test_degree_one_hot_shape_and_rows(self):
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[1, 2] = adjacency[2, 1] = 1.0
        features = degree_one_hot_features(SparseAdjacency.from_dense(adjacency))
        assert features.shape == (4, 3)  # max degree 2 -> columns 0..2
        np.testing.assert_allclose(features.sum(axis=1), 1.0)
        assert features[1, 2] == 1.0  # node 1 has degree 2

    def test_degree_one_hot_caps_at_max_degree(self):
        adjacency = np.ones((5, 5)) - np.eye(5)
        features = degree_one_hot_features(
            SparseAdjacency.from_dense(adjacency), max_degree=2
        )
        assert features.shape == (5, 3)
        np.testing.assert_allclose(features[:, 2], 1.0)

    def test_row_normalize_l2(self, rng):
        features = rng.random((5, 4))
        normalized = row_normalize(features)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_row_normalize_l1(self, rng):
        features = rng.random((5, 4))
        normalized = row_normalize(features, norm="l1")
        np.testing.assert_allclose(normalized.sum(axis=1), 1.0)

    def test_row_normalize_preserves_zero_rows(self):
        features = np.zeros((3, 4))
        np.testing.assert_allclose(row_normalize(features), 0.0)

    def test_row_normalize_unknown_norm(self, rng):
        with pytest.raises(ValueError):
            row_normalize(rng.random((2, 2)), norm="linf")
