"""Tests for the Hungarian matching and the ACC / NMI / ARI metrics.

scipy's ``linear_sum_assignment`` is a test-only oracle for the library's
own solver (``pip install -e .[test]`` brings it in).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.metrics import (
    adjusted_rand_index,
    align_labels,
    clustering_accuracy,
    evaluate_clustering,
    hungarian_matching,
    normalized_mutual_information,
)
from repro.metrics.hungarian import hungarian_algorithm
from repro.metrics.nmi import contingency_matrix


class TestHungarian:
    def test_pure_implementation_matches_scipy(self, rng):
        for _ in range(10):
            cost = rng.random((5, 5))
            rows_a, cols_a = hungarian_algorithm(cost)
            rows_b, cols_b = linear_sum_assignment(cost)
            assert cost[rows_a, cols_a].sum() == pytest.approx(cost[rows_b, cols_b].sum())

    def test_tie_heavy_costs_match_scipy_total(self, rng):
        # Small integer costs tie a lot: the two solvers may pick different
        # optimal matchings, but never a different total cost.
        for _ in range(1000):
            cost = rng.integers(0, 4, size=(7, 7)).astype(np.float64)
            rows_a, cols_a = hungarian_algorithm(cost)
            rows_b, cols_b = linear_sum_assignment(cost)
            assert sorted(cols_a) == list(range(7))
            assert cost[rows_a, cols_a].sum() == cost[rows_b, cols_b].sum()

    def test_pure_implementation_rectangular(self, rng):
        cost = rng.random((3, 6))
        rows, cols = hungarian_algorithm(cost)
        assert len(rows) == 3
        rows_b, cols_b = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[rows_b, cols_b].sum())

    def test_matching_identity(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        mapping = hungarian_matching(labels, labels)
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_matching_permutation(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        mapping = hungarian_matching(true, pred)
        assert mapping[2] == 0 and mapping[0] == 1 and mapping[1] == 2

    def test_align_labels_recovers_permutation(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 2, 2, 0, 0])
        np.testing.assert_array_equal(align_labels(true, pred), true)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hungarian_matching(np.array([0, 1]), np.array([0]))


class TestAccuracy:
    def test_perfect_clustering(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert clustering_accuracy(labels, labels) == 1.0

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        assert clustering_accuracy(true, pred) == 1.0

    def test_partial_agreement(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 1, 1, 1, 1])
        assert clustering_accuracy(true, pred) == pytest.approx(5.0 / 6.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            clustering_accuracy(np.array([]), np.array([]))

    def test_all_in_one_cluster(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.zeros(6, dtype=int)
        assert clustering_accuracy(true, pred) == pytest.approx(2.0 / 6.0)


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([5, 5, 3, 3])
        assert normalized_mutual_information(true, pred) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self, rng):
        true = np.repeat([0, 1], 500)
        pred = rng.integers(0, 2, size=1000)
        assert normalized_mutual_information(true, pred) < 0.05

    def test_single_cluster_prediction_zero(self):
        true = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=int)
        assert normalized_mutual_information(true, pred) == 0.0

    def test_geometric_average_option(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 0, 1, 2, 2, 2])
        arithmetic = normalized_mutual_information(true, pred, average="arithmetic")
        geometric = normalized_mutual_information(true, pred, average="geometric")
        assert 0.0 < arithmetic <= 1.0 and 0.0 < geometric <= 1.0

    def test_unknown_average_raises(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.array([0, 1]), np.array([0, 1]), average="max")

    def test_contingency_matrix_counts(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        matrix = contingency_matrix(true, pred)
        assert matrix.sum() == 4
        assert matrix[0, 0] == 1 and matrix[1, 1] == 2


class TestARI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(true, pred) == pytest.approx(1.0)

    def test_random_partition_near_zero(self, rng):
        true = np.repeat([0, 1, 2], 300)
        pred = rng.integers(0, 3, size=900)
        assert abs(adjusted_rand_index(true, pred)) < 0.05

    def test_can_be_negative(self):
        # Systematic disagreement worse than chance.
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        assert adjusted_rand_index(true, pred) <= 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            adjusted_rand_index(np.array([0, 1]), np.array([0]))


class TestReport:
    def test_evaluate_clustering_bundles_metrics(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([1, 1, 0, 0, 2, 2])
        report = evaluate_clustering(true, pred)
        assert report.accuracy == pytest.approx(1.0)
        assert report.nmi == pytest.approx(1.0)
        assert report.ari == pytest.approx(1.0)

    def test_report_percentages_and_str(self):
        report = evaluate_clustering(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1]))
        percentages = report.as_percentages()
        assert percentages["acc"] == pytest.approx(100.0 * report.accuracy)
        assert "ACC=" in str(report)

    def test_report_dict_keys(self):
        report = evaluate_clustering(np.array([0, 1]), np.array([0, 1]))
        assert set(report.as_dict()) == {"acc", "nmi", "ari"}
