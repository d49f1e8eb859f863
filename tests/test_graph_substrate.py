"""Tests for the graph container, normalisation, generators, edits, stats and IO."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph import (
    AttributedGraph,
    add_feature_noise,
    add_random_edges,
    add_self_loops,
    attributed_sbm_graph,
    degree_corrected_sbm,
    degree_matrix,
    degree_vector,
    density,
    drop_random_edges,
    drop_random_features,
    edge_count,
    edge_difference,
    graph_laplacian,
    homophily,
    laplacian_quadratic_form,
    load_graph_npz,
    normalize_adjacency,
    planted_partition_features,
    save_graph_npz,
    star_subgraph_count,
    stochastic_block_model,
    connected_components,
)
from repro.graph.generators import ROW_BLOCK, _cluster_sizes
from repro.graph.sparse import SparseAdjacency
from repro.graph.stats import describe


def _one_shot_sbm(num_nodes, proportions, p_intra, p_inter, rng, degree_exponent=None):
    """The historical SBM generators: one (N, N) uniform draw whose upper
    triangle is mirrored; ``degree_exponent`` switches to the
    degree-corrected variant."""
    sizes = _cluster_sizes(num_nodes, proportions)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, p_intra, p_inter)
    if degree_exponent is not None:
        propensity = rng.pareto(degree_exponent, size=num_nodes) + 1.0
        propensity = propensity / propensity.mean()
        probs = np.clip(probs * propensity[:, None] * propensity[None, :], 0.0, 1.0)
    upper = np.triu(rng.random((num_nodes, num_nodes)) < probs, k=1)
    return (upper | upper.T).astype(np.float64), labels


def _full_block_sbm(num_nodes, proportions, p_intra, p_inter, rng, degree_exponent=None):
    """The row-block SBM generators before the two-pass block read: each
    uniform block is compared over all N columns through a same-label
    mask, and the upper triangle is kept afterwards."""
    sizes = _cluster_sizes(num_nodes, proportions)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    propensity = None
    if degree_exponent is not None:
        propensity = rng.pareto(degree_exponent, size=num_nodes) + 1.0
        propensity = propensity / propensity.mean()
    sources, targets = [], []
    for start in range(0, num_nodes, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        same = labels[block, None] == labels[None, :]
        if propensity is None:
            uniforms = rng.random(same.shape)
            kept = np.where(same, uniforms < p_intra, uniforms < p_inter)
        else:
            probs = np.where(same, p_intra, p_inter)
            probs = np.clip(probs * propensity[block, None] * propensity[None, :], 0.0, 1.0)
            kept = rng.random(probs.shape) < probs
        rows, cols = np.nonzero(kept)
        rows += start
        upper = cols > rows
        sources.append(rows[upper])
        targets.append(cols[upper])
    edges = np.stack([np.concatenate(sources), np.concatenate(targets)], axis=1)
    return SparseAdjacency.from_edges(edges, num_nodes), labels


def _one_shot_features(labels, num_features, active_per_class, signal, noise, rng):
    """The historical planted-partition features: one (N, F) uniform draw."""
    features = (rng.random((labels.shape[0], num_features)) < noise).astype(np.float64)
    for klass in range(int(labels.max()) + 1):
        members = np.flatnonzero(labels == klass)
        words = np.arange(klass * active_per_class, (klass + 1) * active_per_class)
        activations = rng.random((members.shape[0], active_per_class)) < signal
        features[np.ix_(members, words)] = np.maximum(features[np.ix_(members, words)], activations)
    empty = features.sum(axis=1) == 0
    if np.any(empty):
        cols = rng.integers(0, num_features, size=int(empty.sum()))
        features[np.flatnonzero(empty), cols] = 1.0
    return features


def _dense_edge_difference(original, modified, labels):
    """Figure 9's link bookkeeping on dense upper triangles (the reference)."""
    original = np.triu(np.asarray(original) > 0, k=1)
    modified = np.triu(np.asarray(modified) > 0, k=1)
    labels = np.asarray(labels)
    same_label = labels[:, None] == labels[None, :]
    added = modified & ~original
    deleted = original & ~modified
    stats = {}
    for name, mask in (("total", modified), ("added", added), ("deleted", deleted)):
        stats[f"{name}_links"] = int(mask.sum())
        stats[f"{name}_true_links"] = int(np.sum(mask & same_label))
        stats[f"{name}_false_links"] = int(np.sum(mask & ~same_label))
    return stats


class TestAttributedGraph:
    def test_basic_properties(self, tiny_graph):
        assert tiny_graph.num_nodes == 90
        assert tiny_graph.num_features == 40
        assert tiny_graph.num_clusters == 3
        assert tiny_graph.num_edges == edge_count(tiny_graph.adjacency)

    def test_rejects_asymmetric_adjacency(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = 1.0
        with pytest.raises(ValueError):
            AttributedGraph(adjacency, np.zeros((3, 2)))

    def test_rejects_self_loops(self):
        adjacency = np.eye(3)
        with pytest.raises(ValueError):
            AttributedGraph(adjacency, np.zeros((3, 2)))

    def test_rejects_non_binary(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 0.5
        with pytest.raises(ValueError):
            AttributedGraph(adjacency, np.zeros((3, 2)))

    def test_rejects_feature_shape_mismatch(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), np.zeros((4, 2)))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), np.zeros((3, 2)), labels=np.zeros(4, dtype=int))

    def test_num_clusters_from_metadata(self):
        graph = AttributedGraph(np.zeros((3, 3)), np.zeros((3, 2)), metadata={"num_clusters": 5})
        assert graph.num_clusters == 5

    def test_num_clusters_without_info_raises(self):
        graph = AttributedGraph(np.zeros((3, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            graph.num_clusters

    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.adjacency.data[0] = 1.0 - clone.adjacency.data[0]
        assert clone.adjacency.data[0] != tiny_graph.adjacency.data[0]

    def test_with_adjacency_keeps_features(self, tiny_graph):
        new_adj = np.zeros((tiny_graph.num_nodes, tiny_graph.num_nodes))
        modified = tiny_graph.with_adjacency(new_adj)
        assert modified.num_edges == 0
        np.testing.assert_allclose(modified.features, tiny_graph.features)

    def test_neighbors_and_edge_list_consistent(self, tiny_graph):
        edges = tiny_graph.edge_list()
        assert edges.shape[1] == 2
        node = int(edges[0, 0])
        assert edges[0, 1] in tiny_graph.neighbors(node)

    def test_sorts_unsorted_csr_rows(self):
        # Edges (0, 1) and (0, 2), with row 0 listing its columns backwards.
        unsorted = SparseAdjacency(
            np.ones(4), np.array([2, 1, 0, 0]), np.array([0, 2, 3, 4]), (3, 3)
        )
        graph = AttributedGraph(unsorted, np.zeros((3, 2)))
        np.testing.assert_array_equal(graph.adjacency.indices, [1, 2, 0, 0])
        np.testing.assert_array_equal(graph.adjacency.to_dense(), unsorted.to_dense())
        assert graph.num_edges == 2

    def test_rejects_duplicate_csr_entries(self):
        duplicated = SparseAdjacency(
            np.ones(4), np.array([1, 1, 0, 0]), np.array([0, 2, 4, 4]), (3, 3)
        )
        with pytest.raises(ValueError, match="duplicate"):
            AttributedGraph(duplicated, np.zeros((3, 2)))

    def test_rejects_asymmetric_csr(self):
        one_way = SparseAdjacency(np.ones(1), np.array([1]), np.array([0, 1, 1]), (2, 2))
        with pytest.raises(ValueError, match="symmetric"):
            AttributedGraph(one_way, np.zeros((2, 2)))

    def test_row_normalized_features_unit_norm(self, tiny_graph):
        normalized = tiny_graph.row_normalized_features()
        norms = np.linalg.norm(normalized, axis=1)
        nonzero = np.linalg.norm(tiny_graph.features, axis=1) > 0
        np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-9)


class TestLaplacian:
    def test_degree_vector_matches_row_sums(self, tiny_graph):
        np.testing.assert_allclose(
            degree_vector(tiny_graph.adjacency), tiny_graph.adjacency.to_dense().sum(axis=1)
        )

    def test_degree_matrix_is_diagonal(self, tiny_graph):
        matrix = degree_matrix(tiny_graph.adjacency)
        assert np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0

    def test_add_self_loops(self):
        adjacency = np.zeros((3, 3))
        np.testing.assert_allclose(np.diag(add_self_loops(adjacency)), 1.0)

    def test_normalized_adjacency_symmetric(self, tiny_graph):
        norm = normalize_adjacency(tiny_graph.adjacency.to_dense())
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)

    def test_normalized_adjacency_spectral_radius_at_most_one(self, tiny_graph):
        norm = normalize_adjacency(tiny_graph.adjacency.to_dense(), self_loops=True)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_normalized_adjacency_handles_isolated_nodes(self):
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        norm = normalize_adjacency(adjacency, self_loops=False)
        assert np.all(np.isfinite(norm))
        assert norm[2].sum() == 0.0

    def test_laplacian_row_sums_zero(self, tiny_graph):
        lap = graph_laplacian(tiny_graph.adjacency)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9)

    def test_laplacian_quadratic_form_matches_direct_sum(self, rng):
        z = rng.normal(size=(8, 3))
        a = (rng.random((8, 8)) > 0.6).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        direct = 0.5 * sum(
            a[i, j] * np.sum((z[i] - z[j]) ** 2) for i in range(8) for j in range(8)
        )
        assert laplacian_quadratic_form(z, a) == pytest.approx(direct)

    def test_laplacian_quadratic_form_zero_for_identical_embeddings(self):
        z = np.ones((5, 2))
        a = np.ones((5, 5)) - np.eye(5)
        assert laplacian_quadratic_form(z, a) == pytest.approx(0.0)

    def test_laplacian_quadratic_form_asymmetric_weights(self, rng):
        z = rng.normal(size=(5, 2))
        a = rng.random((5, 5))
        direct = 0.5 * sum(
            a[i, j] * np.sum((z[i] - z[j]) ** 2) for i in range(5) for j in range(5)
        )
        assert laplacian_quadratic_form(z, a) == pytest.approx(direct)


class TestGenerators:
    def test_sbm_shapes_and_labels(self, rng):
        adjacency, labels = stochastic_block_model(60, [0.5, 0.3, 0.2], 0.3, 0.02, rng)
        assert adjacency.shape == (60, 60)
        assert labels.shape == (60,)
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_sbm_homophily_above_noise(self, rng):
        adjacency, labels = stochastic_block_model(200, [0.5, 0.5], 0.2, 0.02, rng)
        assert homophily(adjacency, labels) > 0.6

    def test_sbm_rejects_bad_probabilities(self, rng):
        with pytest.raises(ValueError):
            stochastic_block_model(10, [0.5, 0.5], 0.1, 0.5, rng)

    def test_degree_corrected_sbm_has_hubs(self, rng):
        adjacency, _ = degree_corrected_sbm(200, [0.25] * 4, 0.1, 0.02, rng, degree_exponent=2.0)
        degrees = adjacency.out_degrees()
        assert degrees.max() > 3.0 * degrees.mean()

    @pytest.mark.parametrize("num_nodes", [ROW_BLOCK // 2 + 1, 2 * ROW_BLOCK + 37])
    @pytest.mark.parametrize("degree_exponent", [None, 2.0])
    def test_row_blocks_reproduce_the_one_shot_draw(self, num_nodes, degree_exponent):
        """Row-block sampling yields the graph, the labels and the generator
        state of one (N, N) draw, so seeds keep giving the same graphs."""
        proportions, p_intra, p_inter = [0.5, 0.3, 0.2], 0.08, 0.01
        reference_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        expected, expected_labels = _one_shot_sbm(
            num_nodes, proportions, p_intra, p_inter, reference_rng, degree_exponent
        )
        if degree_exponent is None:
            adjacency, labels = stochastic_block_model(
                num_nodes, proportions, p_intra, p_inter, rng
            )
        else:
            adjacency, labels = degree_corrected_sbm(
                num_nodes, proportions, p_intra, p_inter, rng, degree_exponent
            )
        np.testing.assert_array_equal(adjacency.to_dense(), expected)
        np.testing.assert_array_equal(labels, expected_labels)
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("num_nodes", [1, 7, 255, 256, 257, 600, 1000])
    @pytest.mark.parametrize(
        "p_intra, p_inter", [(0.3, 0.02), (0.05, 0.004), (0.1, 0.1), (0.2, 0.0), (1.0, 0.01)]
    )
    @pytest.mark.parametrize("degree_exponent", [None, 2.5])
    def test_two_pass_block_read_matches_the_full_block(
        self, num_nodes, p_intra, p_inter, degree_exponent
    ):
        """Reading only the columns >= a block's first row, in two passes
        for the plain SBM, yields the CSR bytes and the generator state of
        the full-block sampler."""
        proportions = [0.5, 0.3, 0.2]
        for seed in range(4):
            reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, expected_labels = _full_block_sbm(
                num_nodes, proportions, p_intra, p_inter, reference_rng, degree_exponent
            )
            if degree_exponent is None:
                adjacency, labels = stochastic_block_model(
                    num_nodes, proportions, p_intra, p_inter, rng
                )
            else:
                adjacency, labels = degree_corrected_sbm(
                    num_nodes, proportions, p_intra, p_inter, rng, degree_exponent
                )
            for name in ("indptr", "indices", "data"):
                actual, wanted = getattr(adjacency, name), getattr(expected, name)
                assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes()
            np.testing.assert_array_equal(labels, expected_labels)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("num_nodes", [ROW_BLOCK // 2 + 1, 2 * ROW_BLOCK + 37])
    @pytest.mark.parametrize("noise", [0.01, 0.0])
    def test_feature_row_blocks_reproduce_the_one_shot_draw(self, num_nodes, noise):
        """Row-block feature sampling yields the features and the generator
        state of one (N, F) draw, empty-row fill-ins included (noise 0
        leaves most rows without a noise word)."""
        labels = np.random.default_rng(0).integers(0, 4, num_nodes)
        reference_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        expected = _one_shot_features(labels, 90, 12, 0.2, noise, reference_rng)
        features = planted_partition_features(labels, 90, 12, 0.2, noise, rng)
        assert isinstance(features, SparseAdjacency)
        assert features.canonical() is features
        assert features.to_dense().tobytes() == expected.tobytes()
        assert rng.random() == reference_rng.random()

    def test_planted_features_no_empty_rows(self, rng):
        labels = np.repeat(np.arange(3), 20)
        features = planted_partition_features(labels, 60, 10, 0.3, 0.01, rng)
        assert np.all(features.to_dense().sum(axis=1) > 0)

    def test_planted_features_class_correlation(self, rng):
        labels = np.repeat(np.arange(2), 50)
        features = planted_partition_features(labels, 40, 10, 0.5, 0.01, rng).to_dense()
        class0_block = features[labels == 0][:, :10].mean()
        class1_block = features[labels == 1][:, :10].mean()
        assert class0_block > 5.0 * class1_block

    def test_planted_features_vocabulary_check(self, rng):
        labels = np.repeat(np.arange(5), 4)
        with pytest.raises(ValueError):
            planted_partition_features(labels, 10, 3, 0.3, 0.01, rng)

    def test_attributed_sbm_deterministic_per_seed(self):
        a = attributed_sbm_graph(50, [0.5, 0.5], 0.2, 0.02, 30, 5, 0.3, 0.01, seed=3)
        b = attributed_sbm_graph(50, [0.5, 0.5], 0.2, 0.02, 30, 5, 0.3, 0.01, seed=3)
        np.testing.assert_allclose(a.adjacency.to_dense(), b.adjacency.to_dense())
        np.testing.assert_allclose(a.features, b.features)

    def test_attributed_sbm_degree_onehot_mode(self):
        graph = attributed_sbm_graph(
            40, [0.5, 0.5], 0.2, 0.05, 11, 0, 0.0, 0.0, seed=1, features="degree_onehot"
        )
        np.testing.assert_allclose(graph.features.sum(axis=1), 1.0)

    def test_attributed_sbm_unknown_feature_mode(self):
        with pytest.raises(ValueError):
            attributed_sbm_graph(20, [1.0], 0.2, 0.0, 5, 1, 0.5, 0.0, seed=0, features="bogus")


class TestGraphOps:
    def test_add_random_edges_increases_count(self, tiny_graph, rng):
        modified = add_random_edges(tiny_graph, 15, rng)
        assert modified.num_edges == tiny_graph.num_edges + 15
        modified.validate()

    def test_add_random_edges_too_many(self, tiny_graph, rng):
        possible = tiny_graph.num_nodes * (tiny_graph.num_nodes - 1) // 2
        with pytest.raises(ValueError):
            add_random_edges(tiny_graph, possible, rng)

    def test_drop_random_edges_decreases_count(self, tiny_graph, rng):
        modified = drop_random_edges(tiny_graph, 10, rng)
        assert modified.num_edges == tiny_graph.num_edges - 10
        modified.validate()

    def test_drop_random_edges_too_many(self, tiny_graph, rng):
        with pytest.raises(ValueError):
            drop_random_edges(tiny_graph, tiny_graph.num_edges + 1, rng)

    def test_add_feature_noise_zero_variance_identity(self, tiny_graph, rng):
        modified = add_feature_noise(tiny_graph, 0.0, rng)
        np.testing.assert_allclose(modified.features, tiny_graph.features)

    def test_add_feature_noise_changes_features(self, tiny_graph, rng):
        modified = add_feature_noise(tiny_graph, 0.1, rng)
        assert not np.allclose(modified.features, tiny_graph.features)

    def test_add_feature_noise_rejects_negative_variance(self, tiny_graph, rng):
        with pytest.raises(ValueError):
            add_feature_noise(tiny_graph, -0.1, rng)

    def test_drop_random_features_zeroes_columns(self, tiny_graph, rng):
        modified = drop_random_features(tiny_graph, 5, rng)
        zero_columns = np.sum(modified.features.sum(axis=0) == 0)
        assert zero_columns >= 5

    def test_drop_random_features_too_many(self, tiny_graph, rng):
        with pytest.raises(ValueError):
            drop_random_features(tiny_graph, tiny_graph.num_features + 1, rng)

    def test_edge_difference_counts(self):
        labels = np.array([0, 0, 1, 1])
        original = np.zeros((4, 4))
        original[0, 2] = original[2, 0] = 1.0  # false link to be deleted
        modified = np.zeros((4, 4))
        modified[0, 1] = modified[1, 0] = 1.0  # true link added
        stats = edge_difference(
            SparseAdjacency.from_dense(original), SparseAdjacency.from_dense(modified), labels
        )
        assert stats["added_true_links"] == 1
        assert stats["added_false_links"] == 0
        assert stats["deleted_false_links"] == 1
        assert stats["total_links"] == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_edge_difference_matches_dense_reference(self, seed, symmetric):
        rng = np.random.default_rng(seed)
        n = 41
        labels = rng.integers(0, 3, size=n)
        original = (rng.random((n, n)) < 0.12).astype(float)
        # Drop about a third of the links and add new ones elsewhere.
        modified = original * (rng.random((n, n)) > 0.35) + (rng.random((n, n)) < 0.05)
        modified = np.minimum(modified, 1.0)
        if symmetric:
            original = np.maximum(original, original.T)
            modified = np.maximum(modified, modified.T)
        np.fill_diagonal(modified, 1.0)  # stored diagonal entries are not links
        stats = edge_difference(
            SparseAdjacency.from_dense(original), SparseAdjacency.from_dense(modified), labels
        )
        assert stats == _dense_edge_difference(original, modified, labels)
        assert stats["added_links"] > 0 and stats["deleted_links"] > 0


class TestStats:
    def test_density_bounds(self, tiny_graph):
        value = density(tiny_graph.adjacency)
        assert 0.0 < value < 1.0

    def test_density_empty_graph(self):
        assert density(SparseAdjacency.from_dense(np.zeros((1, 1)))) == 0.0

    def test_homophily_perfect_for_block_diagonal(self):
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[2, 3] = adjacency[3, 2] = 1.0
        sparse = SparseAdjacency.from_dense(adjacency)
        assert homophily(sparse, np.array([0, 0, 1, 1])) == 1.0

    def test_homophily_zero_edges(self):
        empty = SparseAdjacency.from_dense(np.zeros((3, 3)))
        assert homophily(empty, np.array([0, 1, 2])) == 0.0

    def test_connected_components_partition(self, tiny_graph):
        components = connected_components(tiny_graph.adjacency)
        total = sum(len(component) for component in components)
        assert total == tiny_graph.num_nodes

    def test_star_subgraph_count_detects_star(self):
        adjacency = np.zeros((5, 5))
        for leaf in range(1, 5):
            adjacency[0, leaf] = adjacency[leaf, 0] = 1.0
        assert star_subgraph_count(SparseAdjacency.from_dense(adjacency)) == 1

    def test_describe_contains_expected_keys(self, tiny_graph):
        summary = describe(tiny_graph)
        for key in ("num_nodes", "num_edges", "density", "homophily", "cluster_sizes"):
            assert key in summary


class TestGraphIO:
    def test_npz_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_graph_npz(tiny_graph, path)
        loaded = load_graph_npz(path)
        np.testing.assert_allclose(loaded.adjacency.to_dense(), tiny_graph.adjacency.to_dense())
        np.testing.assert_allclose(loaded.features, tiny_graph.features)
        np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)
        assert loaded.name == tiny_graph.name
        assert loaded.metadata["num_clusters"] == tiny_graph.metadata["num_clusters"]

    def test_npz_roundtrip_without_labels(self, tmp_path):
        graph = AttributedGraph(np.zeros((3, 3)), np.ones((3, 2)), metadata={"num_clusters": 1})
        path = tmp_path / "nolabels.npz"
        save_graph_npz(graph, path)
        assert load_graph_npz(path).labels is None

    def test_npz_roundtrip_of_csr_features(self, tmp_path):
        """A ≥ 256-node graph keeps its CSR adjacency and features, bytewise,
        in an archive of plain arrays (no dense (N, N) array, no pickle)."""
        graph = attributed_sbm_graph(
            300, [0.5, 0.5], 0.05, 0.005, 400, 20, 0.2, 0.005, seed=1, name="csr"
        )
        assert isinstance(graph.features, SparseAdjacency)
        path = tmp_path / "csr.npz"
        save_graph_npz(graph, path)
        with np.load(path, allow_pickle=False) as archive:
            assert "adjacency" not in archive.files and "features" not in archive.files
            assert archive["adjacency_indptr"].shape == (graph.num_nodes + 1,)
        loaded = load_graph_npz(path)
        assert isinstance(loaded.features, SparseAdjacency)
        for name in ("data", "indices", "indptr"):
            for matrix in ("adjacency", "features"):
                expected = getattr(getattr(graph, matrix), name)
                assert getattr(getattr(loaded, matrix), name).tobytes() == expected.tobytes()
        assert loaded.features.shape == graph.features.shape
        np.testing.assert_array_equal(loaded.labels, graph.labels)
        assert loaded.name == "csr" and loaded.metadata == graph.metadata

    def test_npz_loads_the_dense_layout(self, tiny_graph, tmp_path):
        """Archives that hold the dense adjacency and features still load."""
        path = tmp_path / "dense.npz"
        np.savez_compressed(
            path,
            adjacency=tiny_graph.adjacency.to_dense(),
            features=tiny_graph.features,
            labels=tiny_graph.labels,
            name=np.array(tiny_graph.name),
            metadata_json=np.array(json.dumps(tiny_graph.metadata)),
        )
        loaded = load_graph_npz(path)
        assert loaded.adjacency.indices.tobytes() == tiny_graph.adjacency.indices.tobytes()
        assert loaded.adjacency.indptr.tobytes() == tiny_graph.adjacency.indptr.tobytes()
        assert loaded.features.tobytes() == tiny_graph.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)
        assert loaded.metadata == tiny_graph.metadata
