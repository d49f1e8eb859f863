"""Vectorised kernels vs. the historical loop implementations.

The PR that batched the clustering hot path (multi-restart KMeans, the GMM
E/M steps, the Υ graph transform, the Hungarian post-processing) keeps the
pre-PR per-cluster / per-restart / per-neighbour loops here as
``_reference_*`` implementations and pins 1e-10 agreement under fixed
seeds, including the awkward corners: empty-cluster reseeding, clusters
with no reliable nodes, and all-``-inf`` log-sum-exp rows.  The last class
checks that :func:`repro.parallel.run_sweep` is a pure throughput knob —
``jobs=4`` returns bitwise the same per-seed results as ``jobs=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.clustering.kmeans as kmeans_module
from repro.clustering.gmm import GaussianMixture, _logsumexp
from repro.clustering.kmeans import (
    KMeans,
    _pairwise_sq_distances,
    batched_kmeans_plus_plus_init,
)
from repro.core.graph_transform import _cluster_centroid_nodes, build_clustering_oriented_graph
from repro.graph.sparse import SparseAdjacency
from repro.metrics.hungarian import align_labels, hungarian_matching
from repro.parallel import parallel_map, resolve_jobs, run_sweep


# ----------------------------------------------------------------------
# reference kernels: the pre-PR loop implementations, kept verbatim
# ----------------------------------------------------------------------
def _reference_batched_plus_plus(data, num_clusters, num_restarts, rng):
    """Per-restart loop consuming the same flat RNG stream as the batched init."""
    n = data.shape[0]
    centers = np.empty((num_restarts, num_clusters, data.shape[1]))
    firsts = rng.integers(0, n, size=num_restarts)
    closest = np.empty((num_restarts, n))
    for r in range(num_restarts):
        centers[r, 0] = data[firsts[r]]
        closest[r] = np.sum((data - centers[r, 0]) ** 2, axis=1)
    for index in range(1, num_clusters):
        draws = rng.random(num_restarts)
        for r in range(num_restarts):
            cumulative = np.cumsum(closest[r])
            total = cumulative[-1]
            if total <= 0.0:
                choice = min(int(draws[r] * n), n - 1)
            else:
                choice = min(int(np.sum(cumulative < draws[r] * total)), n - 1)
            centers[r, index] = data[choice]
            dist = np.sum((data - centers[r, index]) ** 2, axis=1)
            # The batched kernel computes this distance via the expanded
            # |x|² + |c|² - 2x·c form clamped at zero; mirror that here so
            # the incremental minima match bit for bit.
            expanded = (
                np.einsum("nd,nd->n", data, data)
                + centers[r, index] @ centers[r, index]
                - 2.0 * data @ centers[r, index]
            )
            np.maximum(expanded, 0.0, out=expanded)
            closest[r] = np.minimum(closest[r], expanded)
            del dist
    return centers


def _reference_lloyd(data, centers, max_iter, tol):
    """The historical single-restart Lloyd loop (per-cluster M-step)."""
    centers = centers.copy()
    for _ in range(max_iter):
        distances = _pairwise_sq_distances(data, centers)
        labels = np.argmin(distances, axis=1)
        new_centers = centers.copy()
        for cluster in range(centers.shape[0]):
            members = data[labels == cluster]
            if members.shape[0] > 0:
                new_centers[cluster] = members.mean(axis=0)
            else:
                # Re-seed empty clusters at the farthest point.
                farthest = int(np.argmax(distances.min(axis=1)))
                new_centers[cluster] = data[farthest]
        shift = float(np.linalg.norm(new_centers - centers))
        centers = new_centers
        if shift < tol:
            break
    distances = _pairwise_sq_distances(data, centers)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(data.shape[0]), labels].sum())
    return centers, labels, inertia


class _ReferenceGMMSteps:
    """The historical per-component GMM loops, parameterised externally."""

    def __init__(self, means, variances, weights):
        self.means_ = means.copy()
        self.variances_ = variances.copy()
        self.weights_ = weights.copy()
        self.num_components = means.shape[0]

    def log_prob(self, data):
        n, d = data.shape
        log_probs = np.empty((n, self.num_components))
        for k in range(self.num_components):
            var = self.variances_[k]
            diff = data - self.means_[k]
            log_det = np.sum(np.log(var))
            mahalanobis = np.sum(diff ** 2 / var, axis=1)
            log_probs[:, k] = -0.5 * (d * np.log(2.0 * np.pi) + log_det + mahalanobis)
        return log_probs

    def e_step(self, data):
        weighted = self.log_prob(data) + np.log(self.weights_ + 1e-300)
        log_norm = _logsumexp(weighted, axis=1)
        return np.exp(weighted - log_norm[:, None]), float(log_norm.mean())

    def m_step(self, data, responsibilities, reg_covar):
        counts = responsibilities.sum(axis=0) + 1e-12
        self.weights_ = counts / data.shape[0]
        self.means_ = (responsibilities.T @ data) / counts[:, None]
        for k in range(self.num_components):
            diff = data - self.means_[k]
            self.variances_[k] = (
                responsibilities[:, k] @ (diff ** 2)
            ) / counts[k] + reg_covar


def _reference_upsilon(adjacency, assignments, reliable_nodes, embeddings,
                       add_edges=True, drop_edges=True):
    """The historical dense Υ: per-cluster Π loop, per-node/per-neighbour edits."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    num_clusters = assignments.shape[1]
    hard = np.argmax(assignments, axis=1)
    result = adjacency.copy()
    if reliable_nodes.size == 0:
        return result
    centroid_nodes = {}
    reliable_labels = hard[reliable_nodes]
    for cluster in range(num_clusters):
        members = reliable_nodes[reliable_labels == cluster]
        if members.size == 0:
            continue
        mean_embedding = embeddings[members].mean(axis=0)
        distances = np.linalg.norm(embeddings[members] - mean_embedding, axis=1)
        centroid_nodes[cluster] = int(members[int(np.argmin(distances))])
    reliable_mask = np.zeros(adjacency.shape[0], dtype=bool)
    reliable_mask[reliable_nodes] = True
    for node in reliable_nodes:
        node_cluster = int(hard[node])
        if add_edges and node_cluster in centroid_nodes:
            centroid = centroid_nodes[node_cluster]
            if centroid != node and result[node, centroid] == 0:
                if int(hard[centroid]) == node_cluster:
                    result[node, centroid] = 1.0
                    result[centroid, node] = 1.0
        if drop_edges:
            for neighbor in np.flatnonzero(adjacency[node]):
                if reliable_mask[neighbor] and int(hard[neighbor]) != node_cluster:
                    result[node, neighbor] = 0.0
                    result[neighbor, node] = 0.0
    return result


def _clustered_data(rng, n=120, dim=5, num_clusters=4, spread=4.0):
    labels = rng.integers(0, num_clusters, n)
    return rng.standard_normal((n, dim)) + labels[:, None] * spread


# ----------------------------------------------------------------------
# KMeans
# ----------------------------------------------------------------------
class TestKMeansEquivalence:
    def test_batched_plus_plus_matches_loop_reference(self, rng):
        data = _clustered_data(rng)
        batched = batched_kmeans_plus_plus_init(
            data, 4, 6, np.random.default_rng(7)
        )
        reference = _reference_batched_plus_plus(
            data, 4, 6, np.random.default_rng(7)
        )
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-10)

    def test_batched_plus_plus_degenerate_data(self):
        """All points identical: the distance mass collapses to zero and the
        seeding must fall back to uniform picks instead of dividing by it."""
        data = np.ones((8, 3))
        centers = batched_kmeans_plus_plus_init(
            data, 3, 4, np.random.default_rng(0)
        )
        assert centers.shape == (4, 3, 3)
        np.testing.assert_allclose(centers, 1.0)

    def test_fit_matches_sequential_restart_reference(self, rng):
        data = _clustered_data(rng)
        model = KMeans(4, num_init=6, max_iter=40, tol=1e-6, seed=11).fit(data)
        # Re-derive the same initial centres the batched fit drew, then run
        # the historical loop Lloyd per restart and keep the first-best.
        centers = batched_kmeans_plus_plus_init(
            data, 4, 6, np.random.default_rng(11)
        )
        best = None
        for r in range(centers.shape[0]):
            run = _reference_lloyd(data, centers[r], max_iter=40, tol=1e-6)
            if best is None or run[2] < best[2]:
                best = run
        np.testing.assert_allclose(
            model.cluster_centers_, best[0], rtol=0.0, atol=1e-10
        )
        np.testing.assert_array_equal(model.labels_, best[1])
        assert model.inertia_ == pytest.approx(best[2], abs=1e-8)

    def test_empty_cluster_reseeding_matches_reference(self, monkeypatch, rng):
        """An initial centre far from every point leaves its cluster empty on
        the first iteration; batched and loop reseeding must agree."""
        data = _clustered_data(rng, n=60, num_clusters=2, spread=8.0)
        forced = np.stack(
            [np.vstack([data[0], data[-1], np.full(data.shape[1], 1e6)])]
        )

        monkeypatch.setattr(
            kmeans_module,
            "batched_kmeans_plus_plus_init",
            lambda *args, **kwargs: forced.copy(),
        )
        model = KMeans(3, num_init=1, max_iter=25, tol=1e-6, seed=0).fit(data)
        reference = _reference_lloyd(data, forced[0], max_iter=25, tol=1e-6)
        np.testing.assert_allclose(
            model.cluster_centers_, reference[0], rtol=0.0, atol=1e-10
        )
        np.testing.assert_array_equal(model.labels_, reference[1])

    def test_tol_zero_runs_all_iterations(self, rng):
        """tol=0 must keep every restart active for max_iter iterations (the
        benchmark relies on this to pin identical work in both kernels)."""
        data = _clustered_data(rng)
        a = KMeans(4, num_init=3, max_iter=1, tol=0.0, seed=3).fit(data)
        b = KMeans(4, num_init=3, max_iter=60, tol=0.0, seed=3).fit(data)
        assert b.inertia_ <= a.inertia_ + 1e-12


# ----------------------------------------------------------------------
# GaussianMixture
# ----------------------------------------------------------------------
class TestGMMEquivalence:
    def _init_params(self, rng, num_components=4, dim=5):
        means = rng.standard_normal((num_components, dim)) * 3.0
        variances = rng.random((num_components, dim)) + 0.5
        weights = rng.random(num_components) + 0.1
        return means, variances, weights / weights.sum()

    def test_log_prob_matches_loop_reference(self, rng):
        data = _clustered_data(rng)
        means, variances, weights = self._init_params(rng)
        mixture = GaussianMixture(4, seed=0)
        mixture.means_, mixture.variances_, mixture.weights_ = (
            means.copy(), variances.copy(), weights.copy()
        )
        reference = _ReferenceGMMSteps(means, variances, weights)
        np.testing.assert_allclose(
            mixture._log_prob(data), reference.log_prob(data),
            rtol=1e-10, atol=1e-10,
        )

    def test_full_em_matches_loop_reference(self, rng):
        """Both kernels agree to 1e-10 at every step of a ten-iteration EM run.

        The reference is re-synced to the vectorised parameters after each
        compared iteration: EM amplifies float-reassociation noise
        chaotically through ``exp`` on tail responsibilities, so a
        free-running trajectory comparison would test BLAS rounding luck,
        not kernel equivalence.  Re-syncing still exercises both kernels on
        the ten distinct parameter states the vectorised EM actually visits.
        """
        data = _clustered_data(rng)
        means, variances, weights = self._init_params(rng)
        mixture = GaussianMixture(4, seed=0, reg_covar=1e-6)
        mixture.means_, mixture.variances_, mixture.weights_ = (
            means.copy(), variances.copy(), weights.copy()
        )
        reference = _ReferenceGMMSteps(means, variances, weights)
        for _ in range(10):
            resp, log_likelihood = mixture._e_step(data)
            ref_resp, ref_ll = reference.e_step(data)
            np.testing.assert_allclose(resp, ref_resp, rtol=1e-10, atol=1e-12)
            assert log_likelihood == pytest.approx(ref_ll, abs=1e-10)
            mixture._m_step(data, resp)
            reference.m_step(data, ref_resp, reg_covar=1e-6)
            np.testing.assert_allclose(
                mixture.means_, reference.means_, rtol=1e-9, atol=1e-10
            )
            np.testing.assert_allclose(
                mixture.variances_, reference.variances_, rtol=1e-9, atol=1e-10
            )
            np.testing.assert_allclose(
                mixture.weights_, reference.weights_, rtol=1e-10, atol=1e-12
            )
            reference.means_ = mixture.means_.copy()
            reference.variances_ = mixture.variances_.copy()
            reference.weights_ = mixture.weights_.copy()

    def test_init_variances_match_per_cluster_loop(self, monkeypatch, rng):
        """The scatter-add variance init equals the historical per-cluster
        loop, including an empty cluster keeping the unit-variance prior."""
        data = _clustered_data(rng, n=40, num_clusters=2)

        class StubKMeans:
            def __init__(self, num_clusters, **kwargs):
                self.num_clusters = num_clusters

            def fit(self, points):
                # Clusters 0 and 2 populated, 1 empty, 3 a singleton.
                self.labels_ = np.where(points[:, 0] < points[:, 0].mean(), 0, 2)
                self.labels_ = self.labels_.astype(np.int64)
                self.labels_[0] = 3
                self.cluster_centers_ = np.zeros((4, points.shape[1]))
                return self

        import repro.clustering.gmm as gmm_module

        monkeypatch.setattr(gmm_module, "KMeans", StubKMeans)
        mixture = GaussianMixture(4, max_iter=0, seed=0).fit(data)

        labels = StubKMeans(4).fit(data).labels_
        expected = np.ones((4, data.shape[1]))
        for k in range(4):
            members = data[labels == k]
            if members.shape[0] > 1:
                expected[k] = members.var(axis=0) + mixture.reg_covar
        np.testing.assert_allclose(
            mixture.variances_, expected, rtol=1e-9, atol=1e-10
        )

    def test_logsumexp_all_inf_row_returns_inf_not_nan(self):
        values = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        out = _logsumexp(values, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(0.0)
        assert not np.any(np.isnan(out))

    def test_logsumexp_matches_naive_on_finite_rows(self, rng):
        values = rng.standard_normal((20, 6)) * 30.0
        expected = np.log(np.sum(np.exp(values - values.max(axis=1, keepdims=True)), axis=1))
        expected += values.max(axis=1)
        np.testing.assert_allclose(_logsumexp(values, axis=1), expected, rtol=1e-12)


# ----------------------------------------------------------------------
# Υ graph transform
# ----------------------------------------------------------------------
def _upsilon_case(rng, n=80, num_clusters=5, degree=6, reliable_fraction=0.6,
                  missing_cluster=None):
    dense = np.zeros((n, n))
    for _ in range(n * degree // 2):
        i, j = rng.integers(0, n, 2)
        if i != j:
            dense[i, j] = dense[j, i] = 1.0
    labels = rng.integers(0, num_clusters, n)
    assignments = np.eye(num_clusters)[labels]
    embeddings = rng.standard_normal((n, 4)) + labels[:, None]
    reliable = rng.choice(n, int(reliable_fraction * n), replace=False)
    if missing_cluster is not None:
        # No reliable node may belong to the missing cluster.
        reliable = reliable[labels[reliable] != missing_cluster]
    return dense, assignments, reliable, embeddings


class TestUpsilonEquivalence:
    @pytest.mark.parametrize("add_edges,drop_edges", [
        (True, True), (True, False), (False, True), (False, False),
    ])
    def test_dense_matches_loop_reference(self, rng, add_edges, drop_edges):
        """Υ on CSR matches the historical dense loop for every toggle pair."""
        dense, assignments, reliable, embeddings = _upsilon_case(rng)
        out = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(dense), assignments, reliable, embeddings,
            add_edges=add_edges, drop_edges=drop_edges,
        )
        expected = _reference_upsilon(
            dense, assignments, reliable, embeddings,
            add_edges=add_edges, drop_edges=drop_edges,
        )
        np.testing.assert_array_equal(out.to_dense(), expected)

    def test_sparse_matches_loop_reference(self, rng):
        dense, assignments, reliable, embeddings = _upsilon_case(rng)
        sparse = SparseAdjacency.from_dense(dense)
        out = build_clustering_oriented_graph(sparse, assignments, reliable, embeddings)
        expected = _reference_upsilon(dense, assignments, reliable, embeddings)
        np.testing.assert_array_equal(out.to_dense(), expected)

    def test_cluster_without_reliable_members(self, rng):
        """Clusters absent from Ω get no centroid node and no added edges."""
        dense, assignments, reliable, embeddings = _upsilon_case(
            rng, missing_cluster=2
        )
        expected = _reference_upsilon(dense, assignments, reliable, embeddings)
        sparse_out = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(dense), assignments, reliable, embeddings
        )
        np.testing.assert_array_equal(sparse_out.to_dense(), expected)

    def test_empty_reliable_set_is_identity(self, rng):
        dense, assignments, _, embeddings = _upsilon_case(rng)
        out = build_clustering_oriented_graph(
            SparseAdjacency.from_dense(dense), assignments, np.array([], dtype=np.int64),
            embeddings,
        )
        np.testing.assert_array_equal(out.to_dense(), dense)


def _isin_upsilon(adjacency, assignments, reliable_nodes, embeddings):
    """The edge-wise Υ with an ``np.isin`` membership test and a first-
    occurrence dedup, as it was before the test became a binary search."""
    hard = np.argmax(assignments, axis=1)
    n = adjacency.num_nodes
    if reliable_nodes.size == 0:
        return adjacency.copy()
    rows, cols, values = adjacency.coo()
    reliable = np.zeros(n, dtype=bool)
    reliable[reliable_nodes] = True
    keep = ~(reliable[rows] & reliable[cols] & (hard[rows] != hard[cols]))
    rows, cols, values = rows[keep], cols[keep], values[keep]
    centroid_of = np.full(assignments.shape[1], -1, dtype=np.int64)
    for cluster, node in _cluster_centroid_nodes(
        embeddings, hard, reliable_nodes, assignments.shape[1]
    ).items():
        centroid_of[cluster] = node
    centroids = centroid_of[hard[reliable_nodes]]
    valid = (centroids >= 0) & (centroids != reliable_nodes)
    sources, targets = reliable_nodes[valid], centroids[valid]
    fired = ~np.isin(sources * n + targets, rows * n + cols)
    sources, targets = sources[fired], targets[fired]
    rows = np.concatenate([sources, targets, rows])
    cols = np.concatenate([targets, sources, cols])
    values = np.concatenate([np.ones(2 * sources.size), values])
    _, first = np.unique(rows * n + cols, return_index=True)
    return SparseAdjacency.from_coo(rows[first], cols[first], values[first], n)


def _isin_case(kind, seed):
    """(adjacency, assignments, reliable nodes, embeddings) of one case."""
    rng = np.random.default_rng(seed)
    n, k = 90, 4
    labels = rng.integers(0, k, n)
    assignments = np.eye(k)[labels]
    embeddings = rng.standard_normal((n, 3)) + labels[:, None]
    reliable = np.sort(rng.choice(n, 60, replace=False))
    dense = np.triu(rng.random((n, n)) < 0.08, 1).astype(float)
    dense = dense + dense.T
    if kind == "weighted_asymmetric":
        # Directed weights, plus a stored (centroid, node) entry without its
        # (node, centroid) twin for half the reliable nodes: those adds fire
        # and overwrite the reverse entry with 1.0.
        dense = (rng.random((n, n)) < 0.08) * rng.uniform(0.2, 3.0, (n, n))
        np.fill_diagonal(dense, 0.0)
        hard = labels
        centroids = _cluster_centroid_nodes(embeddings, hard, reliable, k)
        for node in reliable[::2]:
            centroid = centroids[int(hard[node])]
            if centroid != node:
                dense[centroid, node] = 0.5
                dense[node, centroid] = 0.0
    elif kind == "no_reliable_nodes":
        reliable = np.array([], dtype=np.int64)
    elif kind == "every_edge_dropped":
        # Every node reliable and every edge joins two clusters.
        reliable = np.arange(n)
        dense = dense * (labels[:, None] != labels[None, :])
    adjacency = SparseAdjacency.from_dense(dense)
    if kind == "unsorted_csr":
        # The same matrix with every row's entries in reverse order.
        order = np.concatenate([
            np.arange(adjacency.indptr[i + 1] - 1, adjacency.indptr[i] - 1, -1)
            for i in range(n)
        ])
        adjacency = SparseAdjacency(
            adjacency.data[order], adjacency.indices[order], adjacency.indptr, adjacency.shape
        )
    return adjacency, assignments, reliable, embeddings


class TestUpsilonMembershipSearch:
    """Υ's binary-search membership test gives the bytes of ``np.isin``."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", [
        "symmetric", "weighted_asymmetric", "no_reliable_nodes",
        "every_edge_dropped", "unsorted_csr",
    ])
    def test_matches_the_isin_reference_byte_for_byte(self, kind, seed):
        adjacency, assignments, reliable, embeddings = _isin_case(kind, seed)
        out = build_clustering_oriented_graph(adjacency, assignments, reliable, embeddings)
        expected = _isin_upsilon(adjacency, assignments, reliable, embeddings)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(out, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        if kind == "weighted_asymmetric":
            dense = out.to_dense()
            assert np.any(adjacency.to_dense() == 0.5)
            assert not np.any(dense == 0.5), "every planted reverse entry is overwritten"
        if kind == "every_edge_dropped":
            rows, cols, _ = out.coo()
            assert np.all(np.argmax(assignments, 1)[rows] == np.argmax(assignments, 1)[cols])
            assert out.nnz > 0


# ----------------------------------------------------------------------
# Hungarian post-processing
# ----------------------------------------------------------------------
class TestHungarianEquivalence:
    def test_matching_and_alignment_match_loop_reference(self, rng):
        true_labels = rng.integers(0, 6, 200)
        predicted = rng.integers(0, 6, 200)
        mapping = hungarian_matching(true_labels, predicted)
        contingency = np.zeros((6, 6))
        for t, p in zip(true_labels, predicted):
            contingency[p, t] += 1.0
        # The mapping must credit each predicted label's count correctly.
        for predicted_label, true_label in mapping.items():
            assert contingency[predicted_label, true_label] >= 0.0
        aligned = align_labels(true_labels, predicted)
        expected = np.array([mapping[int(p)] for p in predicted], dtype=np.int64)
        np.testing.assert_array_equal(aligned, expected)


# ----------------------------------------------------------------------
# parallel trial executor
# ----------------------------------------------------------------------
def _square(value):
    return value * value


_TRIAL_SPEC = {
    "dataset": "brazil_air_sim",
    "model": "gae",
    "variant": "rethink",
    "seed": 0,
    "training": {"pretrain_epochs": 4, "rethink_epochs": 4},
    "rethink": {"overrides": {"update_omega_every": 2, "update_graph_every": 2}},
}


class TestParallelExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(None, 8) == 1
        assert resolve_jobs(3, 8) == 3
        assert resolve_jobs(16, 2) == 2  # clamped to the number of items
        assert resolve_jobs("auto", 1) == 1
        with pytest.raises(ValueError):
            resolve_jobs(0, 4)
        with pytest.raises(ValueError):
            resolve_jobs("many", 4)

    def test_parallel_map_preserves_order(self):
        items = list(range(10))
        assert parallel_map(_square, items, jobs=1) == [i * i for i in items]
        assert parallel_map(_square, items, jobs=2) == [i * i for i in items]

    def test_run_trials_jobs4_bitwise_equals_jobs1(self):
        """The acceptance-criteria determinism guarantee: fanning the same
        specs over a pool changes wall-clock only, never the numbers."""
        seeds = [0, 1, 2, 3]
        serial = run_sweep([dict(_TRIAL_SPEC, seed=s) for s in seeds], jobs=1).results
        pooled = run_sweep([dict(_TRIAL_SPEC, seed=s) for s in seeds], jobs=4).results

        def strip(result):
            summary = result.summary()
            summary.pop("runtime_seconds", None)
            return summary

        assert [strip(r) for r in serial] == [strip(r) for r in pooled]
        for result, seed in zip(pooled, seeds):
            assert result.spec.seed == seed
            assert result.model is None  # models never cross the pool boundary

    def test_run_trials_validates_specs_eagerly(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            run_sweep([{"model": "no_such_model_field_missing_dataset"}], jobs=1)
        with pytest.raises(SpecError):
            run_sweep([42], jobs=1)

    def test_pipeline_run_trials_rejects_unpicklable_setups(self):
        from repro.api.pipeline import Pipeline
        from repro.datasets import load_dataset
        from repro.errors import SpecError

        graph = load_dataset("brazil_air_sim", seed=0)
        with pytest.raises(SpecError):
            Pipeline().graph(graph).model("gae").run_sweep([0, 1])

    @pytest.mark.parametrize("model", ["gae", "vgae"])
    def test_run_model_pair_jobs_matches_serial(self, model):
        """Every pair trial is the trial its own spec describes, at any jobs.

        VGAE draws noise after pretraining, so it also checks that the R-D
        trial continues the pretraining RNG stream like a cold run does.
        """
        from repro.api.pipeline import Pipeline
        from repro.experiments import ExperimentConfig
        from repro.experiments.runner import run_model_pair

        config = ExperimentConfig(
            pretrain_epochs=3, clustering_epochs=2, rethink_epochs=3, num_trials=2
        )
        serial = run_model_pair(model, "brazil_air_sim", config=config, jobs=1)
        pooled = run_model_pair(model, "brazil_air_sim", config=config, jobs=2)
        assert serial.mean_std("base") == pooled.mean_std("base")
        assert serial.mean_std("rethink") == pooled.mean_std("rethink")
        for variant in ("base", "rethink"):
            for trial, other in zip(serial.trials(variant), pooled.trials(variant)):
                assert trial.report == other.report
                cold = Pipeline.from_spec(trial.spec).warm_start(False).run()
                assert cold.report == trial.report
