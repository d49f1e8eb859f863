"""Loop-vs-vectorised benchmark for the clustering hot path.

PR 2 made graph propagation O(|E|); this benchmark pins the speedups of the
follow-up kernel work on the clustering side of the R-GAE procedure:

* **kmeans_multi_restart** — the batched (R, K, d) multi-restart
  :class:`~repro.clustering.KMeans` against the historical per-restart /
  per-cluster loop implementation (target ≥ 5×),
* **gmm_fit** — the GEMM-based :class:`~repro.clustering.GaussianMixture`
  (broadcast ``_log_prob``, loop-free variance M-step, batched k-means
  init) against the historical per-component loops (target ≥ 3×),
* **upsilon_transform** — the Υ operator on the CSR graph at N = 2000
  (vectorised edge-set operations on the COO arrays) against the
  historical per-reliable-node / per-neighbour dense loop (target ≥ 4×),
* **trials_parallel** (optional, ``--trials-jobs N``) — the end-to-end
  multi-seed executor :func:`repro.parallel.run_sweep`: bitwise equality
  of per-seed results is always asserted; the ≥ 2.5× wall-clock target is
  only enforced on machines with at least ``N`` cores.

Usage::

    PYTHONPATH=src python benchmarks/bench_clustering.py            # full run
    PYTHONPATH=src python benchmarks/bench_clustering.py --smoke    # CI run
    PYTHONPATH=src python benchmarks/bench_clustering.py --output t.json

``--smoke`` halves the required speedups (kernel timings on shared CI
runners are noisy) and trims the repeat count; either way the script exits
non-zero when a kernel regresses below its threshold, so CI fails loudly.

The reference implementations below are verbatim copies of the pre-PR loop
kernels; ``tests/test_kernel_equivalence.py`` holds the numerical
equivalence tests between the two generations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

import numpy as np

from repro.clustering.gmm import GaussianMixture, _logsumexp
from repro.clustering.kmeans import KMeans, _pairwise_sq_distances
from repro.core.graph_transform import build_clustering_oriented_graph
from repro.graph.sparse import SparseAdjacency
from repro.observability.metrics import metrics_report as unified_report
from repro.observability.tracer import span as _span
from repro.observability.tracer import tracing_session

#: (name, target speedup) — ``--smoke`` enforces half of each target.
TARGETS = {
    "kmeans_multi_restart": 5.0,
    "gmm_fit": 3.0,
    "upsilon_transform": 4.0,
}
TRIALS_TARGET = 2.5
#: ceiling on the modelled cost of disabled tracing, as a fraction of the
#: wall time of an instrumented clustering refresh (the observability layer
#: must be free when off).
TRACING_OVERHEAD_TARGET = 0.01


# ----------------------------------------------------------------------
# reference kernels: the pre-PR loop implementations, kept verbatim
# ----------------------------------------------------------------------
def _reference_kmeans_plus_plus(data, num_clusters, rng):
    n = data.shape[0]
    centers = np.empty((num_clusters, data.shape[1]))
    centers[0] = data[int(rng.integers(0, n))]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for index in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            choice = int(rng.integers(0, n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centers[index] = data[choice]
        closest_sq = np.minimum(closest_sq, np.sum((data - centers[index]) ** 2, axis=1))
    return centers


class ReferenceKMeans:
    """The historical loop KMeans: sequential restarts, per-cluster M-step."""

    def __init__(self, num_clusters, num_init=10, max_iter=300, tol=1e-6, seed=0):
        self.num_clusters = num_clusters
        self.num_init = num_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def _single_run(self, data, rng):
        centers = _reference_kmeans_plus_plus(data, self.num_clusters, rng)
        for _ in range(self.max_iter):
            distances = _pairwise_sq_distances(data, centers)
            labels = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            for cluster in range(self.num_clusters):
                members = data[labels == cluster]
                if members.shape[0] > 0:
                    new_centers[cluster] = members.mean(axis=0)
                else:
                    new_centers[cluster] = data[int(np.argmax(distances.min(axis=1)))]
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if shift < self.tol:
                break
        distances = _pairwise_sq_distances(data, centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(data.shape[0]), labels].sum())
        return centers, labels, inertia

    def fit(self, data):
        data = np.asarray(data, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        best = None
        for _ in range(self.num_init):
            run = self._single_run(data, rng)
            if best is None or run[2] < best[2]:
                best = run
        self.cluster_centers_, self.labels_, self.inertia_ = best
        return self


class ReferenceGMM:
    """The historical loop GMM: per-component log-probs and variance M-step."""

    def __init__(self, num_components, max_iter=100, tol=1e-5, reg_covar=1e-6, seed=0):
        self.num_components = num_components
        self.max_iter = max_iter
        self.tol = tol
        self.reg_covar = reg_covar
        self.seed = seed

    def _log_prob(self, data):
        n, d = data.shape
        log_probs = np.empty((n, self.num_components))
        for k in range(self.num_components):
            var = self.variances_[k]
            diff = data - self.means_[k]
            log_det = np.sum(np.log(var))
            mahalanobis = np.sum(diff ** 2 / var, axis=1)
            log_probs[:, k] = -0.5 * (d * np.log(2.0 * np.pi) + log_det + mahalanobis)
        return log_probs

    def _e_step(self, data):
        weighted = self._log_prob(data) + np.log(self.weights_ + 1e-300)
        log_norm = _logsumexp(weighted, axis=1)
        return np.exp(weighted - log_norm[:, None]), float(log_norm.mean())

    def _m_step(self, data, responsibilities):
        counts = responsibilities.sum(axis=0) + 1e-12
        self.weights_ = counts / data.shape[0]
        self.means_ = (responsibilities.T @ data) / counts[:, None]
        for k in range(self.num_components):
            diff = data - self.means_[k]
            self.variances_[k] = (
                responsibilities[:, k] @ (diff ** 2)
            ) / counts[k] + self.reg_covar

    def fit(self, data):
        data = np.asarray(data, dtype=np.float64)
        kmeans = ReferenceKMeans(self.num_components, num_init=5, seed=self.seed).fit(data)
        self.means_ = kmeans.cluster_centers_.copy()
        self.variances_ = np.ones((self.num_components, data.shape[1]))
        for k in range(self.num_components):
            members = data[kmeans.labels_ == k]
            if members.shape[0] > 1:
                self.variances_[k] = members.var(axis=0) + self.reg_covar
        counts = np.bincount(kmeans.labels_, minlength=self.num_components)
        weights = counts / data.shape[0]
        weights[counts == 0] = 1.0 / self.num_components
        self.weights_ = weights / weights.sum()
        previous = -np.inf
        for _ in range(self.max_iter):
            responsibilities, log_likelihood = self._e_step(data)
            self._m_step(data, responsibilities)
            if abs(log_likelihood - previous) < self.tol:
                break
            previous = log_likelihood
        return self


def reference_transform(adjacency, assignments, reliable_nodes, embeddings):
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
        if node_cluster in centroid_nodes:
            centroid = centroid_nodes[node_cluster]
            if centroid != node and result[node, centroid] == 0:
                if int(hard[centroid]) == node_cluster:
                    result[node, centroid] = 1.0
                    result[centroid, node] = 1.0
        for neighbor in np.flatnonzero(adjacency[node]):
            if reliable_mask[neighbor] and int(hard[neighbor]) != node_cluster:
                result[node, neighbor] = 0.0
                result[neighbor, node] = 0.0
    return result


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def clustered_data(n, dim, num_clusters, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)) + rng.integers(0, num_clusters, n)[:, None] * 1.2


def random_graph(n, avg_degree, seed):
    rng = np.random.default_rng(seed)
    num_edges = int(n * avg_degree / 2)
    rows = rng.integers(0, n, size=3 * num_edges)
    cols = rng.integers(0, n, size=3 * num_edges)
    valid = rows < cols
    keys = np.unique(rows[valid] * n + cols[valid])[:num_edges]
    dense = np.zeros((n, n))
    dense[keys // n, keys % n] = 1.0
    dense[keys % n, keys // n] = 1.0
    return dense


def measure(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of one call."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_kmeans(repeats: int, seed: int) -> Dict:
    # Multi-restart profile of the Ξ/clustering refresh path: an
    # air-traffic-sized graph (Europe: 399 nodes), many clusters and
    # restarts — the regime the loop version spent in Python overhead.
    # tol=0 pins both implementations to max_iter iterations per restart so
    # the timed work is identical.
    n, dim, num_clusters, num_init, max_iter = 300, 16, 20, 32, 20
    data = clustered_data(n, dim, num_clusters, seed)
    reference = ReferenceKMeans(num_clusters, num_init=num_init, max_iter=max_iter, tol=0.0, seed=seed)
    vectorised = KMeans(num_clusters, num_init=num_init, max_iter=max_iter, tol=0.0, seed=seed)
    return {
        "workload": {"n": n, "dim": dim, "clusters": num_clusters, "restarts": num_init, "max_iter": max_iter},
        "reference_seconds": measure(lambda: reference.fit(data), max(1, repeats - 1)),
        "vectorised_seconds": measure(lambda: vectorised.fit(data), repeats),
    }


def bench_gmm(repeats: int, seed: int) -> Dict:
    # Full fit including the k-means initialisation, as GMM-VGAE uses it;
    # embedding width 32 (the paper's hidden-layer size).  tol=0 pins the
    # EM loop to max_iter iterations in both generations.
    n, dim, num_clusters, max_iter = 1500, 32, 12, 15
    data = clustered_data(n, dim, num_clusters, seed)
    return {
        "workload": {"n": n, "dim": dim, "components": num_clusters, "max_iter": max_iter},
        "reference_seconds": measure(
            lambda: ReferenceGMM(num_clusters, max_iter=max_iter, tol=0.0, seed=seed).fit(data),
            max(1, repeats - 1),
        ),
        "vectorised_seconds": measure(
            lambda: GaussianMixture(num_clusters, max_iter=max_iter, tol=0.0, seed=seed).fit(data),
            repeats,
        ),
    }


def bench_upsilon(repeats: int, seed: int) -> Dict:
    # N = 2000 with the air-traffic-like density (USA: avg degree ~23); 90%
    # of the nodes decidable, as near paper convergence (|Ω| >= 0.9 N).
    n, dim, num_clusters, avg_degree = 2000, 16, 10, 16
    rng = np.random.default_rng(seed)
    dense = random_graph(n, avg_degree, seed)
    sparse = SparseAdjacency.from_dense(dense)
    labels = rng.integers(0, num_clusters, n)
    assignments = np.eye(num_clusters)[labels]
    embeddings = rng.standard_normal((n, dim)) + labels[:, None]
    reliable = rng.choice(n, int(0.9 * n), replace=False)

    out_reference = reference_transform(dense, assignments, reliable, embeddings)
    out_sparse = build_clustering_oriented_graph(sparse, assignments, reliable, embeddings)
    if not np.array_equal(out_sparse.to_dense(), out_reference):
        raise AssertionError("vectorised Υ disagrees with the loop reference")

    return {
        "workload": {"n": n, "avg_degree": avg_degree, "clusters": num_clusters, "reliable_fraction": 0.9},
        "reference_seconds": measure(
            lambda: reference_transform(dense, assignments, reliable, embeddings),
            max(1, repeats - 1),
        ),
        "vectorised_seconds": measure(
            lambda: build_clustering_oriented_graph(sparse, assignments, reliable, embeddings),
            repeats,
        ),
    }


def bench_trials(jobs: int, seed: int) -> Dict:
    """End-to-end multi-seed executor: wall clock and bitwise equality."""
    from repro.parallel import run_sweep

    spec = {
        "dataset": "brazil_air_sim",
        "model": "gae",
        "variant": "rethink",
        "seed": seed,
        "training": {"pretrain_epochs": 20, "rethink_epochs": 20},
        "rethink": {"overrides": {"update_omega_every": 5, "update_graph_every": 5}},
    }
    seeds = list(range(seed, seed + jobs))
    specs = [dict(spec, seed=s) for s in seeds]

    start = time.perf_counter()
    serial = run_sweep(specs, jobs=1).results
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_sweep(specs, jobs=jobs).results
    pooled_seconds = time.perf_counter() - start

    def strip(result):
        summary = result.summary()
        summary.pop("runtime_seconds", None)
        return summary

    if [strip(r) for r in serial] != [strip(r) for r in pooled]:
        raise AssertionError("parallel trial results differ from the serial run")
    return {
        "workload": {"spec": spec, "seeds": seeds, "jobs": jobs},
        "reference_seconds": serial_seconds,
        "vectorised_seconds": pooled_seconds,
        "cpu_count": os.cpu_count(),
    }


def _count_spans(node: Dict) -> int:
    return 1 + sum(_count_spans(child) for child in node.get("children", ()))


def bench_tracing_overhead(repeats: int, seed: int) -> Dict:
    """Price the disabled observability path against the clustering refresh.

    A disabled ``span()`` call is one module-global load, an is-None test and
    a shared no-op singleton; this row measures that per-call cost, counts
    how many spans one instrumented clustering refresh (k-means + GMM + Υ)
    actually emits, and reports the modelled worst-case overhead as a
    fraction of the refresh's untraced wall time.  The gate fails above
    ``TRACING_OVERHEAD_TARGET`` (1%).
    """
    calls = 200_000
    with tracing_session(enabled=False):
        start = time.perf_counter()
        for _ in range(calls):
            with _span("bench.noop"):
                pass
        disabled_span_seconds = (time.perf_counter() - start) / calls

    n, dim, num_clusters, avg_degree = 800, 16, 10, 12
    data = clustered_data(n, dim, num_clusters, seed)
    rng = np.random.default_rng(seed)
    dense = random_graph(n, avg_degree, seed)
    sparse = SparseAdjacency.from_dense(dense)
    labels = rng.integers(0, num_clusters, n)
    assignments = np.eye(num_clusters)[labels]
    embeddings = rng.standard_normal((n, dim)) + labels[:, None]
    reliable = rng.choice(n, int(0.9 * n), replace=False)

    def refresh():
        KMeans(num_clusters, num_init=4, max_iter=10, tol=0.0, seed=seed).fit(data)
        GaussianMixture(num_clusters, max_iter=5, tol=0.0, seed=seed).fit(data)
        build_clustering_oriented_graph(sparse, assignments, reliable, embeddings)

    with tracing_session(enabled=False):
        kernel_seconds = measure(refresh, repeats)
    with tracing_session(enabled=True) as tracer:
        refresh()
        span_count = sum(_count_spans(root) for root in tracer.export())

    return {
        "workload": {"n": n, "dim": dim, "clusters": num_clusters, "noop_calls": calls},
        "disabled_span_seconds": disabled_span_seconds,
        "span_count": span_count,
        "kernel_seconds": kernel_seconds,
        "overhead_fraction": disabled_span_seconds * span_count / kernel_seconds,
        "target_fraction": TRACING_OVERHEAD_TARGET,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="fast CI run with halved thresholds")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trials-jobs",
        type=int,
        default=0,
        help="also benchmark the multi-seed process-pool executor with this "
        "many seeds/workers (0 disables; equality is always asserted)",
    )
    parser.add_argument(
        "--min-speedup-scale",
        type=float,
        default=None,
        help="override the threshold scale (default: 1.0, or 0.5 with --smoke; 0 disables)",
    )
    parser.add_argument("--output", type=str, default=None, help="write timing JSON here")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 4)
    scale = args.min_speedup_scale
    if scale is None:
        scale = 0.5 if args.smoke else 1.0

    benches = {
        "kmeans_multi_restart": lambda: bench_kmeans(repeats, args.seed),
        "gmm_fit": lambda: bench_gmm(repeats, args.seed),
        "upsilon_transform": lambda: bench_upsilon(repeats, args.seed),
    }
    report = unified_report("bench_clustering", {}, repeats=repeats, seed=args.seed)
    print(f"{'kernel':>22} {'loop':>10} {'vectorised':>11} {'speedup':>8} {'target':>7}")
    failures = []
    for name, bench in benches.items():
        row = bench()
        row["speedup"] = row["reference_seconds"] / row["vectorised_seconds"]
        row["target"] = TARGETS[name]
        report["results"][name] = row
        print(
            f"{name:>22} {row['reference_seconds'] * 1e3:8.1f}ms "
            f"{row['vectorised_seconds'] * 1e3:9.1f}ms {row['speedup']:7.1f}x "
            f"{row['target']:6.1f}x"
        )
        if scale > 0 and row["speedup"] < row["target"] * scale:
            failures.append(
                f"{name}: {row['speedup']:.1f}x < required "
                f"{row['target'] * scale:.1f}x"
            )

    if args.trials_jobs > 1:
        row = bench_trials(args.trials_jobs, args.seed)
        row["speedup"] = row["reference_seconds"] / row["vectorised_seconds"]
        row["target"] = TRIALS_TARGET
        report["results"]["trials_parallel"] = row
        print(
            f"{'trials_parallel':>22} {row['reference_seconds'] * 1e3:8.1f}ms "
            f"{row['vectorised_seconds'] * 1e3:9.1f}ms {row['speedup']:7.1f}x "
            f"{row['target']:6.1f}x"
        )
        enough_cores = (os.cpu_count() or 1) >= args.trials_jobs
        if scale > 0 and enough_cores and row["speedup"] < TRIALS_TARGET * scale:
            failures.append(
                f"trials_parallel: {row['speedup']:.1f}x < required "
                f"{TRIALS_TARGET * scale:.1f}x"
            )
        elif not enough_cores:
            print(
                f"  (speedup not enforced: {os.cpu_count()} cores < "
                f"{args.trials_jobs} jobs)"
            )

    row = bench_tracing_overhead(repeats, args.seed)
    report["results"]["tracing_overhead"] = row
    print(
        f"{'tracing_overhead':>22} {row['disabled_span_seconds'] * 1e9:8.1f}ns/span "
        f"x {row['span_count']} spans / {row['kernel_seconds'] * 1e3:.1f}ms "
        f"= {row['overhead_fraction'] * 100:.4f}% (limit "
        f"{TRACING_OVERHEAD_TARGET * 100:.0f}%)"
    )
    if scale > 0 and row["overhead_fraction"] > TRACING_OVERHEAD_TARGET:
        failures.append(
            f"tracing_overhead: disabled-path cost is "
            f"{row['overhead_fraction'] * 100:.2f}% of the clustering refresh; "
            f"required < {TRACING_OVERHEAD_TARGET * 100:.0f}%"
        )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")

    if failures:
        print("PERF REGRESSION in the clustering hot path:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
