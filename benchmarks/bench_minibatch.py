"""Minibatch-vs-full-graph benchmark for the R- clustering phase.

Measures wall-clock time and peak traced memory of one R- training epoch
(`RethinkTrainer.fit`, pretraining excluded) in two configurations:

* **full** — the default whole-graph loader: one forward/backward over
  the whole graph.  Its reconstruction loss walks the logits ``Z Zᵀ`` in
  tiles, so the epoch is O(N²·d) time but no longer O(N²) memory;
* **cluster** — the same epoch over :class:`~repro.minibatch.ClusterLoader`
  partition batches of ``--batch-size`` nodes, with the operators Ξ / Υ
  refreshed on full-graph state at the epoch boundary.

Usage::

    PYTHONPATH=src python benchmarks/bench_minibatch.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_minibatch.py --smoke    # quick CI run
    PYTHONPATH=src python benchmarks/bench_minibatch.py --output t.json

The full-graph path only runs up to ``--full-max`` nodes (default 2000).
Two scaling checks make CI fail loudly when the subsystem regresses:

1. at every size ≥ 2000 where both paths run, the cluster epoch must use
   *less peak memory* than the full-graph epoch;
2. the largest cluster-sampled size must be ≥ ``--min-scale`` × the largest
   full-graph size (default 4×), and every epoch at N ≥ 2000, on either
   path, must peak below one dense float64 array of the largest
   full-graph size (8·N_full² bytes, 32 MB at ``--smoke``): no epoch may
   hold an (N, N) array.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from typing import Dict

import numpy as np

from repro.core.rethink import RethinkConfig, RethinkTrainer
from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency
from repro.models import build_model
from repro.observability.metrics import metrics_report as unified_report

FEATURE_DIM = 32
NUM_CLUSTERS = 6


def random_training_graph(n: int, avg_degree: float, seed: int) -> AttributedGraph:
    """Random sparse undirected graph with features, sized for training."""
    rng = np.random.default_rng(seed)
    num_edges = int(n * avg_degree / 2)
    rows = rng.integers(0, n, size=3 * num_edges)
    cols = rng.integers(0, n, size=3 * num_edges)
    valid = rows < cols
    keys = np.unique(rows[valid] * n + cols[valid])[:num_edges]
    edges = np.stack([keys // n, keys % n], axis=1)
    features = rng.standard_normal((n, FEATURE_DIM))
    return AttributedGraph(
        adjacency=SparseAdjacency.from_edges(edges, n),
        features=features,
        labels=None,
        name=f"bench_{n}",
        metadata={"num_clusters": NUM_CLUSTERS},
    )


def epoch_runner(graph: AttributedGraph, sampler: str, batch_size: int, seed: int):
    """A zero-argument callable running exactly one R- epoch."""

    def run():
        model = build_model("gae", graph.num_features, NUM_CLUSTERS, seed=seed)
        config = RethinkConfig(
            epochs=1,
            pretrain_epochs=0,
            sampler=sampler,
            batch_size=batch_size,
            stop_at_convergence=False,
        )
        trainer = RethinkTrainer(model, config)
        trainer.fit(graph, pretrained=True)
        return trainer

    return run


def measure(fn, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` wall time plus peak traced memory of one run."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"seconds": best, "peak_bytes": int(peak)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small fast run for CI (N = 500, 2000, 8000)"
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None, help="override node counts"
    )
    parser.add_argument("--avg-degree", type=float, default=8.0)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--full-max", type=int, default=2000, help="largest N for the full-graph epoch"
    )
    parser.add_argument(
        "--min-scale",
        type=float,
        default=4.0,
        help="required ratio of largest cluster-sampled N to largest "
        "full-graph N, with every epoch at N >= 2000 below one dense "
        "float64 array of the largest full-graph N (0 disables both "
        "scaling checks)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, help="write timing JSON here")
    args = parser.parse_args(argv)

    sizes = args.sizes if args.sizes else ([500, 2000, 8000] if args.smoke else [500, 2000, 8000, 16000])
    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 4)

    report = unified_report(
        "bench_minibatch",
        [],
        repeats=repeats,
        model="gae",
        feature_dim=FEATURE_DIM,
        num_clusters=NUM_CLUSTERS,
        avg_degree=args.avg_degree,
        batch_size=args.batch_size,
    )
    print(
        f"{'N':>7} {'|E|':>8} {'path':>8} {'epoch':>10} {'peak mem':>10} {'batches':>8}"
    )
    for n in sizes:
        graph = random_training_graph(n, args.avg_degree, args.seed)
        num_edges = graph.num_edges
        row: Dict = {"num_nodes": n, "num_edges": num_edges, "paths": {}}
        paths = {}
        if n <= args.full_max:
            paths["full"] = ("full", 1)
        batches = -(-n // args.batch_size)
        paths["cluster"] = ("cluster", batches)
        for path_name, (sampler, num_batches) in paths.items():
            entry = measure(
                epoch_runner(graph, sampler, args.batch_size, args.seed), repeats
            )
            entry["num_batches"] = num_batches
            row["paths"][path_name] = entry
            print(
                f"{n:>7} {num_edges:>8} {path_name:>8} "
                f"{entry['seconds'] * 1e3:8.1f}ms "
                f"{entry['peak_bytes'] / 1e6:8.1f}MB {num_batches:>8}"
            )
        if "full" in row["paths"]:
            full, cluster = row["paths"]["full"], row["paths"]["cluster"]
            row["memory_ratio"] = full["peak_bytes"] / max(cluster["peak_bytes"], 1)
            row["time_ratio"] = full["seconds"] / max(cluster["seconds"], 1e-12)
        report["results"].append(row)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")

    failures = []
    if args.min_scale > 0:
        full_rows = [r for r in report["results"] if "full" in r["paths"]]
        cluster_rows = [r for r in report["results"] if "cluster" in r["paths"]]
        for row in full_rows:
            if row["num_nodes"] < 2000:
                continue
            if row["paths"]["cluster"]["peak_bytes"] >= row["paths"]["full"]["peak_bytes"]:
                failures.append(
                    f"cluster epoch does not beat full-graph epoch on peak memory "
                    f"at N={row['num_nodes']} "
                    f"({row['paths']['cluster']['peak_bytes']} >= "
                    f"{row['paths']['full']['peak_bytes']} bytes)"
                )
        if full_rows and cluster_rows:
            largest_full = max(full_rows, key=lambda r: r["num_nodes"])
            largest_cluster = max(cluster_rows, key=lambda r: r["num_nodes"])
            scale = largest_cluster["num_nodes"] / largest_full["num_nodes"]
            dense_bytes = 8 * largest_full["num_nodes"] ** 2
            over = [
                (row["num_nodes"], path_name, entry["peak_bytes"])
                for row in report["results"]
                if row["num_nodes"] >= 2000
                for path_name, entry in row["paths"].items()
                if entry["peak_bytes"] >= dense_bytes
            ]
            report["scale_factor"] = scale
            report["within_dense_envelope"] = not over
            print(
                f"scale-out: cluster epoch at N={largest_cluster['num_nodes']} "
                f"({scale:.1f}x the largest full-graph N={largest_full['num_nodes']}) "
                f"peaks at {largest_cluster['paths']['cluster']['peak_bytes'] / 1e6:.1f}MB; "
                f"every epoch at N >= 2000 must stay below one dense "
                f"{largest_full['num_nodes']}x{largest_full['num_nodes']} float64 array "
                f"({dense_bytes / 1e6:.1f}MB)"
            )
            if scale < args.min_scale:
                failures.append(
                    f"largest cluster-sampled N ({largest_cluster['num_nodes']}) is "
                    f"only {scale:.1f}x the largest full-graph N "
                    f"({largest_full['num_nodes']}); required {args.min_scale:.1f}x"
                )
            for num_nodes, path_name, peak in over:
                failures.append(
                    f"{path_name} epoch at N={num_nodes} peaks at {peak} bytes >= "
                    f"one dense float64 array at N={largest_full['num_nodes']} "
                    f"({dense_bytes} bytes)"
                )
            if args.output:
                with open(args.output, "w") as handle:
                    json.dump(report, handle, indent=2)
    if failures:
        print("MINIBATCH SCALING REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
