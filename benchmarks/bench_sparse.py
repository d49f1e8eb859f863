"""Dense-vs-sparse benchmark for the adjacency hot path.

Measures wall-clock time and peak traced memory of the operations the CSR
backend (:mod:`repro.graph.sparse`) rewired:

* adjacency normalisation (``normalize_adjacency``),
* the propagation product itself, ``A_norm @ X`` with d = 32 (``spmm``),
* GCN propagation, forward + backward, through a
  :class:`~repro.nn.layers.GraphConvolution` layer,
* the Laplacian quadratic form ``L_C(Z, A)``,
* the first GCN layer's feature product: forward + backward of a 500 → 32
  ``GraphConvolution`` whose input features are CSR
  (:func:`~repro.graph.sparse.feature_matrix`) or a dense BLAS operand, at
  half and at twice :data:`~repro.graph.sparse.FEATURE_DENSITY_THRESHOLD`
  (rows ``feature_product@1%`` and ``feature_product@4%``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse.py                 # N = 500/2000/8000
    PYTHONPATH=src python benchmarks/bench_sparse.py --smoke         # quick CI run
    PYTHONPATH=src python benchmarks/bench_sparse.py --output t.json

The dense baseline is only measured up to ``--dense-max`` nodes (default
2000 — a dense 8000² float64 adjacency alone is 512 MB).  At every size
where both paths run, the sparse path must be at least ``--min-speedup``
times faster (default 5×, checked for N ≥ 2000) on the spmm kernel, GCN
propagation and the quadratic form, otherwise the script exits non-zero so
CI fails loudly on hot-path perf regressions.  The feature-product rows
are reported, not gated: they record the crossover behind the feature
density threshold.

Run as a script, it pins BLAS to one thread before numpy loads, as the
end-to-end benchmark's environment does: the CSR kernel is
single-threaded, while more BLAS threads speed up the dense baseline
alone, so with two threads the N = 2000 rows swing across the gate from
run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from typing import Callable, Dict, Optional

if __name__ == "__main__":
    # Before numpy is imported: BLAS reads these once, when it loads.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from repro.graph.laplacian import (  # noqa: E402
    laplacian_quadratic_form,
    laplacian_quadratic_form_dense,
    normalize_adjacency,
)
from repro.graph.sparse import FEATURE_DENSITY_THRESHOLD, SparseAdjacency  # noqa: E402
from repro.nn.layers import GraphConvolution  # noqa: E402
from repro.observability.metrics import metrics_report as unified_report  # noqa: E402

FEATURE_DIM = 32
HIDDEN_DIM = 16

#: bag-of-words width and first-layer width of the feature-product rows.
WORDS = 500
WORDS_HIDDEN = 32


def random_sparse_graph(n: int, avg_degree: float, seed: int) -> SparseAdjacency:
    """Random undirected binary graph with ~``avg_degree`` edges per node."""
    rng = np.random.default_rng(seed)
    num_edges = int(n * avg_degree / 2)
    rows = rng.integers(0, n, size=3 * num_edges)
    cols = rng.integers(0, n, size=3 * num_edges)
    valid = rows < cols
    keys = np.unique(rows[valid] * n + cols[valid])[:num_edges]
    edges = np.stack([keys // n, keys % n], axis=1)
    return SparseAdjacency.from_edges(edges, n)


def measure(fn: Callable[[], object], repeats: int) -> Dict[str, float]:
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


def gcn_forward_backward(
    x, adjacency, seed: int = 0, hidden_dim: int = HIDDEN_DIM
) -> Callable[[], object]:
    layer = GraphConvolution(
        x.shape[1], hidden_dim, activation="relu", rng=np.random.default_rng(seed)
    )

    def run():
        out = layer(x, adjacency)
        loss = (out * out).sum()
        loss.backward()
        loss.release_graph()  # the peak-memory probe must not count retained graphs
        for param in layer.parameters():
            param.zero_grad()
        return out

    return run


def bench_size(n: int, avg_degree: float, repeats: int, dense_max: int, seed: int) -> Dict:
    sparse = random_sparse_graph(n, avg_degree, seed)
    sparse_norm = sparse.normalize(self_loops=True)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, FEATURE_DIM))
    z = rng.standard_normal((n, HIDDEN_DIM))
    with_dense = n <= dense_max
    dense = sparse.to_dense() if with_dense else None
    dense_norm = normalize_adjacency(dense, self_loops=True) if with_dense else None

    result = {
        "num_nodes": n,
        "num_edges": sparse.nnz // 2,
        "density": sparse.density,
        "adjacency_bytes": {
            "dense": int(n * n * 8),
            "sparse": int(
                sparse_norm.data.nbytes
                + sparse_norm.indices.nbytes
                + sparse_norm.indptr.nbytes
            ),
        },
        "ops": {},
    }

    ops: Dict[str, Dict[str, Optional[Callable[[], object]]]] = {
        "normalize_adjacency": {
            "dense": (lambda: normalize_adjacency(dense, self_loops=True))
            if with_dense
            else None,
            "sparse": lambda: sparse.normalize(self_loops=True),
        },
        "spmm": {
            "dense": (lambda: dense_norm @ x) if with_dense else None,
            "sparse": lambda: sparse_norm.matmul(x),
        },
        "gcn_forward_backward": {
            "dense": gcn_forward_backward(x, dense_norm) if with_dense else None,
            "sparse": gcn_forward_backward(x, sparse_norm),
        },
        "laplacian_quadratic_form": {
            "dense": (lambda: laplacian_quadratic_form_dense(z, dense))
            if with_dense
            else None,
            "sparse": lambda: laplacian_quadratic_form(z, sparse),
        },
    }

    for density in (FEATURE_DENSITY_THRESHOLD / 2, FEATURE_DENSITY_THRESHOLD * 2):
        words = (rng.random((n, WORDS)) < density) * rng.random((n, WORDS))
        ops[f"feature_product@{density:.0%}"] = {
            "dense": gcn_forward_backward(words, sparse_norm, hidden_dim=WORDS_HIDDEN),
            "sparse": gcn_forward_backward(
                SparseAdjacency.from_matrix(words), sparse_norm, hidden_dim=WORDS_HIDDEN
            ),
        }

    for op_name, paths in ops.items():
        entry: Dict[str, object] = {}
        for path_name, fn in paths.items():
            if fn is not None:
                entry[path_name] = measure(fn, repeats)
        if "dense" in entry and "sparse" in entry:
            entry["speedup"] = entry["dense"]["seconds"] / entry["sparse"]["seconds"]
        result["ops"][op_name] = entry
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small fast run for CI (N = 500, 2000)"
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None, help="override node counts"
    )
    parser.add_argument("--avg-degree", type=float, default=8.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--dense-max", type=int, default=2000, help="largest N for the dense baseline"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required sparse speedup on spmm, GCN propagation and the "
        "quadratic form at N >= 2000 (0 disables the check)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, help="write timing JSON here")
    args = parser.parse_args(argv)

    sizes = args.sizes if args.sizes else ([500, 2000] if args.smoke else [500, 2000, 8000])
    repeats = args.repeats if args.repeats is not None else (3 if args.smoke else 5)

    report = unified_report(
        "bench_sparse",
        [],
        repeats=repeats,
        feature_dim=FEATURE_DIM,
        hidden_dim=HIDDEN_DIM,
        avg_degree=args.avg_degree,
    )
    print(f"{'N':>6} {'|E|':>8} {'op':>26} {'dense':>10} {'sparse':>10} {'speedup':>8}")
    for n in sizes:
        row = bench_size(n, args.avg_degree, repeats, args.dense_max, args.seed)
        report["results"].append(row)
        for op_name, entry in row["ops"].items():
            dense_s = entry.get("dense", {}).get("seconds")
            sparse_s = entry["sparse"]["seconds"]
            dense_txt = f"{dense_s * 1e3:8.2f}ms" if dense_s is not None else "      (skip)"
            speedup_txt = f"{entry['speedup']:7.1f}x" if "speedup" in entry else "       -"
            print(
                f"{n:>6} {row['num_edges']:>8} {op_name:>26} "
                f"{dense_txt:>10} {sparse_s * 1e3:8.2f}ms {speedup_txt:>8}"
            )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")

    failures = []
    if args.min_speedup > 0:
        for row in report["results"]:
            if row["num_nodes"] < 2000:
                continue
            for op_name in ("spmm", "gcn_forward_backward", "laplacian_quadratic_form"):
                speedup = row["ops"][op_name].get("speedup")
                if speedup is not None and speedup < args.min_speedup:
                    failures.append(
                        f"{op_name} at N={row['num_nodes']}: "
                        f"{speedup:.1f}x < required {args.min_speedup:.1f}x"
                    )
    if failures:
        print("PERF REGRESSION in the sparse hot path:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
