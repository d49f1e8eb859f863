"""Warm-start artifact-store benchmark (repro.store).

Measures what the checkpointing subsystem buys and costs:

* **cold vs warm sweep** — a D / R-D ``run_model_pair`` sweep against an
  empty store, then the same sweep against the warm store.  In the cold
  sweep each seed's D trial must miss (it pretrains and writes the
  snapshot) and its R-D trial must hit (it reads that snapshot instead of
  pretraining again), leaving one snapshot per seed.  Every warm trial
  must hit and reproduce the cold sweep's metrics bit for bit — CI fails
  otherwise.
* **snapshot save/load latency** — ``Snapshot.capture`` → ``store.put``
  and ``store.get`` → ``snapshot.apply`` round trips per model, so the
  fixed cost of a checkpoint is a tracked number rather than folklore.
* **concurrent put** — two processes each ``put`` one key 300 times, as
  two sweeps sharing one store can.  Every call must succeed and the
  artifact left behind must pass ``store.get``'s verification — CI fails
  otherwise.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # quick CI run
    PYTHONPATH=src python benchmarks/bench_store.py --output t.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_model_pair
from repro.models import build_model
from repro.observability.metrics import metrics_report as unified_report
from repro.parallel import load_dataset_cached
from repro.store import ArtifactStore, Snapshot, pretrain_cache_key


def sweep_wall_time(model: str, dataset: str, config: ExperimentConfig, store_dir: str):
    """One ``run_model_pair`` sweep: wall time, per-trial cache hits, metrics."""
    start = time.perf_counter()
    pair = run_model_pair(model, dataset, config, store_dir=store_dir)
    seconds = time.perf_counter() - start
    hits = {
        variant: [bool(t.extra.get("pretrain_cache", {}).get("hit")) for t in pair.trials(variant)]
        for variant in ("base", "rethink")
    }
    trials = pair.base_trials + pair.rethink_trials
    metrics = [
        (t.variant, t.spec.seed, t.report.accuracy, t.report.nmi, t.report.ari)
        for t in trials
    ]
    return {"seconds": seconds, "hits": hits, "num_trials": len(trials)}, metrics


def snapshot_latency(model_name: str, dataset: str, epochs: int, store_dir: str, repeats: int):
    """Best-of-``repeats`` save (capture+put) and load (get+apply) times."""
    graph = load_dataset_cached(dataset, seed=0)
    model = build_model(model_name, graph.num_features, graph.num_clusters, seed=0)
    model.pretrain(graph, epochs=epochs)
    store = ArtifactStore(store_dir)
    key = pretrain_cache_key(model, epochs, dataset={"name": dataset, "seed": 0, "options": {}})
    save_best = load_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        snapshot = Snapshot.capture(model, epoch=epochs, phase="pretrain")
        store.put(key, snapshot)
        save_best = min(save_best, time.perf_counter() - start)
        target = build_model(model_name, graph.num_features, graph.num_clusters, seed=0)
        start = time.perf_counter()
        store.get(key).apply(target)
        load_best = min(load_best, time.perf_counter() - start)
    return {"save_seconds": save_best, "load_seconds": load_best}


def _put_repeatedly(store_dir: str, key: str, puts: int) -> List[str]:
    """``puts`` puts of one small snapshot under ``key``; the errors raised."""
    store = ArtifactStore(store_dir)
    snapshot = Snapshot(
        model_class="Probe", params={"w": np.arange(64.0)}, extra={}, config={}
    )
    errors = []
    for _ in range(puts):
        try:
            store.put(key, snapshot)
        except Exception as error:  # counted: the row fails on any of them
            errors.append(f"{type(error).__name__}: {error}")
    return errors


def _wait_for(barrier: Any) -> None:
    barrier.wait()  # the writers start putting together, not one import apart


def concurrent_put(store_dir: str, writers: int = 2, puts: int = 300) -> Dict[str, Any]:
    """``writers`` processes put one key ``puts`` times each, then one verified get."""
    key = "c0" * 32
    context = multiprocessing.get_context("spawn")
    start = time.perf_counter()
    with context.Pool(
        writers, initializer=_wait_for, initargs=(context.Barrier(writers),)
    ) as pool:
        per_writer = pool.starmap(_put_repeatedly, [(store_dir, key, puts)] * writers)
    seconds = time.perf_counter() - start
    errors = [error for errors in per_writer for error in errors]
    store = ArtifactStore(store_dir)
    try:
        store.get(key)
    except Exception as error:  # counted like a failed put
        errors.append(f"get: {type(error).__name__}: {error}")
    return {
        "check": "concurrent_put",
        "writers": writers,
        "puts_per_writer": puts,
        "seconds": seconds,
        "errors": len(errors),
        "first_error": errors[0] if errors else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small fast run for CI")
    parser.add_argument("--dataset", default="cora_sim")
    parser.add_argument("--models", nargs="*", default=None)
    parser.add_argument("--trials", type=int, default=None, help="seeds per sweep")
    parser.add_argument("--pretrain-epochs", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", type=str, default=None, help="write timing JSON here")
    args = parser.parse_args(argv)

    models = args.models or (["gae", "dgae"] if args.smoke else ["gae", "vgae", "dgae", "gmm_vgae"])
    trials = args.trials if args.trials is not None else (2 if args.smoke else 5)
    pretrain_epochs = args.pretrain_epochs if args.pretrain_epochs is not None else (
        6 if args.smoke else 40
    )
    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 5)
    config = ExperimentConfig(
        num_trials=trials,
        pretrain_epochs=pretrain_epochs,
        clustering_epochs=max(2, pretrain_epochs // 3),
        rethink_epochs=max(3, pretrain_epochs // 2),
    )

    report: Dict = unified_report(
        "bench_store",
        [],
        repeats=repeats,
        dataset=args.dataset,
        trials=trials,
        pretrain_epochs=pretrain_epochs,
    )
    failures: List[str] = []
    print(f"{'model':>10} {'cold':>10} {'warm':>10} {'speedup':>8} {'hits':>10}")
    for model in models:
        store_dir = tempfile.mkdtemp(prefix="bench-store-")
        try:
            cold, cold_metrics = sweep_wall_time(model, args.dataset, config, store_dir)
            snapshots = len(ArtifactStore(store_dir))
            warm, warm_metrics = sweep_wall_time(model, args.dataset, config, store_dir)
            latency = snapshot_latency(
                model, args.dataset, pretrain_epochs, store_dir, repeats
            )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if any(cold["hits"]["base"]):
            failures.append(f"{model}: a cold D trial hit the empty store {cold['hits']['base']}")
        if not all(cold["hits"]["rethink"]):
            failures.append(
                f"{model}: a cold R-D trial pretrained again instead of reading "
                f"its D trial's snapshot (hits: {cold['hits']['rethink']})"
            )
        if snapshots != trials:
            failures.append(
                f"{model}: the cold sweep left {snapshots} snapshot(s), one per seed "
                f"({trials}) expected"
            )
        warm_hits = warm["hits"]["base"] + warm["hits"]["rethink"]
        if not all(warm_hits):
            failures.append(
                f"{model}: warm sweep did not skip pretraining for every trial "
                f"(hits: {warm['hits']})"
            )
        if warm_metrics != cold_metrics:
            failures.append(f"{model}: warm sweep metrics differ from the cold sweep")
        row = {
            "model": model,
            "cold": cold,
            "warm": warm,
            "speedup": cold["seconds"] / max(warm["seconds"], 1e-12),
            "snapshots": snapshots,
            "snapshot": latency,
            "metrics_identical": warm_metrics == cold_metrics,
        }
        report["results"].append(row)
        print(
            f"{model:>10} {cold['seconds']:9.2f}s {warm['seconds']:9.2f}s "
            f"{row['speedup']:7.2f}x {sum(warm_hits)}/{warm['num_trials']:>3} "
            f"(save {latency['save_seconds'] * 1e3:.1f}ms, "
            f"load {latency['load_seconds'] * 1e3:.1f}ms)"
        )

    store_dir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        race = concurrent_put(store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    report["results"].append(race)
    print(
        f"concurrent_put: {race['writers']} processes x {race['puts_per_writer']} "
        f"puts of one key in {race['seconds']:.2f}s, {race['errors']} error(s)"
    )
    if race["errors"]:
        failures.append(
            f"concurrent_put: {race['errors']} error(s), first: {race['first_error']}"
        )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")

    if failures:
        print("ARTIFACT STORE REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
