"""One measured process: set up a workload, run its timed body, record it.

Started by ``run.py`` in a fresh interpreter for every measurement::

    python3 e2ebench/trial.py --workload full_trial --instance 3 \\
        --spawned-at <time.monotonic() of the parent> --out result.json

``setup_s`` runs from the parent's spawn to the first call of the timed
body: interpreter start, imports and building the workload's input.
``run_s`` is the wall time of the timed body.  With ``--trace PATH`` the
layer wrappers of :mod:`layers` are installed before the input is built,
the per-layer numbers join the result and the spans are written to PATH
as Chrome trace-event JSON.  The outputs are written as they are;
``run.py`` checks them.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import numpy  # noqa: F401  (imported first so import.numpy_s is numpy's alone)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402


def _reap_pool_workers(timeout: float = 30.0) -> None:
    """Wait for every child process, so RUSAGE_CHILDREN covers pool workers.

    The supervised pool terminates its workers without waiting for them;
    an unreaped worker's peak memory never reaches RUSAGE_CHILDREN.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and of every reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process and of every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _store_bytes(root: str) -> int:
    """Bytes of every object the sweep wrote into its store (traces aside)."""
    total = 0
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs if d != "traces"]
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def _sweep_telemetry(workload: Any, outcome: Any) -> List[Optional[Dict[str, Any]]]:
    if workload.jobs == 1:
        return []
    return [outcome[phase].telemetry for phase in ("base", "rethink")]


def _all_spans(
    recorder: layers.Recorder, telemetry: List[Optional[Dict[str, Any]]]
) -> List[layers.Span]:
    """This process's spans, then each sweep's worker spans on their own lanes."""
    spans = list(recorder.spans)
    for phase, document in zip(("base", "rethink"), telemetry):
        spans.extend(layers.telemetry_spans(document, f"{phase}-", offset=len(spans)))
    return spans


def _layer_metrics(
    workload: Any,
    recorder: layers.Recorder,
    spans: List[layers.Span],
    telemetry: List[Optional[Dict[str, Any]]],
    store: Optional[str],
    summary: Dict[str, Any],
    run_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of a traced run (0 for layers it does not reach)."""
    layer = layers.aggregate(spans)

    def counter(name: str) -> float:
        return sum(layers.telemetry_counter(document, name) for document in telemetry)

    metrics = {
        f"{name}.{key}": value for name, entry in layer.items() for key, value in entry.items()
    }
    steps = layer["nn.adam_step"]["calls"]
    tensors = recorder.tensors + counter(layers.WORKER_PREFIX + "tensors")
    nxn = recorder.nxn_tensors + counter(layers.WORKER_PREFIX + "nxn_tensors")
    metrics["nn.tensors_per_step"] = tensors / steps if steps else 0.0
    metrics["nn.nxn_tensors_per_step"] = nxn / steps if steps else 0.0
    trials = [t for t in summary["trials"] if "failed" not in t]
    coverage = [t["omega_coverage"] for t in trials if "omega_coverage" in t]
    metrics["core.omega_coverage"] = sum(coverage) / len(coverage) if coverage else 0.0
    loader = recorder.loader
    sizes = [len(b.node_ids) for b in loader.epoch_batches(0)] if loader is not None else []
    metrics["minibatch.batches_per_epoch"] = float(len(sizes))
    metrics["minibatch.batch_nodes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    busy = sum(t["runtime_seconds"] for t in trials) if workload.jobs > 1 else 0.0
    metrics["parallel.pool_busy_frac"] = busy / (workload.jobs * run_s)
    metrics["resilience.attempts"] = counter("resilience.attempts")
    metrics["resilience.retries"] = counter("resilience.retries")
    metrics["store.pretrain_hits"] = counter("pretrain.warm_hits")
    metrics["store.pretrain_misses"] = counter("pretrain.warm_misses")
    metrics["store.bytes_written"] = float(_store_bytes(store)) if store else 0.0
    metrics["trace.unattributed_frac"] = metrics["api.pipeline_run.self_s"] / run_s
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--instance", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="Chrome trace output path")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    recorder: Optional[layers.Recorder] = None
    uninstall = None
    if args.trace:
        if workload.jobs > 1:
            # Workers ship their spans and counters back in SweepOutcome.telemetry.
            os.environ["REPRO_TRACE"] = "1"
            os.environ["REPRO_METRICS"] = "1"
        recorder = layers.Recorder()
        uninstall = layers.install(recorder)
    state = workload.build(args.instance, os.path.dirname(os.path.abspath(args.out)))
    try:
        setup_s = time.monotonic() - args.spawned_at
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        outcome = workload.run(state)
        run_s = time.perf_counter() - start
        if uninstall is not None:
            uninstall()
        _reap_pool_workers()
        run_cpu_s = _cpu_seconds() - cpu_start
        summary = workload.summarize(outcome)
        result: Dict[str, Any] = {
            "setup_s": setup_s,
            "run_s": run_s,
            "run_cpu_s": run_cpu_s,
            "peak_rss_mb": _peak_rss_mb(),
            "trials": summary["trials"],
        }
        if recorder is not None:
            telemetry = _sweep_telemetry(workload, outcome)
            spans = _all_spans(recorder, telemetry)
            store = state["store"] if workload.jobs > 1 else None
            result["layers"] = _layer_metrics(
                workload, recorder, spans, telemetry, store, summary, run_s
            )
            layers.write_chrome_trace(args.trace, spans)
    finally:
        workload.cleanup(state)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
