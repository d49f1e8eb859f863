"""Chaos benchmark for the fault-tolerant sweep machinery (repro.resilience).

Runs a multi-seed sweep three ways and cross-checks them:

* **baseline** — serial, fault-free: the ground truth metrics.
* **chaos** — pooled, under a pinned ``REPRO_FAULTS`` plan (worker crashes,
  injected trial errors, torn artifact writes) with retries enabled.  The
  sweep must complete with zero quarantined trials and reproduce the
  baseline metrics bit for bit — the headline resilience invariant, CI
  fails otherwise.
* **resume** — the same sweep re-run with ``resume=True`` against the
  journal the chaos sweep left behind.  Trials whose journal entries
  survived are served without re-execution; entries torn by the
  ``store_corrupt`` fault are quarantined and re-run (faults are off by
  then).  Either way the results must again equal the baseline bitwise.

The run always writes the chaos sweep's failure report
(``--report PATH``, default ``bench-resilience-report.json``) so CI can
upload the post-mortem whether or not the invariant held.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke    # quick CI run
    PYTHONPATH=src python benchmarks/bench_resilience.py --report chaos.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from repro.env import FAULTS_ENV, env_override
from repro.observability.metrics import metrics_report as unified_report
from repro.parallel import run_sweep
from repro.resilience import RetryPolicy

#: the pinned chaos plan: crash probability stays low because every trial
#: caught in a pool break with others then runs alone, where each crash
#: costs a ``pool_broken`` attempt, and the retry budget is sized for that
#: (see repro.resilience).
FAULT_PLAN = "worker_crash:p=0.2:seed=5,trial_error:p=0.3:seed=2,store_corrupt:p=0.5:seed=9"

_POLICY = RetryPolicy(max_attempts=20, backoff_base=0.001)


def sweep_specs(seeds: List[int], pretrain_epochs: int, rethink_epochs: int):
    return [
        {
            "dataset": "brazil_air_sim",
            "model": "gae",
            "variant": "rethink",
            "seed": seed,
            "training": {
                "pretrain_epochs": pretrain_epochs,
                "rethink_epochs": rethink_epochs,
            },
            "rethink": {"overrides": {"update_omega_every": 2, "update_graph_every": 2}},
        }
        for seed in seeds
    ]


def stripped(results) -> List[Dict]:
    """Per-trial summaries with the wall-clock-dependent fields removed."""
    rows = []
    for result in results:
        summary = result.summary()
        summary.pop("runtime_seconds", None)
        rows.append(summary)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--seeds", type=int, default=None, help="number of seeds")
    parser.add_argument("--jobs", type=int, default=2, help="pool width for the chaos sweep")
    parser.add_argument(
        "--report",
        default="bench-resilience-report.json",
        help="write the chaos sweep's failure report JSON here",
    )
    args = parser.parse_args(argv)

    num_seeds = args.seeds if args.seeds is not None else (3 if args.smoke else 5)
    epochs = (2, 2) if args.smoke else (6, 6)
    specs = sweep_specs(list(range(num_seeds)), *epochs)
    failures: List[str] = []
    store_dir = tempfile.mkdtemp(prefix="bench-resilience-")
    try:
        with env_override(FAULTS_ENV, None):
            start = time.perf_counter()
            baseline = run_sweep(specs, jobs=1)
            baseline_seconds = time.perf_counter() - start
        baseline_rows = stripped(baseline.results)

        with env_override(FAULTS_ENV, FAULT_PLAN):
            start = time.perf_counter()
            chaos = run_sweep(specs, jobs=args.jobs, store_dir=store_dir, policy=_POLICY)
            chaos_seconds = time.perf_counter() - start

        results = chaos.report()
        results["baseline_seconds"] = baseline_seconds
        results["chaos_seconds"] = chaos_seconds
        report = unified_report(
            "bench_resilience",
            results,
            fault_plan=FAULT_PLAN,
            seeds=num_seeds,
            jobs=args.jobs,
        )

        if not chaos.ok:
            failures.append(
                f"chaos sweep quarantined {len(chaos.failures)} trial(s) "
                f"despite retries — see the failure report"
            )
        elif stripped(chaos.results) != baseline_rows:
            failures.append("chaos sweep metrics differ from the fault-free baseline")

        with env_override(FAULTS_ENV, None):
            start = time.perf_counter()
            resumed = run_sweep(specs, jobs=1, store_dir=store_dir, resume=True)
            resume_seconds = time.perf_counter() - start
        results["resumed"] = resumed.resumed
        results["resume_seconds"] = resume_seconds
        # store_corrupt also tears journal blobs at write time; those entries
        # fail their checksum on resume and legitimately re-run, so demand
        # only that the journal served *something* — not a full replay.
        if chaos.ok and not 0 < resumed.resumed <= len(specs):
            failures.append(
                f"resume replayed {resumed.resumed}/{len(specs)} trials; expected "
                f"at least one to be served from the journal"
            )
        if resumed.ok and stripped(resumed.results) != baseline_rows:
            failures.append("resumed sweep metrics differ from the fault-free baseline")

        results["metrics_identical"] = not failures
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)

        print(
            f"bench_resilience: {num_seeds} seeds, plan '{FAULT_PLAN}'\n"
            f"  baseline (serial, fault-free): {baseline_seconds:6.2f}s\n"
            f"  chaos (jobs={args.jobs}, retries): {chaos_seconds:6.2f}s, "
            f"{results['failed']} quarantined\n"
            f"  resume from journal:           {resume_seconds:6.2f}s, "
            f"{resumed.resumed}/{num_seeds} replayed\n"
            f"  report: {args.report}"
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    if failures:
        print("RESILIENCE REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("chaos == fault-free, bitwise; resume == uninterrupted, bitwise")
    return 0


if __name__ == "__main__":
    sys.exit(main())
