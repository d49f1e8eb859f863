"""End-to-end benchmark of whole trials and sweeps.

Run from the repository root::

    python3 e2ebench/run.py --workload full_trial --seed 0 --seconds 35 --trace 0

Each measurement is a fresh interpreter (``trial.py``) started with a
hermetic environment: no inherited ``REPRO_*`` variable, one BLAS thread,
``PYTHONPATH=src``.  The run starts measured processes one after another (a
closed loop with one client) until ``--seconds`` are used, and reports the
medians.  ``--trace 1`` alternates untraced and traced processes and
reports the per-layer metrics of the traced one plus the tracing overhead.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib-only at import time)

#: the whole run, building included, must end within this many seconds.
RUN_LIMIT_S = 170.0

#: where runs keep their scratch files (results, fresh stores, traces).
SCRATCH_DIR = ".e2ebench"

#: interpreter variables that change what a measured process does or costs.
PYTHON_VARIABLES = (
    "PYTHONPATH",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONDEVMODE",
    "PYTHONTRACEMALLOC",
    "PYTHONMALLOC",
    "PYTHONWARNINGS",
    "PYTHONSTARTUP",
    "PYTHONINSPECT",
)


def hermetic_env(base: Dict[str, str], root: str) -> Dict[str, str]:
    """The environment of every measured process.

    Inherited ``REPRO_*`` variables are dropped: ``REPRO_STORE_DIR`` would
    let every run after the first skip pretraining, ``REPRO_SANITIZE`` and
    ``REPRO_TRACE`` add per-op hooks, ``REPRO_FAULTS`` injects failures.
    One BLAS thread per process keeps CPU time equal to wall time, also
    with two pool workers on two cores.
    """
    env = {
        key: value
        for key, value in base.items()
        if not key.startswith("REPRO_") and key not in PYTHON_VARIABLES
    }
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def import_times(path: str) -> Dict[str, float]:
    """numpy / scipy / repro import seconds from a ``-X importtime`` log.

    A package's time is the cumulative time of its outermost imports; an
    import nested in numpy or scipy belongs to that package (scipy pulls in
    parts of numpy), and the repro figure excludes the numpy and scipy
    imports it triggered.
    """
    rows = []  # (depth, top-level package, cumulative µs), in completion order
    with open(path, encoding="utf-8", errors="replace") as stream:
        for line in stream:
            parts = line.rstrip("\n").split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            depth = (len(parts[2]) - len(parts[2].lstrip(" ")) - 1) // 2
            rows.append((depth, name.split(".")[0], cumulative))
    totals = {"numpy": 0, "scipy": 0, "repro": 0}
    nested_in_repro = 0
    ancestors: List[Any] = []
    for depth, package, cumulative in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        packages = {a[1] for a in ancestors}
        if package in totals and package not in packages and not packages & {"numpy", "scipy"}:
            totals[package] += cumulative
            if package != "repro" and "repro" in packages:
                nested_in_repro += cumulative
        ancestors.append((depth, package))
    totals["repro"] -= nested_in_repro
    return {f"import.{package}_s": micros / 1e6 for package, micros in totals.items()}


class Harness:
    """Starts, times, collects and checks the measured processes of one run."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.instance = workloads.instance_of(seed)
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as stream:
            self.expected = json.load(stream)[workload][str(self.instance)]
        self.env = hermetic_env(dict(os.environ), root)
        self.started = time.monotonic()
        scratch = os.path.join(root, SCRATCH_DIR)
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.trace_path = os.path.join(scratch, f"{workload}.trace.json")
        self.count = 0

    def prepare(self) -> None:
        """Compile bytecode and warm the page cache before anything is timed."""
        for directory in ("src", os.path.relpath(HERE, self.root)):
            compileall.compile_dir(os.path.join(self.root, directory), quiet=1)
        subprocess.run(
            [sys.executable, "-c", "import repro.api, repro.parallel"],
            cwd=self.root, env=self.env, check=True, timeout=60,
        )

    def measure(self, traced: bool) -> Optional[Dict[str, Any]]:
        """One measured process, its outputs checked; None when it crashed or timed out."""
        self.count += 1
        out = os.path.join(self.tmp, f"result-{self.count}.json")
        log = os.path.join(self.tmp, f"stderr-{self.count}.log")
        command = [sys.executable]
        if traced:
            command += ["-X", "importtime"]
        command += [
            os.path.join(HERE, "trial.py"),
            "--workload", self.workload,
            "--instance", str(self.instance),
            "--out", out,
        ]
        if traced:
            command += ["--trace", self.trace_path]
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(log, "w", encoding="utf-8") as stderr:
            spawned_at = time.monotonic()
            process = subprocess.Popen(
                command + ["--spawned-at", repr(spawned_at)],
                cwd=self.root, env=self.env, stdout=stderr, stderr=stderr,
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = -1
            finally:
                # Also stops anything the process left running in its group.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        if code != 0 or not os.path.exists(out):
            with open(log, encoding="utf-8", errors="replace") as stream:
                tail = stream.read()[-2000:]
            print(f"measured process exited with {code}:\n{tail}", file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as stream:
            result = json.load(stream)
        problems = workloads.check(result, self.expected)
        result["problems"] = [f"trial {i}: {message}" for i, message in problems]
        result["failed"] = workloads.failed_trials(len(result["trials"]), problems)
        result.update(workloads.quality(result, self.expected))
        if traced:
            result["layers"].update(import_times(log))
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _failures(results: List[Optional[Dict[str, Any]]], trials_per_run: int) -> int:
    return sum(trials_per_run if r is None else r["failed"] for r in results)


def end_to_end(results: List[Optional[Dict[str, Any]]], trials_per_run: int) -> Dict[str, float]:
    done = [r for r in results if r is not None]
    attempted = trials_per_run * len(results)
    return {
        "setup_s": _median([r["setup_s"] for r in done]),
        "run_s": _median([r["run_s"] for r in done]),
        "run_cpu_s": _median([r["run_cpu_s"] for r in done]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
        "acc_rel": _median([r["acc_rel"] for r in done]),
        "nmi_rel": _median([r["nmi_rel"] for r in done]),
        "ok_frac": (attempted - _failures(results, trials_per_run)) / attempted,
    }


def per_layer(
    untraced: List[Optional[Dict[str, Any]]], traced: List[Optional[Dict[str, Any]]]
) -> Dict[str, float]:
    """Layer metrics of the traced process with the median run_s."""
    done = sorted((r for r in traced if r is not None), key=lambda r: r["run_s"])
    if not done:
        return {}
    chosen = done[(len(done) - 1) // 2]
    metrics = dict(chosen["layers"])
    base = _median([r["run_s"] for r in untraced if r is not None])
    if base:
        metrics["trace.overhead_frac"] = _median([r["run_s"] for r in done]) / base - 1.0
    return metrics


def _outputs_differ(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    keys = ("acc", "nmi", "epochs_run")
    return [[t.get(k) for k in keys] for t in a["trials"]] != [
        [t.get(k) for k in keys] for t in b["trials"]
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end trial and sweep benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run from a repository checkout: src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)

    # A terminated run still stops its measured process (see Harness.measure).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness = Harness(root, args.workload, args.seed)
    expected_trials = len(harness.expected["trials"])
    try:
        harness.prepare()
        untraced: List[Optional[Dict[str, Any]]] = []
        traced: List[Optional[Dict[str, Any]]] = []
        walls: List[float] = []
        measuring_from = harness.elapsed()
        # Start another round only while it is expected to end in time.
        while True:
            started = harness.elapsed()
            untraced.append(harness.measure(traced=False))
            if args.trace:
                traced.append(harness.measure(traced=True))
            walls.append(harness.elapsed() - started)
            if harness.elapsed() - measuring_from + _median(walls) > args.seconds:
                break
    finally:
        harness.close()

    results = untraced + traced
    failed = _failures(results, expected_trials)
    reference = next((r for r in untraced if r is not None), None)
    for result in traced:
        if result is not None and reference is not None and _outputs_differ(result, reference):
            print("traced outputs differ from the untraced run", file=sys.stderr)
            failed += expected_trials
    if not any(r is not None for r in untraced):
        print("no measured process completed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(untraced, traced)
        names = spec["per_layer"]
    else:
        values = end_to_end(untraced, expected_trials)
        names = spec["end_to_end"]
    for result in results:
        for problem in (result or {}).get("problems", []):
            print(f"check: {problem}", file=sys.stderr)
    done = [r for r in untraced if r is not None]
    print(
        f"{args.workload} instance {harness.instance}: {len(done)} processes, "
        f"run_s {[round(r['run_s'], 3) for r in done]}, "
        f"run_cpu_s {[round(r['run_cpu_s'], 3) for r in done]}, "
        f"acc {_median([r['acc'] for r in done]):.4f}, nmi {_median([r['nmi'] for r in done]):.4f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": expected_trials * len(results),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
