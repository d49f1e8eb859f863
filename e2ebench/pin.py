"""Record the expected outputs of every workload instance in expected.json.

Run from the repository root after a change that is meant to alter the
workloads' outputs (and only then)::

    python3 e2ebench/pin.py

Each instance runs once, in the same hermetic environment as a measurement,
and its acc / nmi / epochs_run / phase per trial are written out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

KEPT = ("phase", "acc", "nmi", "epochs_run")


def pin_one(root: str, env: Dict[str, str], workload: str, instance: int) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory(dir=os.path.join(root, run.SCRATCH_DIR)) as tmp:
        out = os.path.join(tmp, "result.json")
        subprocess.run(
            [
                sys.executable, os.path.join(HERE, "trial.py"),
                "--workload", workload, "--instance", str(instance),
                "--spawned-at", repr(time.monotonic()), "--out", out,
            ],
            cwd=root, env=env, check=True,
        )
        with open(out, encoding="utf-8") as stream:
            trials = json.load(stream)["trials"]
    for trial in trials:
        if "failed" in trial or not (trial["acc"] > 0 and trial["nmi"] > 0):
            raise SystemExit(f"{workload} instance {instance}: unusable trial {trial}")
    return {"trials": [{k: t[k] for k in KEPT if k in t} for t in trials]}


def main() -> int:
    root = os.getcwd()
    env = run.hermetic_env(dict(os.environ), root)
    os.makedirs(os.path.join(root, run.SCRATCH_DIR), exist_ok=True)
    expected: Dict[str, Any] = {}
    for workload in sorted(workloads.WORKLOADS):
        for instance in range(workloads.INSTANCES):
            pinned = pin_one(root, env, workload, instance)
            expected.setdefault(workload, {})[str(instance)] = pinned
            print(f"{workload} {instance}: {pinned['trials'][-1]}", flush=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as stream:
        json.dump(expected, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
