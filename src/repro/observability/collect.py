"""Deterministic cross-process merging of per-trial telemetry.

Pool workers cannot share a tracer with the supervisor, so each trial runs
under its own :func:`~repro.observability.tracer.tracing_session` (opened
by ``repro.parallel._execute_spec``) and ships the tracer's
:meth:`~repro.observability.tracer.Tracer.payload` back *inside* the trial
result (``RunResult.extra['telemetry']``).  The supervisor then assembles
the sweep-level view with :func:`merge_sweep_telemetry` — trials ordered
by store key, never by pool arrival order, so the merged document is as
reproducible as the trials themselves (modulo the timings it exists to
record).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.observability.exporters import TRACE_SCHEMA

__all__ = ["merge_sweep_telemetry"]


def merge_sweep_telemetry(
    trials: List[Tuple[str, int, Optional[Dict[str, Any]]]],
    supervisor: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Merge per-trial telemetry payloads into one sweep-level document.

    ``trials`` is ``(trial_key, spec_index, payload)`` triples; payloads may
    be ``None`` for trials that failed before exporting.  Ordering is by
    ``(trial_key, spec_index)`` — deterministic for any pool width — and the
    sweep-level ``metrics`` sums the counters of every trial and of the
    supervisor.
    """
    ordered = sorted(trials, key=lambda entry: (entry[0], entry[1]))
    trial_docs: List[Dict[str, Any]] = []
    for key, index, payload in ordered:
        payload = payload or {}
        doc: Dict[str, Any] = {
            "key": key,
            "index": index,
            "spans": payload.get("spans", []),
        }
        if payload.get("metrics"):
            doc["metrics"] = payload["metrics"]
        trial_docs.append(doc)
    document: Dict[str, Any] = {"schema": TRACE_SCHEMA, "trials": trial_docs}
    units = list(trial_docs)
    if supervisor:
        document["supervisor"] = supervisor
        units.append(supervisor)
    snapshots = [unit["metrics"] for unit in units if unit.get("metrics")]
    if snapshots:
        counters: Dict[str, float] = {}
        for snapshot in snapshots:
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        document["metrics"] = {"counters": dict(sorted(counters.items()))}
    return document
