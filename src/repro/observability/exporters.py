"""Telemetry exporters: Chrome trace-event JSON and its per-stage summary.

The merged telemetry of a sweep (see ``repro.parallel.run_sweep``) is a
plain dict::

    {"schema": "repro-trace/1",
     "trials": [{"key": ..., "index": ..., "spans": [...],
                 "metrics": {"counters": {...}}}],
     "supervisor": {"spans": [...], "metrics": {"counters": {...}}},
     "metrics": {"counters": {...summed over trials and supervisor...}}}

:func:`chrome_trace` flattens it into the Chrome trace-event format
(``{"traceEvents": [...]}``, ``"X"`` complete events with microsecond
timestamps) that https://ui.perfetto.dev loads directly — each trial gets
its own ``pid`` lane named by its store key, the supervisor gets lane 0.
:func:`summarize_trace` aggregates its events into the per-stage
time/alloc table behind ``repro-run trace-summary``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "chrome_trace",
    "write_chrome_trace",
    "load_trace_events",
    "summarize_trace",
    "format_trace_summary",
    "store_trace_path",
]

#: Schema tag stamped on merged sweep telemetry.
TRACE_SCHEMA = "repro-trace/1"


def _span_events(
    node: Dict[str, Any], pid: int, events: List[Dict[str, Any]]
) -> None:
    args: Dict[str, Any] = {}
    for key, value in node.get("attributes", {}).items():
        args[key] = value
    for key, value in node.get("counters", {}).items():
        args[key] = value
    cpu = node.get("cpu_seconds")
    if cpu:
        args["cpu_ms"] = round(cpu * 1e3, 3)
    if node.get("status", "ok") != "ok":
        args["status"] = node["status"]
    name = str(node.get("name", "span"))
    events.append(
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round(float(node.get("start", 0.0)) * 1e6, 1),
            "dur": round(float(node.get("wall_seconds", 0.0)) * 1e6, 1),
            "pid": pid,
            "tid": 0,
            "args": args,
        }
    )
    for child in node.get("children", []):
        _span_events(child, pid, events)


def _lanes(telemetry: Dict[str, Any]) -> Iterator[Tuple[int, str, Dict[str, Any]]]:
    """(pid, label, unit) lanes of a telemetry dict, supervisor first."""
    supervisor = telemetry.get("supervisor")
    if supervisor:
        yield 0, "supervisor", supervisor
    for lane, trial in enumerate(telemetry.get("trials", []), start=1):
        label = str(trial.get("key", lane))[:16]
        yield lane, f"trial {label}", trial


def chrome_trace(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    """The telemetry as a Perfetto-loadable Chrome trace-event document."""
    events: List[Dict[str, Any]] = []
    for pid, label, unit in _lanes(telemetry):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        )
        for node in unit.get("spans", []):
            _span_events(node, pid, events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": telemetry.get("schema", TRACE_SCHEMA)},
    }


def write_chrome_trace(path: str, telemetry: Dict[str, Any]) -> str:
    """Write the Chrome trace JSON for ``telemetry`` to ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(telemetry), handle)
    return path


def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Load the ``traceEvents`` list from a Chrome trace JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict):
        events = document.get("traceEvents", [])
    else:
        events = document  # bare-array form is also valid Chrome trace
    return [event for event in events if isinstance(event, dict)]


def summarize_trace(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate trace events per span name: calls, wall, CPU, peak alloc.

    Returns rows sorted by total wall time (descending), which is the
    per-stage breakdown ``repro-run trace-summary`` prints.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", "span"))
        row = rows.setdefault(
            name,
            {"name": name, "calls": 0, "wall_ms": 0.0, "cpu_ms": 0.0, "peak_alloc_kb": 0.0},
        )
        row["calls"] += 1
        row["wall_ms"] += float(event.get("dur", 0.0)) / 1e3
        args = event.get("args", {})
        row["cpu_ms"] += float(args.get("cpu_ms", 0.0))
        alloc = args.get("peak_alloc_bytes")
        if alloc is not None:
            row["peak_alloc_kb"] = max(row["peak_alloc_kb"], float(alloc) / 1024.0)
    return sorted(rows.values(), key=lambda row: (-row["wall_ms"], row["name"]))


def format_trace_summary(rows: List[Dict[str, Any]]) -> str:
    """Render :func:`summarize_trace` rows as an aligned text table."""
    header = f"{'span':<36} {'calls':>7} {'wall ms':>12} {'cpu ms':>12} {'peak alloc kb':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        alloc = f"{row['peak_alloc_kb']:.1f}" if row["peak_alloc_kb"] else "-"
        lines.append(
            f"{row['name']:<36} {row['calls']:>7d} {row['wall_ms']:>12.2f} "
            f"{row['cpu_ms']:>12.2f} {alloc:>14}"
        )
    return "\n".join(lines)


def store_trace_path(store_root: str, key: str) -> str:
    """Where a sweep's merged Chrome trace lives inside the artifact store."""
    return os.path.join(store_root, "traces", f"{key[:16]}.trace.json")
