"""Counters and the unified benchmark report schema.

Counters live on the active :class:`~repro.observability.tracer.Tracer`, so
``REPRO_TRACE`` arms them together with spans.  :func:`metric_inc` is
re-exported here, where the store, the pretraining cache and the supervisor
import it from; while tracing is off it costs one global load and an
``is None`` test.  A trial ships its counters back as
``{"metrics": {"counters": {...}}}`` and a sweep sums them
(:func:`repro.observability.collect.merge_sweep_telemetry`).

This module also owns the **unified benchmark report schema**
(:data:`METRICS_SCHEMA`, :func:`metrics_report`): every ``benchmarks/``
script emits ``{"schema": ..., "benchmark": ..., "context": ...,
"results": ...}`` so a regression harness can diff timing JSON across runs
and benchmarks without per-script parsers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.observability.tracer import metric_inc

__all__ = [
    "metric_inc",
    "METRICS_SCHEMA",
    "metrics_report",
]

#: Schema tag stamped on every benchmark timing-JSON and telemetry export.
METRICS_SCHEMA = "repro-metrics/1"


def metrics_report(
    benchmark: str,
    results: Any,
    repeats: Optional[int] = None,
    **context: Any,
) -> Dict[str, Any]:
    """The unified timing-JSON envelope emitted by every benchmark script.

    ``results`` keeps each benchmark's native per-workload rows; the
    envelope (schema tag, benchmark name, repeat count, free-form context)
    is what regression tooling keys on.  CI artifact names are unchanged —
    only the JSON inside them gained a common shape.
    """
    report: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "benchmark": str(benchmark),
        "context": {k: context[k] for k in sorted(context)},
        "results": results,
    }
    if repeats is not None:
        report["repeats"] = int(repeats)
    return report
