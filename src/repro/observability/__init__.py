"""repro.observability — structured tracing, counters and profiling.

The telemetry substrate of the library, gated by the one switch
``REPRO_TRACE`` (see :mod:`repro.env`):

* :mod:`~repro.observability.tracer` — nested context-manager spans with
  monotonic wall/CPU timing, threaded through the pipeline stages, trainer
  phases, kernels, store operations and the resilience supervisor, and
  the counters :func:`metric_inc` adds to.  One ``None`` check per call
  site while disabled.
* :mod:`~repro.observability.metrics` — :func:`metric_inc`'s import path,
  plus the unified benchmark report schema.
* :mod:`~repro.observability.collect` — the sorted-by-trial-key sweep merge
  of per-trial payloads.
* :mod:`~repro.observability.exporters` — Chrome trace-event JSON (loadable
  in Perfetto) and the ``trace-summary`` breakdown.
* :mod:`~repro.observability.log` — the ``repro`` logger hierarchy that
  library code uses instead of ``print()`` (enforced by lint rule REP008).
"""

from repro.observability.collect import merge_sweep_telemetry
from repro.observability.exporters import (
    TRACE_SCHEMA,
    chrome_trace,
    format_trace_summary,
    load_trace_events,
    store_trace_path,
    summarize_trace,
    write_chrome_trace,
)
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS_SCHEMA, metrics_report
from repro.observability.tracer import (
    Span,
    Tracer,
    active_tracer,
    install_tracer,
    metric_inc,
    span,
    trace_event,
    tracing_enabled,
    tracing_session,
    uninstall_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "span",
    "trace_event",
    "metric_inc",
    "active_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_enabled",
    "tracing_session",
    "METRICS_SCHEMA",
    "metrics_report",
    "merge_sweep_telemetry",
    "TRACE_SCHEMA",
    "chrome_trace",
    "write_chrome_trace",
    "load_trace_events",
    "summarize_trace",
    "format_trace_summary",
    "store_trace_path",
    "get_logger",
]
