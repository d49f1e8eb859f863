"""repro.observability — structured tracing, metrics and profiling.

The telemetry substrate of the library, gated by ``REPRO_TRACE`` /
``REPRO_METRICS`` (see :mod:`repro.env`):

* :mod:`~repro.observability.tracer` — nested context-manager spans with
  monotonic wall/CPU timing, threaded through the pipeline stages, trainer
  phases, kernels, store operations and the resilience supervisor.  One
  ``None`` check per call site while disabled.
* :mod:`~repro.observability.metrics` — counters/gauges/histograms with
  deterministic merging, plus the unified benchmark report schema.
* :mod:`~repro.observability.collect` — per-trial capture in pool workers
  and the sorted-by-trial-key sweep merge.
* :mod:`~repro.observability.exporters` — Chrome trace-event JSON (loadable
  in Perfetto) and the ``trace-summary`` breakdown.
* :mod:`~repro.observability.log` — the ``repro`` logger hierarchy that
  library code uses instead of ``print()`` (enforced by lint rule REP008).
"""

from repro.observability.collect import (
    TrialTelemetry,
    install_from_env,
    merge_sweep_telemetry,
    telemetry_wanted,
    trial_telemetry,
)
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
from repro.observability.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    active_metrics,
    install_metrics,
    merge_metrics,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_enabled,
    metrics_report,
    uninstall_metrics,
)
from repro.observability.tracer import (
    Span,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    trace_count,
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
    "trace_count",
    "active_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_enabled",
    "tracing_session",
    "MetricsRegistry",
    "metric_inc",
    "metric_set",
    "metric_observe",
    "active_metrics",
    "install_metrics",
    "uninstall_metrics",
    "metrics_enabled",
    "merge_metrics",
    "METRICS_SCHEMA",
    "metrics_report",
    "TrialTelemetry",
    "trial_telemetry",
    "telemetry_wanted",
    "install_from_env",
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
