"""Span-based tracer: nested wall/CPU-timed spans, plus the run's counters.

The library's hot paths (``spmm``, the clustering kernels, the Υ transform,
store reads) run millions of times across a sweep, so instrumentation must
cost *nothing* when it is off.  This module uses the same near-zero-cost
hook pattern as ``repro.nn.tensor.set_sanitizer_hooks``: one module-level
``Optional`` global, and every instrumented call site pays exactly one
global load plus an ``is None`` test before bailing out through a shared
no-op span.  Enabling tracing (``REPRO_TRACE=1`` or :func:`install_tracer`)
swaps a real :class:`Tracer` into that global.  It is the only telemetry
switch: :func:`metric_inc` adds to the active tracer's :attr:`Tracer.counters`
(store hits and misses, warm pretrains, attempts, retries), so counters
exist exactly when spans do.

A :class:`Span` is a context manager::

    with span("kernel.kmeans_fit", restarts=10) as s:
        ...
        s.count("iterations", n_iter)

Spans nest (the tracer keeps a stack), record monotonic wall time
(``time.perf_counter``) and process CPU time (``time.process_time``), and
serialise to plain JSON-able dicts so pool workers can ship their span
trees back to the supervisor with the trial result (see
``repro.parallel._execute_spec``).  Tracing never touches any RNG and never
feeds back into numeric state, so traced runs stay bitwise identical to
untraced runs.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Iterator, List, Optional, Union

from repro import env as repro_env

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
]

Scalar = Union[int, float, str, bool, None]


def _plain(value: Any) -> Scalar:
    """Coerce an attribute value to a JSON-able scalar (numpy ints, etc.)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class Span:
    """One timed region: name, attributes, counters and child spans.

    Spans are created through :func:`span` / :meth:`Tracer.span` and used as
    context managers; entering pushes the span onto the owning tracer's
    stack (so inner ``span()`` calls nest under it), exiting records the
    elapsed wall and CPU time and pops it.
    """

    __slots__ = (
        "name",
        "attributes",
        "counters",
        "children",
        "start",
        "wall_seconds",
        "cpu_seconds",
        "status",
        "_tracer",
        "_cpu_start",
    )

    def __init__(
        self, tracer: "Tracer", name: str, attributes: Dict[str, Scalar]
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.start = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.status = "ok"
        self._tracer = tracer
        self._cpu_start = 0.0

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter() - self._tracer.epoch
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.wall_seconds = time.perf_counter() - self._tracer.epoch - self.start
        self.cpu_seconds = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def count(self, name: str, value: float = 1) -> "Span":
        """Increment a counter local to this span."""
        self.counters[name] = self.counters.get(name, 0) + value
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation of this span and its subtree."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class _NoopSpan:
    """Shared do-nothing span returned by every call site while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def count(self, name: str, value: float = 1) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects a forest of spans and a set of counters for one trial (or sweep).

    The tracer is deliberately single-threaded — trials are single-threaded
    by construction (the parallelism unit is the process), and the
    supervisor records its spans from the main thread only.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        attrs = {key: _plain(value) for key, value in attributes.items()}
        return Span(self, name, attrs)

    def _push(self, node: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)

    def _pop(self, node: Span) -> None:
        # Tolerate unbalanced exits (e.g. a span torn down by an exception
        # that skipped inner __exit__s): unwind to the matching entry.
        while self._stack:
            top = self._stack.pop()
            if top is node:
                break

    def record(self, name: str, seconds: float = 0.0, **attributes: Any) -> Span:
        """Append an already-finished span (retroactive, e.g. pool attempts).

        The supervisor learns an attempt's outcome only after the worker
        returns (or dies), so it records the attempt as a completed span
        with the measured duration rather than wrapping it in ``with``.
        """
        node = self.span(name, **attributes)
        node.start = time.perf_counter() - self.epoch - seconds
        node.wall_seconds = float(seconds)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        return node

    # -- export ---------------------------------------------------------
    def export(self) -> List[Dict[str, Any]]:
        """The collected span forest as JSON-able dicts."""
        return [root.to_dict() for root in self.roots]

    def payload(self) -> Dict[str, Any]:
        """Spans and counters, the JSON-able telemetry shipped with a trial result."""
        counters = dict(sorted(self.counters.items()))
        return {"spans": self.export(), "metrics": {"counters": counters}}


# The hot-path global: one load + is-None test per instrumented call site.
_TRACER: Optional[Tracer] = None


def span(name: str, **attributes: Any) -> Union[Span, _NoopSpan]:
    """A context-manager span on the active tracer (no-op when disabled).

    This is *the* instrumentation entry point; keep argument expressions at
    call sites cheap, because they are evaluated even when tracing is off.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, **attributes)


def trace_event(name: str, seconds: float = 0.0, **attributes: Any) -> None:
    """Record a completed span retroactively (no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.record(name, seconds=seconds, **attributes)


def metric_inc(name: str, value: float = 1) -> None:
    """Add ``value`` to a counter of the active tracer (no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.counters[name] = tracer.counters.get(name, 0) + value


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _TRACER


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a tracer as the process-wide active one."""
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    _TRACER = tracer  # repro: noqa[REP102] Optional-global hook slot: each worker installs its own tracer
    return tracer


def uninstall_tracer() -> None:
    """Disable tracing: instrumented sites return to the no-op path."""
    global _TRACER
    _TRACER = None  # repro: noqa[REP102] Optional-global hook slot: each worker installs its own tracer


def tracing_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing in this process."""
    return repro_env.env_flag(repro_env.TRACE_ENV)  # repro: noqa[REP104] workers re-read inherited REPRO_TRACE by design (set before fan-out)


@contextlib.contextmanager
def tracing_session(enabled: Optional[bool] = None) -> Iterator[Optional[Tracer]]:
    """Install a fresh tracer for the duration of a block, restoring after.

    ``enabled=None`` consults ``REPRO_TRACE``; when disabled the context
    yields ``None`` and changes nothing.  Opened per trial in pool workers
    (``repro.parallel._execute_spec``), per sweep in the supervisor and by a
    single traced ``repro-run``, so spans and counters never leak across
    units of work: a serial trial does not swallow the supervisor's spans,
    and a pool worker running many trials starts each one empty.
    """
    if enabled is None:
        enabled = tracing_enabled()
    if not enabled:
        yield None
        return
    previous = _TRACER
    tracer = install_tracer()
    try:
        yield tracer
    finally:
        if previous is None:
            uninstall_tracer()
        else:
            install_tracer(previous)
