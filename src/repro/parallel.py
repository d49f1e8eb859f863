"""Deterministic multi-process execution of independent trials.

Every trial in this library is identified by a fully serialisable
:class:`~repro.api.spec.RunSpec`, and every source of randomness inside a
trial is derived from the seeds carried by that spec.  A trial is therefore
a *reproducible unit*: executing the same spec in another process yields the
same metrics bit for bit.  This module exploits that to fan multi-seed
workloads (the mean ± std tables, ``repro-run --jobs N``, the benchmark
suite) out over a process pool while keeping results indistinguishable from
a serial run:

* :func:`run_sweep` executes a list of specs and returns a
  :class:`~repro.resilience.SweepOutcome` whose ``results`` are the
  :class:`~repro.api.pipeline.RunResult` objects *in input order* —
  ``run_sweep(specs, jobs=4).results`` equals ``run_sweep(specs,
  jobs=1).results`` element-wise (the trained model is not returned in
  either mode; models hold autograd closures that cannot cross process
  boundaries).  :meth:`repro.api.Pipeline.run_sweep` expands one pipeline
  over a list of seeds into such a sweep, and each D / R-D pair of Tables
  1-4 and 17 runs as two of them.
* :func:`parallel_map` is the underlying order-preserving, fail-fast pool
  map for work units that are not spec-shaped.
* :func:`load_dataset_cached` is the worker-side dataset memoisation: a
  per-process LRU keyed by the full dataset spec, so a worker executing
  many trials of one sweep materialises the graph once
  (:func:`dataset_cache_info` exposes the per-process counters).  It lives
  in :mod:`repro.datasets.cache` and is re-exported here.

Execution rides on the supervised pool of
:mod:`repro.resilience.supervisor`: per-attempt timeouts, crash recovery
with pool respawn, retry with deterministic backoff (all set by a
:class:`~repro.resilience.RetryPolicy`), and interrupt-safe teardown.
:func:`run_sweep` additionally journals per-trial completions into the
artifact store so an interrupted sweep can resume (``repro-run --resume``)
skipping finished trials, bitwise identical to an uninterrupted run.

Workers are plain ``concurrent.futures`` processes running this same code
base; no third-party dependency is involved.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.datasets.cache import (  # noqa: F401  (re-exported)
    clear_dataset_cache,
    dataset_cache_info,
    load_dataset_cached,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    SweepOutcome,
    TrialFailure,
    supervised_map,
)

T = TypeVar("T")
U = TypeVar("U")


def default_jobs() -> int:
    """Number of workers used when ``jobs`` is passed as ``"auto"``."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Union[int, str, None], num_items: int) -> int:
    """Normalise a ``jobs`` argument: ``None``→1, ``"auto"``→cpu count.

    The result is clamped to ``num_items`` — extra workers would only sit
    idle — and validated to be positive.
    """
    if jobs is None:
        resolved = 1
    elif isinstance(jobs, str):
        if jobs != "auto":
            raise ValueError(f"jobs must be a positive int, None or 'auto', got {jobs!r}")
        resolved = default_jobs()
    else:
        resolved = int(jobs)
    if resolved < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return max(1, min(resolved, num_items))


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: Union[int, str, None] = None,
    policy: Optional[RetryPolicy] = None,
    keys: Optional[Sequence[str]] = None,
) -> List[U]:
    """Order-preserving map over a supervised process pool.

    With ``jobs in (None, 1)`` (or a single item) the map runs in-process,
    which keeps tracebacks simple and avoids pool start-up cost.  ``fn``
    must be an importable module-level function and ``items`` picklable
    when ``jobs > 1``.

    Execution is supervised (:func:`repro.resilience.supervised_map`):
    worker crashes break only the affected attempts, hung items are reaped
    after ``policy.timeout``, and failed attempts retry with deterministic
    backoff up to ``policy.max_attempts`` (default: one attempt, no
    timeout).  ``parallel_map`` is fail-fast: an item that exhausts its
    budget raises the typed :class:`~repro.errors.TrialFailedError` /
    :class:`~repro.errors.TrialTimeoutError` carrying the full attempt
    history.  Sweeps that should degrade gracefully instead go through
    :func:`run_sweep`.
    """
    items = list(items)
    jobs = resolve_jobs(jobs, len(items))
    outcome = supervised_map(fn, items, jobs, policy=policy, keys=keys, fail_fast=True)
    return outcome.results


# ----------------------------------------------------------------------
# spec-based trial execution
# ----------------------------------------------------------------------
def _normalise_spec(spec: Any) -> Dict[str, Any]:
    """Coerce a RunSpec / dict / JSON string into a plain spec dict."""
    from repro.api.spec import RunSpec

    if isinstance(spec, RunSpec):
        return spec.to_dict()
    if isinstance(spec, str):
        return RunSpec.from_json(spec).to_dict()
    if isinstance(spec, dict):
        # Validate eagerly so malformed specs fail in the caller's process
        # with a clean SpecError instead of inside a pool worker.
        return RunSpec.from_dict(spec).to_dict()
    from repro.errors import SpecError

    raise SpecError(f"cannot execute a trial from {type(spec).__name__}")


def _execute_spec(item: Tuple[Dict[str, Any], Optional[str]]) -> Any:
    """Pool worker: run one ``(spec_dict, store_dir)`` item and return a
    process-portable result.

    ``store_dir`` is the store root the parent resolved for the sweep.  The
    worker's pipeline gets it as ``warm_start(store_dir)``, or
    ``warm_start(False)`` when it is ``None``, so no worker reads
    ``REPRO_STORE_DIR``.

    The trained model is dropped: its autograd tensors hold backward
    closures that cannot be pickled, and keeping the serial path identical
    to the parallel one is what makes ``jobs`` a pure throughput knob.

    With ``REPRO_SANITIZE=1`` exported (workers inherit the environment)
    the trial runs under the runtime sanitizers, including the check that
    it never consumes this worker's process-global RNG — the invariant the
    bitwise any-``jobs`` determinism guarantee rests on.

    With ``REPRO_TRACE`` exported, the trial runs under a *fresh* tracer
    (:func:`repro.observability.tracing_session`) whose spans and counters
    are shipped back in ``result.extra['telemetry']`` — the only way they
    cross the process boundary.  Telemetry never consumes RNG, so traced
    sweeps stay bitwise identical to untraced ones.
    """
    from repro.analysis.sanitizers import install_from_env, rng_isolation_check
    from repro.api.pipeline import Pipeline
    from repro.observability.tracer import tracing_session

    spec_dict, store_dir = item
    pipeline = Pipeline.from_spec(spec_dict)
    pipeline = pipeline.warm_start(False if store_dir is None else store_dir)
    install_from_env()
    with rng_isolation_check(f"trial {spec_dict.get('model')}/{spec_dict.get('dataset')}"):
        with tracing_session() as tracer:
            result = pipeline.run()
    result.model = None
    if tracer is not None:
        result.extra["telemetry"] = tracer.payload()
    return result


def run_sweep(
    specs: Iterable[Any],
    jobs: Union[int, str, None] = None,
    store_dir: Optional[str] = None,
    resume: bool = False,
    policy: Optional[RetryPolicy] = None,
    fail_fast: bool = False,
) -> SweepOutcome:
    """Execute specs under supervision; the full-fidelity sweep entry point.

    Returns a :class:`~repro.resilience.SweepOutcome`: ordered per-spec
    results, quarantined :class:`~repro.resilience.TrialFailure` entries
    for trials that exhausted their retry budget (``fail_fast=True``
    instead raises the typed error on the first quarantine), and a
    JSON-serialisable failure report (:meth:`SweepOutcome.report`).

    ``store_dir`` is the sweep's artifact store root, already resolved:
    :meth:`repro.api.Pipeline.run_sweep` passes its ``warm_start`` store
    here.  Each work item carries it to its worker as ``(spec_dict,
    store_dir)``, so every trial warm-starts from that store; with
    ``store_dir=None`` every trial pretrains cold and nothing is journaled,
    whatever ``REPRO_STORE_DIR`` says.

    With a store, every finished trial is **journaled** into it as
    it completes, keyed by ``RunSpec.store_key()`` under a sweep key hashed
    from the ordered trial list.  ``resume=True`` replays those journal
    entries — finished trials are skipped, and because each trial is
    bitwise-reproducible from its spec, the resumed sweep's results equal
    an uninterrupted run's bit for bit (``SweepOutcome.resumed`` counts the
    replayed trials).  Corrupt journal entries are quarantined by the store
    and simply re-run.  The store is never garbage-collected here; that is
    :meth:`~repro.store.ArtifactStore.gc` (``repro-run store-gc``).

    With ``REPRO_TRACE`` enabled the per-trial spans and counters shipped
    back by the workers are merged (deterministically, by trial key) with
    the supervisor's own into :attr:`SweepOutcome.telemetry`; when a store
    is configured the merged document is also written as a Chrome trace
    under ``<store>/traces/``.
    """
    from repro.observability.collect import merge_sweep_telemetry
    from repro.observability.exporters import store_trace_path, write_chrome_trace
    from repro.observability.tracer import tracing_session
    from repro.resilience.journal import open_journal, sweep_key
    from repro.store import ArtifactStore

    spec_dicts = [_normalise_spec(spec) for spec in specs]
    trial_keys = [_spec_key(d) for d in spec_dicts]
    store = None if store_dir is None else ArtifactStore(store_dir)
    journal = open_journal(store, trial_keys)
    completed: Dict[int, Any] = {}
    if journal is not None and resume:
        completed = journal.load()
    remaining = [i for i in range(len(spec_dicts)) if i not in completed]

    on_result: Optional[Callable[[int, Any], None]] = None
    if journal is not None:
        def on_result(sub_index: int, value: Any) -> None:
            journal.record(remaining[sub_index], value)

    resolved = resolve_jobs(jobs, len(remaining))
    # The supervisor gets its own tracer for the sweep: attempt spans,
    # backoff waits, pool respawns and journal/store traffic land here,
    # while each trial captures (and ships back) its own — see
    # ``_execute_spec``.
    with tracing_session() as supervisor_tracer:
        outcome = supervised_map(
            _execute_spec,
            [(spec_dicts[i], store_dir) for i in remaining],
            resolved,
            policy=policy,
            keys=[trial_keys[i] for i in remaining],
            fail_fast=fail_fast,
            on_result=on_result,
        )

    results: List[Any] = [None] * len(spec_dicts)
    for index, value in completed.items():
        results[index] = value
    for sub_index, index in enumerate(remaining):
        slot = outcome.results[sub_index]
        if isinstance(slot, TrialFailure):
            slot.index = index  # re-anchor to the caller's spec order
        results[index] = slot

    telemetry: Optional[Dict[str, Any]] = None
    if supervisor_tracer is not None:
        # Merge order is (trial key, spec index) — never pool arrival
        # order — so the document is identical for any ``jobs``.
        triples = []
        for index, value in enumerate(results):
            extra = getattr(value, "extra", None)
            payload = extra.get("telemetry") if isinstance(extra, dict) else None
            triples.append((trial_keys[index], index, payload))
        telemetry = merge_sweep_telemetry(
            triples, supervisor=supervisor_tracer.payload()
        )
        if store is not None:
            write_chrome_trace(
                store_trace_path(store.root, sweep_key(trial_keys)), telemetry
            )

    return SweepOutcome(
        results=results,
        failures=sorted(outcome.failures, key=lambda failure: failure.index),
        resumed=len(completed),
        policy=outcome.policy,
        telemetry=telemetry,
    )


def _spec_key(spec_dict: Dict[str, Any]) -> str:
    """The trial's store identity — the same key warm starts use."""
    from repro.store.keys import run_key

    return run_key(spec_dict)

