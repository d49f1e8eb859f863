"""The supervised process pool: retries, timeouts, crash recovery.

``ProcessPoolExecutor.map`` — what :func:`repro.parallel.parallel_map` used
to be — has all-or-nothing failure semantics: one worker crash, hung trial
or Ctrl-C kills the whole sweep and throws away every finished result.
This module replaces it with a future-based supervisor that treats each
work item as an independently retryable *attempt stream*:

* **Per-attempt timeout** (:data:`~repro.env.TRIAL_TIMEOUT_ENV`): a trial
  running past its budget is reaped — the worker is terminated, the pool
  respawned — and the attempt recorded as a timeout.  Trials that were
  innocently in flight on the same pool are *preempted* (resubmitted
  without consuming an attempt).
* **Crash detection**: a dying worker breaks the whole
  ``ProcessPoolExecutor``; the supervisor catches ``BrokenProcessPool``,
  kills the wreck and spins up a fresh pool.  The pool cannot say which
  trial crashed, so a break with several trials in flight charges none of
  them (an uncounted ``pool_broken_shared`` attempt) and runs each of them
  alone from then on; only a break with a single trial in flight records a
  ``pool_broken`` attempt against its budget.
* **Retry with exponential backoff**: failed attempts are rescheduled at
  ``backoff_base · 2^(attempt-1)`` seconds (capped), scaled by a
  deterministic jitter derived from the item key — no RNG state, bitwise
  reproducible, yet de-synchronised across items.
* **Quarantine over abort**: an item that exhausts ``max_attempts``
  becomes a :class:`TrialFailure` carrying its full attempt history; the
  sweep *completes*, returning ordered partial results plus a failure
  report.  ``fail_fast=True`` opts back into abort-on-first-failure, which
  raises the typed :class:`~repro.errors.TrialTimeoutError` /
  :class:`~repro.errors.TrialFailedError`.
* **Interrupt-safe teardown**: every exit path — success, fail-fast,
  ``KeyboardInterrupt`` — cancels queued futures and terminates worker
  processes, so Ctrl-C can no longer wedge the interpreter behind a pool
  that waits forever for a hung child.

Results are written by input index, so whatever order attempts land in,
the output order equals the input order — the property the bitwise
any-``jobs`` determinism guarantee of :mod:`repro.parallel` rests on.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import env as repro_env
from repro.errors import ConfigError, TrialFailedError, TrialTimeoutError
from repro.observability.metrics import metric_inc
from repro.observability.tracer import span as _span
from repro.observability.tracer import trace_event
from repro.resilience import faults

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "RetryPolicy",
    "TrialFailure",
    "SweepOutcome",
    "supervised_map",
    "backoff_delay",
]

#: attempt outcomes that consume one unit of the retry budget.
_COUNTED_OUTCOMES = {"error", "timeout", "pool_broken"}

#: floor of the scheduler's wait quantum (seconds).
_MIN_TICK = 0.01


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs of one supervised sweep."""

    #: total tries per item (1 = no retries).
    max_attempts: int = 1
    #: per-attempt wall-clock budget in seconds (None = unlimited);
    #: enforced for pooled execution only — a single process cannot
    #: preempt itself without signals.
    timeout: Optional[float] = None
    #: first backoff step; attempt ``n`` waits ``base * 2^(n-1)`` (capped).
    backoff_base: float = 0.05
    #: upper bound of one backoff wait.
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"RetryPolicy.timeout must be positive or None, got {self.timeout}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("RetryPolicy backoff values must be >= 0")

    @classmethod
    def from_env(
        cls,
        max_attempts: Optional[int] = None,
        timeout: Optional[float] = None,
        **overrides: Any,
    ) -> "RetryPolicy":
        """Policy from ``REPRO_MAX_RETRIES`` / ``REPRO_TRIAL_TIMEOUT``.

        Explicit arguments win over the environment; a timeout of 0 (in
        either) means "no timeout".
        """
        if max_attempts is None:
            retries = repro_env.env_int(repro_env.MAX_RETRIES_ENV, 0)
            if retries < 0:
                raise ConfigError(
                    f"{repro_env.MAX_RETRIES_ENV} must be >= 0, got {retries}"
                )
            max_attempts = 1 + retries
        if timeout is None:
            timeout = repro_env.env_float(repro_env.TRIAL_TIMEOUT_ENV, 0.0)
        if timeout is not None and timeout <= 0:
            timeout = None
        return cls(max_attempts=max_attempts, timeout=timeout, **overrides)


def backoff_delay(policy: RetryPolicy, key: str, attempt: int) -> float:
    """Wait before retry ``attempt`` of ``key`` (deterministic jitter).

    Exponential in the attempt index, scaled into ``[0.5, 1.0]`` of the
    step by a jitter value hashed from ``(key, attempt)`` — reproducible
    everywhere, yet different items never retry in lock-step.
    """
    step = min(policy.backoff_max, policy.backoff_base * (2 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"backoff|{key}|{attempt}".encode("utf-8")).hexdigest()
    jitter = int(digest[:16], 16) / float(1 << 64)
    return step * (0.5 + 0.5 * jitter)


@dataclass
class TrialFailure:
    """A work item that exhausted its retry budget (quarantined).

    Sits in the failed item's result slot when a sweep degrades
    gracefully; carries everything a post-mortem needs.
    """

    index: int
    key: str
    attempts: List[Dict[str, Any]]
    error: BaseException

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "error_type": type(self.error).__name__,
            "error": str(self.error),
            "attempts": list(self.attempts),
        }

    def __repr__(self) -> str:
        return (
            f"TrialFailure(index={self.index}, key={self.key!r}, "
            f"attempts={len(self.attempts)}, error={type(self.error).__name__})"
        )


@dataclass
class SweepOutcome:
    """What :func:`supervised_map` returns: ordered results + failures."""

    #: one slot per input item; a quarantined item's slot holds its
    #: :class:`TrialFailure` instead of a result.
    results: List[Any]
    #: the quarantined items, in input order.
    failures: List[TrialFailure]
    #: how many input items were served from a journal instead of executed
    #: (filled in by :func:`repro.parallel.run_sweep` on resume).
    resumed: int = 0
    policy: Optional[RetryPolicy] = None
    #: merged sweep telemetry (``repro-trace/1`` document: spans and summed
    #: counters) when tracing was enabled; filled in by
    #: :func:`repro.parallel.run_sweep`.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> Dict[str, Any]:
        """JSON-serialisable failure report of the sweep."""
        policy = self.policy or RetryPolicy()
        return {
            "total": len(self.results),
            "succeeded": len(self.results) - len(self.failures),
            "failed": len(self.failures),
            "resumed": self.resumed,
            "fault_plan": repro_env.env_str(repro_env.FAULTS_ENV),
            "policy": {
                "max_attempts": policy.max_attempts,
                "timeout": policy.timeout,
                "backoff_base": policy.backoff_base,
                "backoff_max": policy.backoff_max,
            },
            "failures": [failure.to_dict() for failure in self.failures],
        }


def _call_with_faults(fn: Callable[[T], U], item: T, key: str, attempt: int) -> U:
    """The unit actually executed per attempt (module-level: must pickle).

    Routes through the ``trial`` fault-injection site with the attempt
    index folded into the decision key, so deterministic faults re-roll
    between retries.
    """
    faults.inject("trial", f"{key}#a{attempt}")
    return fn(item)


@dataclass
class _TrialState:
    index: int
    item: Any
    key: str
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    counted: int = 0
    retry_at: float = 0.0
    #: shared a broken pool with other trials: runs with nothing beside it.
    alone: bool = False

    def record(self, outcome: str, error: Optional[BaseException], seconds: float) -> None:
        self.attempts.append(
            {
                "attempt": len(self.attempts) + 1,
                "outcome": outcome,
                "error": None if error is None else f"{type(error).__name__}: {error}",
                "seconds": round(seconds, 6),
            }
        )
        if outcome in _COUNTED_OUTCOMES:
            self.counted += 1
        # Supervisor-side observability: the attempt already happened (in a
        # worker, or inline), so it is recorded as a completed span keyed
        # ``<trial key>#a<attempt>`` — the same identity the fault planner
        # and backoff jitter use.
        trace_event(
            "resilience.attempt",
            seconds=seconds,
            attempt_key=f"{self.key}#a{len(self.attempts)}",
            outcome=outcome,
        )
        metric_inc("resilience.attempts")
        if outcome in _COUNTED_OUTCOMES:
            metric_inc(f"resilience.{outcome}")

    def permanent_error(self, policy: RetryPolicy) -> TrialFailedError:
        counted = [a for a in self.attempts if a["outcome"] in _COUNTED_OUTCOMES]
        if counted and counted[-1]["outcome"] == "timeout":
            return TrialTimeoutError(self.key, self.attempts, policy.timeout or 0.0)
        return TrialFailedError(self.key, self.attempts)


def _teardown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut a pool down without ever waiting on a hung or dead worker.

    ``kill=True`` terminates the worker processes outright — the only way
    to reclaim a worker stuck in a hung trial, and the difference between
    Ctrl-C returning promptly and the interpreter hanging in
    ``Executor.__exit__`` forever.  ``_processes`` is private executor
    state, but the stdlib offers no public kill switch before 3.14.
    """
    if kill:
        for process in dict(getattr(pool, "_processes", None) or {}).values():
            if process.is_alive():
                process.terminate()
    pool.shutdown(wait=not kill, cancel_futures=True)


def _serial_map(
    fn: Callable[[T], U],
    states: List[_TrialState],
    policy: RetryPolicy,
    fail_fast: bool,
    on_result: Optional[Callable[[int, Any], None]],
) -> SweepOutcome:
    """In-process execution with the same retry/quarantine semantics.

    Timeouts are not enforced (a process cannot preempt itself without
    signals) and injected crashes/hangs degrade to typed errors inside
    :func:`~repro.resilience.faults.inject`, so a serial sweep can always
    run the identical fault plan without dying.
    """
    results: List[Any] = [None] * len(states)
    failures: List[TrialFailure] = []
    for state in states:
        while True:
            attempt = len(state.attempts) + 1
            start = time.monotonic()
            try:
                value = _call_with_faults(fn, state.item, state.key, attempt)
            except KeyboardInterrupt:
                raise
            # BaseException, not Exception: injected crashes degrade to
            # typed errors here, but a trial calling sys.exit() must be
            # recorded as a failure, exactly as its pooled twin would be.
            except BaseException as error:
                state.record("error", error, time.monotonic() - start)
                if state.counted >= policy.max_attempts:
                    failure = TrialFailure(
                        state.index, state.key, state.attempts, state.permanent_error(policy)
                    )
                    if fail_fast:
                        raise failure.error from error
                    failures.append(failure)
                    results[state.index] = failure
                    break
                metric_inc("resilience.retries")
                with _span("resilience.backoff", key=state.key, attempt=state.counted):
                    time.sleep(backoff_delay(policy, state.key, state.counted))
            else:
                state.record("ok", None, time.monotonic() - start)
                results[state.index] = value
                if on_result is not None:
                    on_result(state.index, value)
                break
    return SweepOutcome(results=results, failures=failures, policy=policy)


def supervised_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: int,
    policy: Optional[RetryPolicy] = None,
    keys: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> SweepOutcome:
    """Map ``fn`` over ``items`` under supervision (see module docstring).

    ``jobs`` must already be resolved to a positive int (use
    :func:`repro.parallel.resolve_jobs`).  ``keys`` are stable per-item
    identities used for fault decisions, backoff jitter and failure
    reports — sweeps pass ``RunSpec.store_key()``; the default is the item
    index.  ``on_result(index, value)`` fires in the parent as each item
    completes, which is where journaled sweeps persist finished trials.
    """
    items = list(items)
    policy = policy if policy is not None else RetryPolicy.from_env()
    if keys is None:
        keys = [f"item{i}" for i in range(len(items))]
    elif len(keys) != len(items):
        raise ConfigError(
            f"supervised_map got {len(items)} items but {len(keys)} keys"
        )
    states = [
        _TrialState(index=i, item=item, key=str(key))
        for i, (item, key) in enumerate(zip(items, keys))
    ]
    if jobs == 1 or len(items) <= 1:
        return _serial_map(fn, states, policy, fail_fast, on_result)
    # Imported here: a sweep that runs in-process never loads the pool.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    results: List[Any] = [None] * len(states)
    failures: List[TrialFailure] = []
    pending: List[_TrialState] = list(states)
    inflight: Dict[Future, Any] = {}
    pool: Optional[ProcessPoolExecutor] = None

    def fail(state: _TrialState) -> Optional[TrialFailure]:
        """Quarantine ``state`` (or schedule its retry); returns the failure."""
        if state.counted >= policy.max_attempts:
            failure = TrialFailure(
                state.index, state.key, state.attempts, state.permanent_error(policy)
            )
            failures.append(failure)
            results[state.index] = failure
            return failure
        state.retry_at = time.monotonic() + backoff_delay(
            policy, state.key, state.counted
        )
        metric_inc("resilience.retries")
        pending.append(state)
        return None

    try:
        while pending or inflight:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=jobs)
            now = time.monotonic()
            # fill the pool with eligible work (backoff delays respected);
            # a trial marked `alone` waits for an empty pool and keeps it
            ready = [s for s in pending if s.retry_at <= now]
            for state in ready:
                if len(inflight) >= jobs or any(s.alone for s, _ in inflight.values()):
                    break
                if state.alone and inflight:
                    continue
                pending.remove(state)
                attempt = len(state.attempts) + 1
                future = pool.submit(
                    _call_with_faults, fn, state.item, state.key, attempt
                )
                inflight[future] = (state, time.monotonic())

            if not inflight:
                # every remaining item is waiting out its backoff
                next_at = min(s.retry_at for s in pending)
                with _span("resilience.backoff", waiting=len(pending)):
                    time.sleep(max(_MIN_TICK, next_at - time.monotonic()))
                continue

            # how long we may block: the nearest attempt deadline or retry
            wait_timeout: Optional[float] = None
            if policy.timeout is not None:
                nearest = min(started for (_, started) in inflight.values())
                wait_timeout = max(_MIN_TICK, nearest + policy.timeout - now)
            if pending:
                next_retry = max(_MIN_TICK, min(s.retry_at for s in pending) - now)
                wait_timeout = (
                    next_retry if wait_timeout is None else min(wait_timeout, next_retry)
                )
            done, _ = wait(set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED)

            broken: List[Tuple[_TrialState, float]] = []
            for future in done:
                state, started = inflight.pop(future)
                elapsed = time.monotonic() - started
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken.append((state, started))
                except KeyboardInterrupt:
                    raise
                # BaseException: the pool re-raises whatever the worker
                # died with, including SystemExit-shaped trial bugs.
                except BaseException as error:
                    state.record("error", error, elapsed)
                    failure = fail(state)
                    if failure is not None and fail_fast:
                        raise failure.error from error
                else:
                    state.record("ok", None, elapsed)
                    results[state.index] = value
                    if on_result is not None:
                        on_result(state.index, value)

            def salvage(future: Future, state: _TrialState, started: float) -> bool:
                """Bank a result that completed between wait() and now."""
                if not future.done() or future.exception() is not None:
                    return False
                state.record("ok", None, time.monotonic() - started)
                results[state.index] = future.result()
                if on_result is not None:
                    on_result(state.index, results[state.index])
                return True

            if broken:
                # the executor is a write-off: every still-inflight future
                # is doomed to the same BrokenProcessPool, so account for
                # them now and respawn.
                for future, (state, started) in list(inflight.items()):
                    if not salvage(future, state, started):
                        broken.append((state, started))
                inflight.clear()
                for state, started in broken:
                    elapsed = time.monotonic() - started
                    if len(broken) > 1:
                        # any of them may have crashed it: charge none, and
                        # give each a pool of its own to find out
                        state.record("pool_broken_shared", None, elapsed)
                        state.alone = True
                        state.retry_at = 0.0
                        pending.append(state)
                        continue
                    state.record("pool_broken", None, elapsed)
                    failure = fail(state)
                    if failure is not None and fail_fast:
                        raise failure.error
                _teardown_pool(pool, kill=True)
                pool = None
                trace_event("resilience.pool_respawn", reason="pool_broken")
                metric_inc("resilience.pool_respawns")
                continue

            # reap attempts that outlived their budget
            if policy.timeout is not None:
                now = time.monotonic()
                timed_out = [
                    (future, state, started)
                    for future, (state, started) in inflight.items()
                    if now - started > policy.timeout
                ]
                if timed_out:
                    reaped = {future for future, _, _ in timed_out}
                    for future, state, started in timed_out:
                        state.record("timeout", None, now - started)
                        failure = fail(state)
                        if failure is not None and fail_fast:
                            raise failure.error
                    # innocent cohabitants are preempted, not penalised
                    for future, (state, started) in inflight.items():
                        if future in reaped:
                            continue
                        if salvage(future, state, started):
                            continue
                        state.record("preempted", None, now - started)
                        state.retry_at = 0.0
                        pending.append(state)
                    inflight.clear()
                    # the only way to stop a running task is to kill its
                    # worker; the pool goes with it.
                    _teardown_pool(pool, kill=True)
                    pool = None
                    trace_event("resilience.pool_respawn", reason="timeout")
                    metric_inc("resilience.pool_respawns")
    finally:
        if pool is not None:
            _teardown_pool(pool, kill=True)

    failures.sort(key=lambda f: f.index)
    return SweepOutcome(results=results, failures=failures, policy=policy)
