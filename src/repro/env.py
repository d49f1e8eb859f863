"""The single accessor for every ``REPRO_*`` environment variable.

Configuration through the environment is how sweeps reconfigure pool
workers (children inherit the parent environment), so these variables are
part of the library's public surface.  Before this module existed each
subsystem read ``os.environ`` on its own, which meant there was no one
place listing what can be configured, no consistent parsing/validation,
and no way for tooling to check that a new variable was documented.

Now every variable must be declared here (:data:`ENV_VARS`), every read
goes through the typed getters below, and the REP005 lint rule rejects
``os.environ`` reads anywhere else in the library.  The README's
"Environment variables" table lists the same names, types and defaults,
and a test compares the two.

This module is intentionally dependency-free (stdlib only) so anything —
including :mod:`repro.errors` consumers and the linter itself — can import
it without cycles.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from repro.errors import ConfigError

__all__ = [
    "EnvVar",
    "ENV_VARS",
    "STORE_DIR_ENV",
    "BENCH_JOBS_ENV",
    "SANITIZE_ENV",
    "FAULTS_ENV",
    "TRACE_ENV",
    "env_raw",
    "env_str",
    "env_flag",
    "env_jobs",
    "env_override",
]


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one supported ``REPRO_*`` environment variable."""

    name: str
    kind: str
    default: str
    description: str


#: Registry of every supported variable, in documentation order.  Adding a
#: variable here is what makes a new ``REPRO_*`` read pass REP005 — see
#: CONTRIBUTING.md; the README table then needs its row too.
ENV_VARS: Dict[str, EnvVar] = {}


def _register(name: str, kind: str, default: str, description: str) -> str:
    ENV_VARS[name] = EnvVar(name=name, kind=kind, default=default, description=description)
    return name


STORE_DIR_ENV = _register(
    "REPRO_STORE_DIR",
    "path",
    "(unset: warm starts off)",
    "Root directory of the warm-start artifact store of a pipeline whose "
    "warm_start is unset; warm_start(False) or an explicit directory beats "
    "it.  Sweeps resolve it once in the parent and pool workers receive the "
    "root with each trial.  Also the default root of a bare "
    "'repro-run --warm-start' and of 'store-gc'.",
)
BENCH_JOBS_ENV = _register(
    "REPRO_BENCH_JOBS",
    "int >= 1 or 'auto'",
    "1",
    "Process-pool width for the multi-seed table benchmarks; 'auto' uses "
    "every core.  Per-seed results are bitwise identical for any value.",
)
SANITIZE_ENV = _register(
    "REPRO_SANITIZE",
    "flag (1/true/on)",
    "(unset: sanitizers off)",
    "Enables the runtime sanitizers (NaN/Inf tensor guard, autograd leak "
    "detector, pool-worker RNG isolation) — see repro.analysis.sanitizers.",
)
FAULTS_ENV = _register(
    "REPRO_FAULTS",
    "fault plan",
    "(unset: no faults)",
    "Deterministic fault-injection plan for chaos testing, e.g. "
    "'worker_crash:p=0.3:seed=7,store_corrupt' — see "
    "repro.resilience.faults.  Never set in production.",
)
TRACE_ENV = _register(
    "REPRO_TRACE",
    "flag (1/true/on)",
    "(unset: tracing off)",
    "Enables the span tracer and its counters (repro.observability): "
    "pipeline stages, trainer phases, kernel and store operations are timed, "
    "and store hits/misses, warm pretrains, attempts and retries counted; "
    "pool workers ship their spans and counters back with trial results and "
    "'repro-run --trace' exports a merged Chrome trace.  Disabled, every "
    "instrumented site costs one None check.",
)


def _check_registered(name: str) -> EnvVar:
    try:
        return ENV_VARS[name]
    except KeyError:
        raise ConfigError(
            f"unregistered environment variable {name!r}; declare it in "
            f"repro.env.ENV_VARS (known: {', '.join(sorted(ENV_VARS))})"
        ) from None


def env_raw(name: str) -> Optional[str]:
    """The raw value of a *registered* variable (``None`` when unset).

    This is the only place in the library that reads ``os.environ``; the
    REP005 lint rule keeps it that way.  The value is read per call, never
    cached, so reconfiguring a worker between trials takes effect
    immediately.
    """
    _check_registered(name)
    value = os.environ.get(name)
    return value if value else None


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """String value of ``name``, or ``default`` when unset/empty."""
    value = env_raw(name)
    return default if value is None else value


def env_flag(name: str) -> bool:
    """Boolean flag: ``1``/``true``/``yes``/``on`` (case-insensitive) enable."""
    value = env_raw(name)
    if value is None:
        return False
    return value.strip().lower() in {"1", "true", "yes", "on"}


def env_jobs(name: str, default: Union[int, str] = 1) -> Union[int, str]:
    """A jobs-count value: a positive integer or the literal ``'auto'``."""
    value = env_raw(name)
    if value is None:
        return default
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be a positive integer or 'auto', got {value!r}") from None
    if jobs < 1:
        raise ConfigError(f"{name} must be >= 1 or 'auto', got {jobs}")
    return jobs


@contextlib.contextmanager
def env_override(name: str, value: Optional[str]) -> Iterator[Optional[str]]:
    """Temporarily set a registered variable (``None`` value = no-op).

    Setting the variable in the parent before a process pool spins up is
    what propagates configuration to every worker; this context restores
    the previous value (or unsets) on exit.
    """
    _check_registered(name)
    if value is None:
        yield None
        return
    value = str(value)
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield value
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous

