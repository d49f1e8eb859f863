"""The single accessor for every ``REPRO_*`` environment variable.

Configuration through the environment is how sweeps reconfigure pool
workers (children inherit the parent environment), so these variables are
part of the library's public surface.  Before this module existed each
subsystem read ``os.environ`` on its own, which meant there was no one
place listing what can be configured, no consistent parsing/validation,
and no way for tooling to check that a new variable was documented.

Now every variable must be declared here (:data:`ENV_VARS`), every read
goes through the typed getters below, and the REP005 lint rule rejects
``os.environ`` reads anywhere else in the library.  ``describe_env()``
renders the registry as documentation rows; the README table is generated
from it.

This module is intentionally dependency-free (stdlib only) so anything —
including :mod:`repro.errors` consumers and the linter itself — can import
it without cycles.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import ConfigError

__all__ = [
    "EnvVar",
    "ENV_VARS",
    "STORE_DIR_ENV",
    "DATASET_CACHE_SIZE_ENV",
    "BENCH_JOBS_ENV",
    "SANITIZE_ENV",
    "TRIAL_TIMEOUT_ENV",
    "MAX_RETRIES_ENV",
    "FAULTS_ENV",
    "STORE_MAX_BYTES_ENV",
    "TRACE_ENV",
    "env_raw",
    "env_str",
    "env_int",
    "env_float",
    "env_flag",
    "env_jobs",
    "env_override",
    "describe_env",
]


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one supported ``REPRO_*`` environment variable."""

    name: str
    kind: str
    default: str
    description: str


#: Registry of every supported variable, in documentation order.  Adding a
#: variable here (and nowhere else) is what makes a new ``REPRO_*`` read
#: pass REP005 — see CONTRIBUTING.md.
ENV_VARS: Dict[str, EnvVar] = {}


def _register(name: str, kind: str, default: str, description: str) -> str:
    ENV_VARS[name] = EnvVar(name=name, kind=kind, default=default, description=description)
    return name


STORE_DIR_ENV = _register(
    "REPRO_STORE_DIR",
    "path",
    "(unset: warm starts off)",
    "Root directory of the warm-start artifact store; unset disables "
    "checkpoint reuse entirely.",
)
DATASET_CACHE_SIZE_ENV = _register(
    "REPRO_DATASET_CACHE_SIZE",
    "int >= 0",
    "8",
    "Max entries of the per-process dataset LRU used by pool workers; "
    "0 disables caching.",
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
TRIAL_TIMEOUT_ENV = _register(
    "REPRO_TRIAL_TIMEOUT",
    "float seconds > 0",
    "(unset: no timeout)",
    "Per-attempt wall-clock budget of a pooled trial; a trial running "
    "longer is killed (worker terminated, pool respawned) and retried or "
    "quarantined.  Enforced for jobs > 1 only.",
)
MAX_RETRIES_ENV = _register(
    "REPRO_MAX_RETRIES",
    "int >= 0",
    "0",
    "Retries granted to a failed/timed-out/crashed trial before it is "
    "quarantined (max attempts = retries + 1), with exponential backoff "
    "and deterministic key-derived jitter between attempts.",
)
FAULTS_ENV = _register(
    "REPRO_FAULTS",
    "fault plan",
    "(unset: no faults)",
    "Deterministic fault-injection plan for chaos testing, e.g. "
    "'worker_crash:p=0.3:seed=7,store_corrupt' — see "
    "repro.resilience.faults.  Never set in production.",
)
STORE_MAX_BYTES_ENV = _register(
    "REPRO_STORE_MAX_BYTES",
    "int >= 0",
    "0 (unlimited)",
    "Size budget of the artifact store; journaled sweeps and "
    "'repro-run store-gc' evict least-recently-used artifacts (by mtime) "
    "until the store fits.  0 disables eviction.",
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


def env_int(name: str, default: int) -> int:
    """Integer value of ``name`` (``default`` when unset; typed error otherwise)."""
    value = env_raw(name)
    if value is None:
        return int(default)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def env_float(name: str, default: float) -> float:
    """Float value of ``name`` (``default`` when unset; typed error otherwise)."""
    value = env_raw(name)
    if value is None:
        return float(default)
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a float, got {value!r}") from None


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


def describe_env() -> List[Dict[str, str]]:
    """Documentation rows (name/type/default/description) for every variable.

    The README's configuration table is generated from this, so registry
    and documentation cannot drift apart.
    """
    return [
        {
            "name": var.name,
            "kind": var.kind,
            "default": var.default,
            "description": var.description,
        }
        for var in ENV_VARS.values()
    ]
