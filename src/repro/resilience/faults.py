"""Deterministic fault injection for chaos testing the execution substrate.

Production failure modes — a worker segfault, a hung trial, a truncated
artifact — are rare and non-reproducible, which makes the recovery code the
least-tested code in the system.  This module turns those failures into a
*deterministic, replayable plan*: the ``REPRO_FAULTS`` environment variable
names which faults fire where, and every injection decision is a pure
function of ``(fault kind, rule seed, site, key)``, so the same plan
produces the same crashes on every run, in any process, for any pool
width.  That determinism is what lets the chaos suite assert the headline
invariant: *a sweep with injected faults and retries returns results
bitwise identical to a fault-free serial run*.

Plan syntax (comma-separated rules, colon-separated fields)::

    REPRO_FAULTS=worker_crash:p=0.3:seed=7,store_corrupt
    REPRO_FAULTS=trial_hang:p=1:match=seed3:seconds=60
    REPRO_FAULTS=trial_error:p=0.5:seed=1,worker_crash:p=0.2

Fault kinds and the instrumented choke points they fire at:

=============  ======================  ====================================
kind           site                    effect
=============  ======================  ====================================
worker_crash   ``trial``               ``os._exit`` in a pool worker (the
                                       parent sees ``BrokenProcessPool``);
                                       degraded to a typed
                                       :class:`InjectedFaultError` when
                                       executing in-process.
trial_hang     ``trial``               sleeps ``seconds`` (default 30) —
                                       with a ``RetryPolicy.timeout`` the
                                       supervisor reaps it as a timeout;
                                       degraded to an error in-process so
                                       a serial run can never deadlock.
trial_error    ``trial``               raises :class:`InjectedFaultError`.
store_corrupt  ``store_write``         truncates the just-written artifact
                                       file, simulating a torn write.
=============  ======================  ====================================

Rule fields: ``p`` (fire probability, default 1.0), ``seed`` (decision
stream seed, default 0), ``match`` (substring the site key must contain —
targets one trial/artifact), ``seconds`` (hang duration).  Trial-site keys
look like ``<trial key>#a<attempt>``: the attempt index is part of the
decision input, so a fault that fires on attempt 0 re-rolls on attempt 1
and retries can make progress.

The plan is read from the environment at every choke point (workers
inherit it from the sweep parent); with ``REPRO_FAULTS`` unset every hook
is a cheap no-op.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import env as repro_env
from repro.errors import FaultPlanError, InjectedFaultError

__all__ = [
    "FaultRule",
    "FAULT_KINDS",
    "parse_fault_plan",
    "active_plan",
    "fault_decision",
    "inject",
    "corrupt_file",
    "in_worker_process",
]

#: the supported fault kinds, mapped to the site they fire at.
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "trial",
    "trial_hang": "trial",
    "trial_error": "trial",
    "store_corrupt": "store_write",
}

#: exit status used by injected worker crashes (visible in pool post-mortems).
CRASH_EXIT_CODE = 113

#: default sleep of a ``trial_hang`` fault (finite, so an unsupervised run
#: degrades to slowness rather than a deadlock).
DEFAULT_HANG_SECONDS = 30.0


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a ``REPRO_FAULTS`` plan."""

    kind: str
    probability: float = 1.0
    seed: int = 0
    match: str = ""
    seconds: float = DEFAULT_HANG_SECONDS

    @property
    def site(self) -> str:
        return FAULT_KINDS[self.kind]


def parse_fault_plan(text: Optional[str]) -> Tuple[FaultRule, ...]:
    """Parse a plan string into rules; raises :class:`FaultPlanError`."""
    if not text or not text.strip():
        return ()
    rules = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        kind = parts[0].strip()
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {kind!r} in plan {text!r}; "
                f"supported: {', '.join(sorted(FAULT_KINDS))}"
            )
        fields: Dict[str, str] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise FaultPlanError(
                    f"fault rule field {part!r} must look like name=value "
                    f"(in plan {text!r})"
                )
            name, _, value = part.partition("=")
            fields[name.strip()] = value.strip()
        unknown = set(fields) - {"p", "seed", "match", "seconds"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault rule field(s) {sorted(unknown)} in plan "
                f"{text!r}; supported: p, seed, match, seconds"
            )
        try:
            probability = float(fields.get("p", "1"))
            seed = int(fields.get("seed", "0"))
            seconds = float(fields.get("seconds", str(DEFAULT_HANG_SECONDS)))
        except ValueError as error:
            raise FaultPlanError(
                f"bad numeric field in fault rule {chunk!r}: {error}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise FaultPlanError(
                f"fault probability must be in [0, 1], got {probability} "
                f"in rule {chunk!r}"
            )
        rules.append(
            FaultRule(
                kind=kind,
                probability=probability,
                seed=seed,
                match=fields.get("match", ""),
                seconds=seconds,
            )
        )
    return tuple(rules)


# One-entry parse cache: the plan string rarely changes within a process,
# but must be re-read from the environment at every choke point so sweeps
# can reconfigure workers between trials.
_plan_cache: Tuple[Optional[str], Tuple[FaultRule, ...]] = (None, ())


def active_plan() -> Tuple[FaultRule, ...]:
    """The rules of the current ``REPRO_FAULTS`` value (``()`` when unset)."""
    global _plan_cache
    text = repro_env.env_str(repro_env.FAULTS_ENV)  # repro: noqa[REP104] fault plans are injected per worker via inherited REPRO_FAULTS by design
    if text == _plan_cache[0]:
        return _plan_cache[1]
    rules = parse_fault_plan(text)
    _plan_cache = (text, rules)  # repro: noqa[REP102] per-process parse cache keyed by the env text itself
    return rules


def fault_decision(rule: FaultRule, site: str, key: str) -> bool:
    """Whether ``rule`` fires at ``(site, key)`` — pure and deterministic.

    The decision hashes ``(kind, seed, site, key)`` into a uniform value in
    ``[0, 1)`` and compares it to the rule's probability: no RNG state, no
    call-order dependence, identical in every process.
    """
    if rule.site != site:
        return False
    if rule.match and rule.match not in key:
        return False
    digest = hashlib.sha256(
        f"{rule.kind}|{rule.seed}|{site}|{key}".encode("utf-8")
    ).hexdigest()
    return int(digest[:16], 16) / float(1 << 64) < rule.probability


def in_worker_process() -> bool:
    """Whether this process was spawned by a multiprocessing parent."""
    # Imported here: a trial that starts no pool never loads multiprocessing.
    import multiprocessing

    return multiprocessing.parent_process() is not None


def inject(site: str, key: str) -> None:
    """Fire any matching trial-site faults; called at instrumented points.

    ``worker_crash`` hard-kills the process only when it actually is a pool
    worker; executing in-process (``jobs=1``, or the site living in the
    driver) both crash and hang degrade to :class:`InjectedFaultError`, so
    injected chaos can never take down the sweep driver or deadlock a
    serial run.
    """
    for fault_rule in active_plan():
        if not fault_decision(fault_rule, site, key):
            continue
        if fault_rule.kind == "worker_crash":
            if in_worker_process():
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFaultError(fault_rule.kind, site, key)
        if fault_rule.kind == "trial_hang":
            if in_worker_process():
                time.sleep(fault_rule.seconds)
                continue
            raise InjectedFaultError(fault_rule.kind, site, key)
        if fault_rule.kind == "trial_error":
            raise InjectedFaultError(fault_rule.kind, site, key)


def corrupt_file(site: str, key: str, path: str) -> bool:
    """Truncate ``path`` if a ``store_corrupt`` rule fires; returns whether.

    Cuts the file to half its size (at least one byte short), simulating a
    torn write — exactly the corruption the store's checksum verification
    and quarantine machinery must catch on the next read.
    """
    for fault_rule in active_plan():
        if fault_rule.kind != "store_corrupt":
            continue
        if not fault_decision(fault_rule, site, key):
            continue
        size = os.path.getsize(path)
        keep = min(size // 2, size - 1)
        if keep < 0:
            keep = 0
        with open(path, "rb+") as stream:
            stream.truncate(keep)
        return True
    return False
