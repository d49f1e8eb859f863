"""repro.resilience — fault-tolerant execution for sweeps and serving.

The failure-semantics layer under :mod:`repro.parallel`:

* :mod:`repro.resilience.supervisor` — the supervised process pool:
  per-attempt timeouts, crash detection with pool respawn, retry with
  exponential backoff and deterministic jitter (all set by a
  :class:`RetryPolicy`), quarantine-over-abort with ordered partial
  results and a failure report, interrupt-safe teardown.
* :mod:`repro.resilience.journal` — per-trial completion journaling into
  the artifact store, the mechanism behind ``repro-run --resume``: an
  interrupted sweep skips finished trials and completes bitwise identical
  to an uninterrupted run.
* :mod:`repro.resilience.faults` — deterministic fault injection
  (``REPRO_FAULTS``): worker crashes, hangs, trial errors and torn
  artifact writes, replayable bit-for-bit so chaos tests can assert
  recovery *exactly* reproduces the fault-free results.

The headline invariant, CI-enforced: a sweep under injected faults with
retries enabled returns per-trial results bitwise identical to a
fault-free serial run.
"""

from repro.errors import (
    FaultPlanError,
    InjectedFaultError,
    ResilienceError,
    TrialFailedError,
    TrialTimeoutError,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultRule,
    active_plan,
    fault_decision,
    parse_fault_plan,
)
from repro.resilience.journal import SweepJournal, open_journal, sweep_key
from repro.resilience.supervisor import (
    RetryPolicy,
    SweepOutcome,
    TrialFailure,
    backoff_delay,
    supervised_map,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlanError",
    "FaultRule",
    "InjectedFaultError",
    "ResilienceError",
    "RetryPolicy",
    "SweepJournal",
    "SweepOutcome",
    "TrialFailedError",
    "TrialFailure",
    "TrialTimeoutError",
    "active_plan",
    "backoff_delay",
    "fault_decision",
    "open_journal",
    "parse_fault_plan",
    "supervised_map",
    "sweep_key",
]
