"""Static analysis and runtime sanitizers for the repro code base.

The reproduction rests on contracts no generic tool checks — bitwise
determinism across ``--jobs``, autograd-graph hygiene, CSR-only hot paths,
schema-gated snapshot state.  This package makes regressions against those
contracts mechanically detectable:

* :mod:`repro.analysis.linter` — the AST rule engine:
  ``# repro: noqa[REPxxx]`` suppressions, ``file:line`` diagnostics, the
  registry both rule families live on, and ``lint_paths``, one serial
  run of both passes.  Run it with the ``repro-lint`` console script (or
  ``python -m repro.analysis.cli``).
* :mod:`repro.analysis.rules` — the file-scope rules REP001–REP008;
  importing it populates the rule registry.
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.graph` — per-file
  fact extraction, the project-wide import/call graph with the
  worker-reachability engine, and the inter-procedural rules
  REP101–REP104 (picklability of pool submissions, static races, RNG
  provenance, env-read-after-fanout).
* :mod:`repro.analysis.sanitizers` — opt-in runtime guards
  (``REPRO_SANITIZE=1``): a NaN/Inf guard on every tensor op, a live
  autograd-node leak detector, and an RNG-isolation check for pool
  workers.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.sanitizers import (
    autograd_leak_check,
    install_sanitizers,
    live_graph_nodes,
    rng_isolation_check,
    sanitizers_enabled,
    uninstall_sanitizers,
)

# The linter (an AST engine plus the rule catalogue) is exported lazily:
# the sanitizer hooks are imported by the training loops, and `import
# repro.models` must not pay for — or cycle through — the analysis engine.
_LAZY_EXPORTS = {
    "Diagnostic": ("repro.analysis.linter", "Diagnostic"),
    "LintReport": ("repro.analysis.linter", "LintReport"),
    "ModuleContext": ("repro.analysis.linter", "ModuleContext"),
    "RULES": ("repro.analysis.linter", "RULES"),
    "lint_paths": ("repro.analysis.linter", "lint_paths"),
    "ModuleFacts": ("repro.analysis.dataflow", "ModuleFacts"),
    "ProjectGraph": ("repro.analysis.graph", "ProjectGraph"),
    "ProjectContext": ("repro.analysis.graph", "ProjectContext"),
    "ProjectViolation": ("repro.analysis.graph", "ProjectViolation"),
    "build_project": ("repro.analysis.graph", "build_project"),
}

__all__ = [
    "Diagnostic",
    "LintReport",
    "ModuleContext",
    "RULES",
    "lint_paths",
    "ModuleFacts",
    "ProjectGraph",
    "ProjectContext",
    "ProjectViolation",
    "build_project",
    "autograd_leak_check",
    "install_sanitizers",
    "live_graph_nodes",
    "rng_isolation_check",
    "sanitizers_enabled",
    "uninstall_sanitizers",
]


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value
