"""The file-scope lint rules (REP001–REP008).

Each rule guards an invariant this reproduction actually depends on —
they are the contracts earlier PRs established, turned into checks:

========  ============================================================
REP001    no unseeded randomness in library code (``--jobs`` bitwise
          determinism; repro.parallel)
REP002    no dense materialization on the CSR hot paths
          (repro.core / repro.nn / repro.minibatch / repro.models,
          whose reconstruction loss reads its target in CSR)
REP003    every ``backward()`` paired with ``release_graph()`` /
          ``no_grad()`` in the same scope (the PR-4 leak class)
REP005    every environment read goes through :mod:`repro.env`
          (one documented accessor; REPRO_* is public surface)
REP006    no bare ``assert`` / ``raise Exception`` in library code
          (typed :mod:`repro.errors` hierarchy only)
REP007    no swallowed exceptions in library code: bare ``except:`` and
          ``except Exception: pass`` hide the failures the resilience
          layer is built to surface (repro.resilience)
REP008    no ``print()`` in library code (CLI modules exempt); library
          output goes through the ``repro`` logger
          (:mod:`repro.observability.log`)
========  ============================================================

REP004 is retired: a lambda or closure handed straight to the pool is
the zero-hop case of REP101 (:mod:`repro.analysis.dataflow`).

Violations carry ``file:line`` positions and are suppressable per line
with ``# repro: noqa[REPxxx] <justification>`` — see CONTRIBUTING.md for
the waiver policy.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.linter import ModuleContext, RuleViolation, rule

__all__ = [
    "check_unseeded_randomness",
    "check_dense_materialization",
    "check_backward_release",
    "check_env_accessor",
    "check_typed_errors",
    "check_exception_swallowing",
    "check_no_print",
]

#: dotted prefixes of the CSR-only packages guarded by REP002.
_SPARSE_HOT_PACKAGES = ("repro.core", "repro.nn", "repro.minibatch", "repro.models")

#: np.random attributes that construct explicitly-seeded generators (fine)
#: rather than drawing from the process-global stream (not fine).
_RNG_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}

#: np.random attributes that *read* generator state without drawing from
#: it (the RNG-isolation sanitizer fingerprints state this way).
_RNG_STATE_READS = {"get_state"}

#: modules whose *job* is writing to stdout/stderr — exempt from REP008.
_CLI_MODULES = ("repro.api.cli", "repro.analysis.cli")


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _violation(node: ast.AST, message: str) -> RuleViolation:
    return RuleViolation(getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)


# ----------------------------------------------------------------------
# REP001 — unseeded randomness
# ----------------------------------------------------------------------
@rule(
    "REP001",
    summary="no unseeded randomness in library code (np.random.* module "
    "calls, argless default_rng())",
)
def check_unseeded_randomness(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """Global-stream draws make results depend on call order across the
    whole process, which breaks the bitwise any-``jobs`` guarantee of
    :mod:`repro.parallel`.  Randomness must flow from generators seeded
    with explicit values."""
    if not ctx.in_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        argless = not node.args and not node.keywords
        if dotted.startswith(("np.random.", "numpy.random.")):
            attr = dotted.rsplit(".", 1)[1]
            if attr in _RNG_STATE_READS:
                continue
            if attr not in _RNG_CONSTRUCTORS:
                yield _violation(
                    node,
                    f"{dotted}() draws from the process-global RNG; use an "
                    f"explicitly seeded np.random.default_rng(seed)",
                )
            elif attr in {"default_rng", "SeedSequence"} and argless:
                yield _violation(
                    node,
                    f"argless {dotted}() seeds from OS entropy; pass an "
                    f"explicit seed so trials stay reproducible",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "default_rng" and argless:
            yield _violation(
                node,
                "argless default_rng() seeds from OS entropy; pass an "
                "explicit seed so trials stay reproducible",
            )


# ----------------------------------------------------------------------
# REP002 — dense materialization on CSR hot paths
# ----------------------------------------------------------------------
@rule(
    "REP002",
    summary="no dense adjacency materialization inside repro.core / "
    "repro.nn / repro.minibatch / repro.models without a justified waiver",
)
def check_dense_materialization(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """The propagation and reconstruction-target hot paths stay O(|E|·d).
    ``to_dense()`` and ``np.asarray(adjacency)`` turn them back into
    O(N²); intentional dense branches (small-graph dispatch, all-pairs
    theory helpers) must carry a justified waiver."""
    if not ctx.module_is(*_SPARSE_HOT_PACKAGES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "to_dense":
            yield _violation(
                node,
                "to_dense() materializes an O(N^2) matrix on a CSR hot "
                "path; keep the sparse form or add a justified waiver",
            )
            continue
        dotted = _dotted(node.func)
        if dotted in {"np.asarray", "numpy.asarray", "np.array", "numpy.array", "np.asfortranarray"}:
            if node.args:
                try:
                    target = ast.unparse(node.args[0])
                except Exception:  # pragma: no cover - unparse is total on parsed trees
                    target = ""
                if "adj" in target.lower():
                    yield _violation(
                        node,
                        f"{dotted}({target}, ...) densifies an adjacency on "
                        f"a CSR hot path; dispatch on the sparse type or "
                        f"add a justified waiver",
                    )


# ----------------------------------------------------------------------
# REP003 — backward() paired with release_graph()/no_grad()
# ----------------------------------------------------------------------
def _scope_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every (async) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _direct_body(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope`` excluding nested function/class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@rule(
    "REP003",
    summary="every backward() call site pairs with release_graph() or "
    "no_grad() in the same scope",
)
def check_backward_release(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """A backward graph is a web of reference cycles; without an explicit
    ``release_graph()`` each step's intermediates survive until the cyclic
    GC runs (the PR-4 leak class, measured at ~4x peak memory)."""
    for scope in _scope_nodes(ctx.tree):
        backward_calls: List[ast.Call] = []
        releases = False
        for node in _direct_body(scope):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    if node.func.attr == "backward":
                        backward_calls.append(node)
                    elif node.func.attr == "release_graph":
                        releases = True
                elif isinstance(node.func, ast.Name) and node.func.id == "release_graph":
                    releases = True
            elif isinstance(node, ast.withitem):
                target = node.context_expr
                if isinstance(target, ast.Call):
                    target = target.func
                if _dotted(target).split(".")[-1] == "no_grad":
                    releases = True
        if not releases:
            for call in backward_calls:
                yield _violation(
                    call,
                    "backward() without release_graph() in the same scope "
                    "leaks the step graph until the cyclic GC runs; release "
                    "the loss root after optimizer.step()",
                )


# ----------------------------------------------------------------------
# REP005 — environment reads through repro.env
# ----------------------------------------------------------------------
@rule(
    "REP005",
    summary="all environment reads (REPRO_*) routed through the repro.env "
    "accessor",
)
def check_env_accessor(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """:mod:`repro.env` is the one place that reads ``os.environ``: it
    validates types and registers every supported ``REPRO_*`` variable, which
    the README table documents.  Reads anywhere else reintroduce
    undocumented configuration surface."""
    if ctx.module_is("repro.env"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in {"os.environ.get", "environ.get", "os.getenv"}:
                yield _violation(
                    node,
                    f"{dotted}(...) bypasses the repro.env accessor; use "
                    f"repro.env.env_str/env_flag/env_jobs (and register the "
                    f"variable) instead",
                )
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _dotted(node.value) in {"os.environ", "environ"}:
                yield _violation(
                    node,
                    "os.environ[...] bypasses the repro.env accessor; use "
                    "repro.env.env_str/env_flag/env_jobs (and register the "
                    "variable) instead",
                )


# ----------------------------------------------------------------------
# REP006 — typed errors only
# ----------------------------------------------------------------------
@rule(
    "REP006",
    summary="no bare assert / raise Exception in library code (typed "
    "repro.errors only)",
)
def check_typed_errors(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """Asserts vanish under ``python -O`` and generic ``Exception`` gives
    callers nothing to catch; library invariants raise the typed
    :mod:`repro.errors` hierarchy instead."""
    if not ctx.in_library:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield _violation(
                node,
                "bare assert in library code vanishes under python -O; "
                "raise a typed repro.errors exception "
                "(e.g. InternalInvariantError) instead",
            )
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id in {"Exception", "BaseException"}:
                yield _violation(
                    node,
                    f"raise {target.id} gives callers nothing to catch; "
                    f"raise a typed repro.errors exception instead",
                )


# ----------------------------------------------------------------------
# REP007 — no swallowed exceptions
# ----------------------------------------------------------------------
def _is_silent_body(body: List[ast.stmt]) -> bool:
    """Whether a handler body does nothing: only ``pass`` / ``...``."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _broad_handler_names(handler: ast.ExceptHandler) -> List[str]:
    """Catch-all exception names a handler matches (Exception/BaseException)."""
    kinds = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return [
        kind.id
        for kind in kinds
        if isinstance(kind, ast.Name) and kind.id in {"Exception", "BaseException"}
    ]


@rule(
    "REP007",
    summary="no swallowed exceptions in library code (bare except:, "
    "except Exception: pass)",
)
def check_exception_swallowing(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """The resilience layer's guarantees rest on failures *propagating*:
    the supervised pool retries what it can see, the store quarantines
    what raises, the failure report records what happened.  A bare
    ``except:`` (which also eats ``KeyboardInterrupt``) or a catch-all
    handler that only ``pass``-es deletes that signal.  Catch-alls that
    actually handle — log, degrade, re-raise, record — are fine."""
    if not ctx.in_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield _violation(
                node,
                "bare except: catches everything including "
                "KeyboardInterrupt; name the exception types (or catch "
                "Exception and handle it)",
            )
            continue
        broad = _broad_handler_names(node)
        if broad and _is_silent_body(node.body):
            yield _violation(
                node,
                f"except {broad[0]}: pass silently swallows every failure; "
                f"handle the error (log, degrade, re-raise) or catch the "
                f"specific types that are safe to ignore",
            )


# ----------------------------------------------------------------------
# REP008 — no print() in library code
# ----------------------------------------------------------------------
@rule(
    "REP008",
    summary="no print() in library code (CLI modules exempt); route output "
    "through the repro logger",
)
def check_no_print(ctx: ModuleContext) -> Iterator[RuleViolation]:
    """``print()`` in library code cannot be silenced, redirected or
    captured by a host application, and pool workers interleave it
    arbitrarily on shared stdout.  Library output goes through
    :func:`repro.observability.log.get_logger`; only the CLI entry points
    (whose contract *is* stdout/stderr) print directly."""
    if not ctx.in_library or ctx.module_is(*_CLI_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield _violation(
                node,
                "print() in library code bypasses the repro logger; use "
                "repro.observability.log.get_logger(...).info(...) so hosts "
                "can configure, silence or redirect the output",
            )
