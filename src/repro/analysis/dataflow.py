"""Per-file fact extraction and the inter-procedural REP1xx rule family.

The file-scope rules (REP001–REP008) can only see one module at a time,
so the bugs that actually threaten the bitwise any-``--jobs`` guarantee —
a helper three calls deep that draws from the global RNG, a wrapper that
smuggles a lambda into the process pool, module state mutated from inside
a worker — are invisible to them.  This module extracts, per file, the
facts a whole-program analysis needs (:class:`ModuleFacts`), and
implements the project-scope rules that consume the
:class:`~repro.analysis.graph.ProjectGraph` built from those facts:

========  ============================================================
REP101    picklability of pool submissions: no lambda or closure
          handed to ``parallel_map``/``supervised_map``, directly (the
          zero-hop case) or through any chain of wrapper functions
REP102    static race detector: no module-level state written by
          worker-reachable code — pool workers and, later, async
          request handlers would race on it (or silently diverge,
          since pool workers never share writes back)
REP103    RNG provenance: no global-RNG draw, OS-entropy generator or
          constant-seeded generator anywhere in the worker-executed
          set; randomness must flow in through parameters (upgrades
          REP001 from per-file syntax to reachability)
REP104    env-read-after-fanout: no ``repro.env`` accessor call (or raw
          ``os.environ`` read) inside worker-reachable code — config
          must be resolved before dispatch so a sweep cannot observe a
          mid-flight environment change
========  ============================================================

Every violation carries a *witness path* (``root → … → function``)
showing how the flagged code becomes worker-reachable, and is waivable
per line with ``# repro: noqa[REPxxx] <justification>`` like any other
rule.  The analysis is conservative name resolution, not type inference:
attribute calls on unknown receivers fall back to every project method
of that name, so the worker-executed set over-approximates — see
CONTRIBUTING.md for what that means when fixing or waiving a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.analysis.linter import ModuleContext, project_rule

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.analysis.graph import ProjectContext

__all__ = [
    "CallArg",
    "CallSite",
    "FunctionFacts",
    "ModuleFacts",
    "extract_module_facts",
    "check_transitive_picklability",
    "check_worker_state_races",
    "check_rng_provenance",
    "check_env_read_after_fanout",
]

#: entry points whose callable argument crosses the process boundary.
POOL_BOUNDARY_NAMES = ("parallel_map", "supervised_map")

#: np.random attributes that construct explicitly seeded generators.
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
#: np.random attributes that read state without drawing from it.
_RNG_STATE_READS = {"get_state"}

#: repro.env accessor functions (REP104 flags calls in worker-reachable code).
_ENV_ACCESSORS = {"env_raw", "env_str", "env_flag", "env_jobs"}

#: container methods that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append",
    "add",
    "update",
    "clear",
    "pop",
    "popitem",
    "remove",
    "discard",
    "extend",
    "insert",
    "setdefault",
    "move_to_end",
    "appendleft",
    "popleft",
}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.rand``).

    Attribute chains rooted at something that is not a plain name (a call
    result, a subscript) keep their attribute tail behind a ``?`` marker —
    ``Pipeline.from_spec(d).run()`` yields ``?.run`` — so the project graph
    can still do conservative method-name resolution on the tail.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    return ".".join(reversed(parts))


@dataclass
class CallArg:
    """Shape of one argument at a call site (what REP101 needs to see)."""

    kind: str  #: "lambda" | "param" | "localdef" | "name" | "attr" | "other"
    value: str  #: the name / dotted path ("" for lambda/other)
    keyword: str  #: keyword name, "" for positional
    position: int  #: positional index, -1 for keyword
    line: int
    column: int


@dataclass
class CallSite:
    """One call expression inside a function body."""

    dotted: str
    line: int
    column: int
    args: List[CallArg] = field(default_factory=list)

    def arg_at(self, position: int, keyword: str) -> Optional[CallArg]:
        """The argument bound to parameter ``position``/``keyword``, if any."""
        for arg in self.args:
            if arg.position == position or (keyword and arg.keyword == keyword):
                return arg
        return None


@dataclass
class Write:
    """A write whose target is not function-local state."""

    base: str  #: the root name written through (``_CACHE`` of ``_CACHE[k] = v``)
    kind: str  #: "rebind" | "subscript" | "attribute" | "call:<method>"
    line: int
    column: int


@dataclass
class FunctionFacts:
    """Everything the project pass needs to know about one function."""

    name: str  #: module-relative qualname (``Pipeline.run``, ``f.<locals>.g``)
    line: int
    column: int
    kind: str  #: "function" | "method" | "lambda"
    nested: bool  #: defined inside another function (unpicklable closure)
    class_name: str  #: innermost enclosing class ("" outside classes)
    params: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)  #: function-local imports
    instances: Dict[str, str] = field(default_factory=dict)  #: local var -> constructor dotted
    calls: List[CallSite] = field(default_factory=list)
    refs: List[str] = field(default_factory=list)  #: names loaded as values
    writes: List[Write] = field(default_factory=list)
    rng: List[List[Any]] = field(default_factory=list)  #: [kind, dotted, line, col]
    env: List[List[Any]] = field(default_factory=list)  #: [dotted, line, col]


@dataclass
class ModuleFacts:
    """The inter-procedural summary of one file."""

    path: str
    module: str  #: dotted module name, "" for scripts outside a src root
    is_package: bool  #: whether the file is an ``__init__.py``
    imports: Dict[str, str] = field(default_factory=dict)  #: alias -> dotted target
    toplevel: List[str] = field(default_factory=list)  #: module-level bound names
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Identity in the project graph: module name, or path for scripts."""
        return self.module or self.path


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
class _FunctionState:
    """Mutable per-function scratch state while walking its body."""

    def __init__(self, facts: FunctionFacts) -> None:
        self.facts = facts
        self.locals: Set[str] = set(facts.params)
        self.global_decls: Set[str] = set()
        self.nested_defs: Set[str] = set()
        self.raw_writes: List[Write] = []
        self.refs: Set[str] = set()


class _FactsVisitor(ast.NodeVisitor):
    """One pass over a module tree collecting :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._functions: List[_FunctionState] = []
        self._classes: List[str] = []

    # -- scope bookkeeping ---------------------------------------------
    def _qualname(self, name: str) -> str:
        parts: List[str] = []
        for state in self._functions:
            parts.extend([state.facts.name.rsplit(".", 1)[-1]] if not parts else [])
        prefix = ""
        if self._functions:
            prefix = self._functions[-1].facts.name + ".<locals>."
        elif self._classes:
            prefix = ".".join(self._classes) + "."
        return prefix + name

    def _bind(self, name: str) -> None:
        """Record a name binding in the innermost scope."""
        if self._functions:
            state = self._functions[-1]
            if name not in state.global_decls:
                state.locals.add(name)
        elif not self._classes:
            if name not in self.facts.toplevel:
                self.facts.toplevel.append(name)

    def _enter_function(self, node: ast.AST, name: str, kind: str) -> _FunctionState:
        nested = bool(self._functions)
        if self._functions:
            self._functions[-1].nested_defs.add(name)
        facts = FunctionFacts(
            name=self._qualname(name),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            kind=kind,
            nested=nested,
            class_name=self._classes[-1] if self._classes else "",
        )
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (
                list(getattr(args, "posonlyargs", []))
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                facts.params.append(arg.arg)
            if args.vararg is not None:
                facts.params.append(args.vararg.arg)
            if args.kwarg is not None:
                facts.params.append(args.kwarg.arg)
        state = _FunctionState(facts)
        self._functions.append(state)
        return state

    def _exit_function(self, state: _FunctionState) -> None:
        self._functions.pop()
        facts = state.facts
        facts.refs = sorted(state.refs)
        # A write is "global" when its base name is not bound inside the
        # function — or was explicitly declared ``global``.
        for write in state.raw_writes:
            if write.base in state.global_decls or write.base not in state.locals:
                facts.writes.append(write)
        self.facts.functions[facts.name] = facts

    # -- definitions ----------------------------------------------------
    def _visit_function_def(self, node: Any, kind: str) -> None:
        self._bind(node.name)
        for decorator in node.decorator_list:
            self._record_expr(decorator)
        state = self._enter_function(node, node.name, kind)
        for child in node.body:
            self.visit(child)
        self._exit_function(state)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        kind = "method" if self._classes and not self._functions else "function"
        self._visit_function_def(node, kind)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        kind = "method" if self._classes and not self._functions else "function"
        self._visit_function_def(node, kind)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        name = f"<lambda:{node.lineno}:{node.col_offset}>"
        state = self._enter_function(node, name, "lambda")
        self.visit(node.body)
        self._exit_function(state)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._bind(node.name)
        qualified = ".".join(self._classes + [node.name])
        if not self._functions:
            self.facts.classes[qualified] = {
                "methods": [],
                "bases": [_dotted(base) for base in node.bases],
                "line": node.lineno,
            }
        for decorator in node.decorator_list:
            self._record_expr(decorator)
        for base in node.bases:
            self._record_expr(base)
        self._classes.append(node.name)
        for child in node.body:
            self.visit(child)
        self._classes.pop()
        if not self._functions and qualified in self.facts.classes:
            entry = self.facts.classes[qualified]
            entry["methods"] = sorted(
                fn.rsplit(".", 1)[-1]
                for fn in self.facts.functions
                if fn.rpartition(".")[0] == qualified
            )

    # -- imports --------------------------------------------------------
    def _import_target(self) -> Dict[str, str]:
        return (
            self._functions[-1].facts.imports if self._functions else self.facts.imports
        )

    def visit_Import(self, node: ast.Import) -> None:
        table = self._import_target()
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            table[local] = alias.name if alias.asname else alias.name.split(".")[0]
            self._bind(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            package = self.facts.module
            if package and not self.facts.is_package:
                package = package.rpartition(".")[0]
            for _ in range(node.level - 1):
                package = package.rpartition(".")[0]
            base = f"{package}.{base}" if base else package
        table = self._import_target()
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            table[local] = f"{base}.{alias.name}" if base else alias.name
            self._bind(local)

    # -- bindings and writes -------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        if self._functions:
            self._functions[-1].global_decls.update(node.names)

    def _record_target(self, target: ast.AST, kind_hint: str = "") -> None:
        if isinstance(target, ast.Name):
            if self._functions:
                state = self._functions[-1]
                if target.id in state.global_decls:
                    state.raw_writes.append(
                        Write(target.id, "rebind", target.lineno, target.col_offset)
                    )
                else:
                    state.locals.add(target.id)
            else:
                self._bind(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, kind_hint)
        elif isinstance(target, ast.Starred):
            self._record_target(target.value, kind_hint)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            kind = "subscript" if isinstance(target, ast.Subscript) else "attribute"
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and self._functions:
                self._functions[-1].raw_writes.append(
                    Write(base.id, kind, target.lineno, target.col_offset)
                )
            self._record_expr(target.value)
            if isinstance(target, ast.Subscript):
                self._record_expr(target.slice)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_expr(node.value)
        # Track ``x = SomeCallable(...)`` so the project graph can resolve
        # later ``x.method(...)`` calls when SomeCallable is a project class.
        if (
            self._functions
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            constructor = _dotted(node.value.func)
            if constructor and not constructor.startswith("?"):
                self._functions[-1].facts.instances[node.targets[0].id] = constructor
        for target in node.targets:
            self._record_target(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_expr(node.value)
        if isinstance(node.target, ast.Name) and self._functions:
            state = self._functions[-1]
            if node.target.id in state.global_decls or node.target.id not in state.locals:
                state.raw_writes.append(
                    Write(node.target.id, "rebind", node.target.lineno, node.target.col_offset)
                )
            return
        self._record_target(node.target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_expr(node.value)
        self._record_target(node.target)

    def visit_For(self, node: ast.For) -> None:
        self._record_expr(node.iter)
        self._record_target(node.target)
        for child in node.body + node.orelse:
            self.visit(child)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit_For(node)  # type: ignore[arg-type]

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._record_expr(item.context_expr)
            if item.optional_vars is not None:
                self._record_target(item.optional_vars)
        for child in node.body:
            self.visit(child)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self.visit_With(node)  # type: ignore[arg-type]

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._bind(node.name)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._record_expr(node.value)
        self._record_target(node.target)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_target(node.target)
        self._record_expr(node.iter)
        for condition in node.ifs:
            self._record_expr(condition)

    # -- expressions ----------------------------------------------------
    def _classify_arg(
        self, node: ast.AST, keyword: str, position: int
    ) -> CallArg:
        line = getattr(node, "lineno", 0)
        column = getattr(node, "col_offset", 0)
        if isinstance(node, ast.Lambda):
            return CallArg("lambda", "", keyword, position, line, column)
        if isinstance(node, ast.Name):
            if self._functions:
                state = self._functions[-1]
                if node.id in state.facts.params:
                    return CallArg("param", node.id, keyword, position, line, column)
                if any(node.id in s.nested_defs for s in self._functions):
                    return CallArg("localdef", node.id, keyword, position, line, column)
            return CallArg("name", node.id, keyword, position, line, column)
        if isinstance(node, ast.Attribute):
            return CallArg("attr", _dotted(node), keyword, position, line, column)
        return CallArg("other", "", keyword, position, line, column)

    def _classify_rng(self, node: ast.Call, dotted: str) -> Optional[Tuple[str, str]]:
        argless = not node.args and not node.keywords
        constant = bool(node.args) and all(
            isinstance(a, ast.Constant) for a in node.args
        ) and not node.keywords
        if dotted.startswith(("np.random.", "numpy.random.")):
            attr = dotted.rsplit(".", 1)[1]
            if attr in _RNG_STATE_READS:
                return None
            if attr not in _RNG_CONSTRUCTORS:
                return ("global_draw", dotted)
            if attr in {"default_rng", "SeedSequence"}:
                if argless:
                    return ("argless", dotted)
                if constant:
                    return ("constant_seed", dotted)
            return None
        if dotted in {"default_rng", "SeedSequence"}:
            if argless:
                return ("argless", dotted)
            if constant:
                return ("constant_seed", dotted)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if self._functions:
            state = self._functions[-1]
            args: List[CallArg] = []
            for position, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    continue
                args.append(self._classify_arg(arg, "", position))
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                args.append(self._classify_arg(kw.value, kw.arg, -1))
            state.facts.calls.append(
                CallSite(dotted, node.lineno, node.col_offset, args)
            )
            rng = self._classify_rng(node, dotted)
            if rng is not None:
                state.facts.rng.append([rng[0], rng[1], node.lineno, node.col_offset])
            tail = dotted.rsplit(".", 1)[-1]
            if tail in _ENV_ACCESSORS or dotted in {"os.environ.get", "environ.get", "os.getenv"}:
                state.facts.env.append([dotted, node.lineno, node.col_offset])
            if tail in _MUTATOR_METHODS and "." in dotted:
                base = dotted.split(".", 1)[0]
                if base not in {"self", "cls", "?"}:
                    state.raw_writes.append(
                        Write(base, f"call:{tail}", node.lineno, node.col_offset)
                    )
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``os.environ[...]`` loads count as environment reads too.
        if isinstance(node.ctx, ast.Load) and self._functions:
            if _dotted(node.value) in {"os.environ", "environ"}:
                self._functions[-1].facts.env.append(
                    ["os.environ[]", node.lineno, node.col_offset]
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and self._functions:
            self._functions[-1].refs.add(node.id)

    def _record_expr(self, node: ast.AST) -> None:
        self.visit(node)


def extract_module_facts(ctx: ModuleContext) -> ModuleFacts:
    """Extract the inter-procedural summary of one parsed file."""
    facts = ModuleFacts(
        path=ctx.path,
        module=ctx.module,
        is_package=ctx.path.endswith("__init__.py"),
    )
    visitor = _FactsVisitor(facts)
    for node in ctx.tree.body:
        visitor.visit(node)
    return facts


# ----------------------------------------------------------------------
# the REP1xx project rules
# ----------------------------------------------------------------------
def _witness(project: "ProjectContext", symbol: str) -> str:
    return project.witness(symbol)


@project_rule(
    "REP101",
    summary="no lambda or closure submitted to the process pool, directly or "
    "through wrapper calls (transitive picklability)",
)
def check_transitive_picklability(project: "ProjectContext") -> Iterator[Any]:
    """``ProcessPoolExecutor`` pickles the submitted callable, so lambdas and
    functions defined inside other functions fail at submit time — but only
    when ``jobs > 1``, which is how the bug escapes serial test runs.  The
    rule flags them at a ``parallel_map(...)`` site itself and follows
    *forwarding parameters* — any function whose parameter is eventually
    passed as the pool work unit — to flag them entering those wrappers
    anywhere in the project."""
    from repro.analysis.graph import ProjectViolation

    for submission in project.graph.unpicklable_submissions():
        what = "lambda" if submission.arg_kind == "lambda" else f"{submission.arg_value!r}"
        detail = (
            "is defined inside an enclosing function"
            if submission.arg_kind == "localdef"
            else "cannot be pickled"
        )
        if submission.direct:
            message = (
                f"{what} {detail} and is passed straight to "
                f"{submission.forwarder}(), whose work units must pickle into "
                f"pool workers — move it to module level"
            )
        else:
            message = (
                f"{what} passed to {submission.forwarder!r} {detail}; the "
                f"argument is forwarded to {submission.boundary}() and must "
                f"pickle into pool workers — move it to module level"
            )
        yield ProjectViolation(
            submission.path, submission.line, submission.column, message
        )


@project_rule(
    "REP102",
    summary="no module-level state written by worker-reachable code "
    "(static race detector for the pool and the future async server)",
)
def check_worker_state_races(project: "ProjectContext") -> Iterator[Any]:
    """Module-level writes inside the worker-executed set are how
    determinism silently dies: pool workers each mutate their own copy
    (results diverge from the serial run), and the planned async serving
    layer would turn the same write into a data race.  State must live in
    objects passed through parameters — or carry a justified waiver
    explaining why per-process mutation is sound (e.g. a per-worker
    cache that never leaks across trials)."""
    from repro.analysis.graph import ProjectViolation

    for symbol in sorted(project.worker_set):
        mod, fn = project.function(symbol)
        seen: Set[str] = set()
        for write in fn.writes:
            target = project.graph.classify_global_write(mod, fn, write)
            if target is None or write.base in seen:
                continue
            seen.add(write.base)
            yield ProjectViolation(
                mod.path,
                write.line,
                write.column,
                f"{target} is mutated by worker-reachable "
                f"{fn.name!r} ({project.witness(symbol)}); module state "
                f"written inside pool workers breaks the bitwise any-jobs "
                f"guarantee — thread the state through parameters",
            )


@project_rule(
    "REP103",
    summary="no global-RNG draw or unseeded/constant-seeded generator in "
    "worker-reachable code (RNG provenance; upgrades REP001)",
)
def check_rng_provenance(project: "ProjectContext") -> Iterator[Any]:
    """Worker-executed code must receive its randomness as a seeded
    ``np.random.Generator`` parameter.  A global-stream draw three calls
    below the submitted function breaks bitwise determinism exactly like
    one at the submission site — and a *constant*-seeded generator is as
    bad in the other direction: every trial in the sweep would share one
    stream."""
    from repro.analysis.graph import ProjectViolation

    messages = {
        "global_draw": "draws from the process-global RNG stream",
        "argless": "seeds a generator from OS entropy",
        "constant_seed": "seeds a generator with a hard-coded constant",
    }
    for symbol in sorted(project.worker_set):
        mod, fn = project.function(symbol)
        for kind, dotted, line, column in (tuple(r) for r in fn.rng):
            yield ProjectViolation(
                mod.path,
                int(line),
                int(column),
                f"{dotted}() {messages[str(kind)]} inside worker-reachable "
                f"{fn.name!r} ({project.witness(symbol)}); pass a seeded "
                f"np.random.Generator in through the parameters instead",
            )


@project_rule(
    "REP104",
    summary="no environment read (repro.env accessor or os.environ) inside "
    "worker-reachable code — resolve configuration before dispatch",
)
def check_env_read_after_fanout(project: "ProjectContext") -> Iterator[Any]:
    """Configuration read inside a pool worker is resolved *after* fan-out:
    two workers racing a mid-sweep environment change can observe
    different values, and the future async server would re-read config on
    every request.  Resolve env-derived settings in the parent and pass
    them down — or waive the read with a justification for why per-worker
    resolution is the design (workers inherit the parent environment)."""
    from repro.analysis.graph import ProjectViolation

    for symbol in sorted(project.worker_set):
        mod, fn = project.function(symbol)
        if mod.module == "repro.env":
            continue
        for dotted, line, column in (tuple(e) for e in fn.env):
            yield ProjectViolation(
                mod.path,
                int(line),
                int(column),
                f"{dotted}(...) reads the environment inside worker-reachable "
                f"{fn.name!r} ({project.witness(symbol)}); resolve the value "
                f"before dispatch and pass it through parameters",
            )
