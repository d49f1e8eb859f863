"""Project-wide import/call graph and the worker-reachability engine.

Built from per-file :class:`~repro.analysis.dataflow.ModuleFacts`
summaries, :class:`ProjectGraph` provides what the REP1xx rules consume:

* a **symbol index** — every function in the project addressed as
  ``module:qualname`` (``repro.api.pipeline:Pipeline.run``,
  ``repro.parallel:run_sweep.<locals>.on_result``),
* **conservative name resolution** for call sites: module/symbol imports
  (including function-local lazy imports and package re-exports),
  ``self``/``cls`` method dispatch with base-class walking, locally
  constructed instances (``store = ArtifactStore(...); store.get(...)``),
  and a *method-name fallback* that matches an unresolvable ``x.foo()``
  against every project method named ``foo`` — except names shadowing
  builtin container / ndarray methods, where the fallback would connect
  essentially everything to everything,
* the **forwarding fixpoint**: functions whose parameter is eventually
  passed as the callable of ``parallel_map``/``supervised_map`` are
  *forwarders*, and their call sites are pool submission sites too
  (this is what lets REP101 see through wrappers),
* the **worker-executed set**: BFS over call + reference edges from every
  pool-submitted callable and all of ``repro.minibatch`` (loader code
  runs inside trials), with parent tracking so every finding can print a
  witness path.

Deliberate approximations (documented in CONTRIBUTING.md): module-level
statements are *not* part of the worker set (imports re-execute in
workers, but deterministically and once per process), dynamic dispatch
through data structures is invisible, and the method-name fallback
over-approximates.  Cycles in the import graph are harmless — resolution
is demand-driven with a depth guard, never a topological sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import (
    POOL_BOUNDARY_NAMES,
    CallSite,
    FunctionFacts,
    ModuleFacts,
    Write,
)

__all__ = [
    "ProjectViolation",
    "UnpicklableSubmission",
    "ProjectGraph",
    "ProjectContext",
    "build_project",
]

#: Attribute names whose method-name fallback would be noise: they shadow
#: methods of builtin containers / strings / numpy arrays, so an
#: unresolvable ``x.get(...)`` is far more likely ``dict.get`` than a
#: project method.  Classes whose methods share these names are reached
#: through resolvable receivers (``self.``, instantiation, imports) only.
_BUILTIN_METHOD_NAMES: FrozenSet[str] = frozenset(
    set(dir(dict)) | set(dir(list)) | set(dir(set)) | set(dir(str))
    | set(dir(tuple)) | set(dir(bytes)) | set(dir(float)) | set(dir(int))
    | {
        # ubiquitous numpy.ndarray methods
        "mean", "std", "var", "argmax", "argmin", "reshape", "astype",
        "tolist", "item", "dot", "ravel", "flatten", "transpose", "clip",
        "nonzero", "squeeze", "cumsum", "take", "repeat", "argsort", "fill",
        "all", "any", "round", "trace", "diagonal", "sum", "min", "max",
        "copy", "sort",
    }
)

_MAX_RESOLVE_DEPTH = 12


@dataclass(frozen=True)
class ProjectViolation:
    """What a project-scope rule yields: a finding with its own path."""

    path: str
    line: int
    column: int
    message: str


@dataclass(frozen=True)
class UnpicklableSubmission:
    """An unpicklable callable entering the pool, directly or via wrappers."""

    path: str
    line: int
    column: int
    arg_kind: str  #: "lambda" | "localdef"
    arg_value: str  #: the local name ("" for lambdas)
    forwarder: str  #: dotted name of the call it is passed to
    boundary: str  #: the underlying pool entry point (e.g. "parallel_map")
    direct: bool  #: passed to the pool entry point itself (zero hops)


class ProjectGraph:
    """Symbol index + call graph + worker-reachability over module facts."""

    def __init__(self, modules: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        for mod in modules:
            self.modules[mod.key] = mod
        #: symbol -> (module facts, function facts)
        self.functions: Dict[str, Tuple[ModuleFacts, FunctionFacts]] = {}
        #: simple method name -> symbols of project methods with that name
        self._method_index: Dict[str, Set[str]] = {}
        for key in sorted(self.modules):
            mod = self.modules[key]
            for qualname in sorted(mod.functions):
                fn = mod.functions[qualname]
                symbol = f"{key}:{qualname}"
                self.functions[symbol] = (mod, fn)
                if fn.kind == "method" and not qualname.rsplit(".", 1)[-1].startswith("__"):
                    self._method_index.setdefault(
                        qualname.rsplit(".", 1)[-1], set()
                    ).add(symbol)

        #: module key -> project module keys it imports (the import graph)
        self.module_imports: Dict[str, Set[str]] = {}
        for key in sorted(self.modules):
            deps: Set[str] = set()
            mod = self.modules[key]
            tables = [mod.imports] + [fn.imports for fn in mod.functions.values()]
            for table in tables:
                for target in table.values():
                    owner = self._owning_module(target)
                    if owner is not None and owner != key:
                        deps.add(owner)
            self.module_imports[key] = deps

        # Resolve every call site once; the fixpoint and BFS reuse this.
        self._call_targets: Dict[Tuple[str, int], FrozenSet[str]] = {}
        for symbol in sorted(self.functions):
            mod, fn = self.functions[symbol]
            for index, call in enumerate(fn.calls):
                self._call_targets[(symbol, index)] = frozenset(
                    self.resolve_call(mod, fn, call.dotted)
                )

        #: forwarder symbol -> {(param position, param name)} crossing the pool
        self.forwarders: Dict[str, Set[Tuple[int, str]]] = {}
        self._forwarder_boundary: Dict[str, str] = {}
        self._compute_forwarders()

        self._submissions: List[UnpicklableSubmission] = []
        #: worker roots: symbol -> human-readable reason it is a root
        self.roots: Dict[str, str] = {}
        self._collect_roots()

        self.edges: Dict[str, Set[str]] = {}
        self._build_edges()

        #: the worker-executed set, with BFS parents for witness paths
        self.worker_set: Set[str] = set()
        self._parent: Dict[str, Optional[str]] = {}
        self._reach()

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _owning_module(self, dotted: str) -> Optional[str]:
        """Longest known-module prefix of a dotted import target."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.modules:
                return candidate
        return None

    def _resolve_import(self, target: str, depth: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve an import target to ("module"|"func"|"class", reference)."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        if target in self.modules:
            return ("module", target)
        prefix, _, last = target.rpartition(".")
        if not prefix:
            return None
        mod = self.modules.get(prefix)
        if mod is None:
            base = self._resolve_import(prefix, depth + 1)
            if base is None or base[0] != "module":
                return None
            mod = self.modules[base[1]]
        return self._lookup_in_module(mod, last, depth + 1)

    def _lookup_in_module(
        self, mod: ModuleFacts, name: str, depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        if name in mod.functions:
            return ("func", f"{mod.key}:{name}")
        if name in mod.classes:
            return ("class", f"{mod.key}:{name}")
        if name in mod.imports:
            return self._resolve_import(mod.imports[name], depth + 1)
        submodule = f"{mod.key}.{name}"
        if submodule in self.modules:
            return ("module", submodule)
        return None

    def _resolve_name(
        self, mod: ModuleFacts, fn: FunctionFacts, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a bare name visible inside ``fn``."""
        if name in fn.imports:
            return self._resolve_import(fn.imports[name])
        # sibling / enclosing-scope nested defs: f.<locals>.g
        scope = fn.name
        while scope:
            nested = f"{scope}.<locals>.{name}"
            if nested in mod.functions:
                return ("func", f"{mod.key}:{nested}")
            scope = scope.rpartition(".<locals>.")[0]
        if name in mod.functions:
            return ("func", f"{mod.key}:{name}")
        if name in mod.classes:
            return ("class", f"{mod.key}:{name}")
        if name in mod.imports:
            return self._resolve_import(mod.imports[name])
        return None

    def _resolve_method(
        self, mod: ModuleFacts, class_name: str, method: str, seen: Set[str]
    ) -> Set[str]:
        """Find ``class_name.method`` in ``mod``, walking project bases."""
        marker = f"{mod.key}:{class_name}"
        if marker in seen or class_name not in mod.classes:
            return set()
        seen.add(marker)
        qualified = f"{class_name}.{method}"
        if qualified in mod.functions:
            return {f"{mod.key}:{qualified}"}
        results: Set[str] = set()
        for base in self.modules[mod.key].classes[class_name].get("bases", []):
            resolved = self._resolve_dotted_value(mod, str(base))
            if resolved is not None and resolved[0] == "class":
                base_mod_key, base_name = resolved[1].split(":", 1)
                results |= self._resolve_method(
                    self.modules[base_mod_key], base_name, method, seen
                )
        return results

    def _resolve_dotted_value(
        self, mod: ModuleFacts, dotted: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a dotted expression at module scope (base-class names)."""
        parts = dotted.split(".")
        head = self._lookup_in_module(mod, parts[0])
        for attr in parts[1:]:
            if head is None or head[0] != "module":
                return None
            head = self._lookup_in_module(self.modules[head[1]], attr)
        return head

    def _fallback(self, method: str) -> Set[str]:
        """All project methods named ``method`` (the conservative net)."""
        if method.startswith("__") or method in _BUILTIN_METHOD_NAMES:
            return set()
        return set(self._method_index.get(method, ()))

    def resolve_call(
        self, mod: ModuleFacts, fn: FunctionFacts, dotted: str, _depth: int = 0
    ) -> Set[str]:
        """Symbols a call expression may invoke (empty = external/builtin)."""
        if not dotted or _depth > _MAX_RESOLVE_DEPTH:
            return set()
        parts = dotted.split(".")
        head = parts[0]
        if head in {"self", "cls"} and fn.class_name:
            if len(parts) == 2:
                found = self._resolve_method(mod, fn.class_name, parts[1], set())
                return found or self._fallback(parts[1])
            if len(parts) > 2:
                return self._fallback(parts[-1])
            return set()
        resolved = self._resolve_name(mod, fn, head)
        if (
            resolved is None
            and head in fn.instances
            and fn.instances[head].split(".", 1)[0] != head
        ):
            constructor = self.resolve_call(mod, fn, fn.instances[head], _depth + 1)
            # a constructor resolves to __init__; re-anchor on its class
            for init_symbol in constructor:
                mod_key, qualname = init_symbol.split(":", 1)
                class_name = qualname.rsplit(".", 1)[0]
                if len(parts) == 2:
                    found = self._resolve_method(
                        self.modules[mod_key], class_name, parts[1], set()
                    )
                    if found:
                        return found
        if resolved is None:
            if len(parts) == 1:
                return set()  # builtin, parameter-held callable, or unknown
            return self._fallback(parts[-1])
        kind, target = resolved
        for index, attr in enumerate(parts[1:]):
            if kind == "module":
                step = self._lookup_in_module(self.modules[target], attr)
                if step is None:
                    return set()  # external module or data attribute
                kind, target = step
            elif kind == "class":
                if index == len(parts) - 2:  # last segment: a method call
                    mod_key, class_name = target.split(":", 1)
                    return self._resolve_method(
                        self.modules[mod_key], class_name, attr, set()
                    )
                return set()
            else:  # func.attr — not resolvable
                return set()
        if kind == "func":
            return {target}
        if kind == "class":  # instantiation runs __init__ (possibly inherited)
            mod_key, class_name = target.split(":", 1)
            return self._resolve_method(self.modules[mod_key], class_name, "__init__", set())
        return set()

    # ------------------------------------------------------------------
    # forwarding fixpoint + submission scan
    # ------------------------------------------------------------------
    def _boundary_specs(
        self, symbol: str, call_index: int, call: CallSite
    ) -> List[Tuple[int, str, str, str]]:
        """(position, keyword, forwarder display, boundary) pairs for a call
        whose argument at that position crosses the pool boundary."""
        tail = call.dotted.rsplit(".", 1)[-1]
        if tail in POOL_BOUNDARY_NAMES:
            return [(0, "fn", call.dotted, tail)]
        specs: List[Tuple[int, str, str, str]] = []
        for target in sorted(self._call_targets.get((symbol, call_index), ())):
            for position, param in sorted(self.forwarders.get(target, ())):
                boundary = self._forwarder_boundary.get(target, "parallel_map")
                specs.append((position, param, call.dotted, boundary))
        return specs

    def _compute_forwarders(self) -> None:
        changed = True
        while changed:
            changed = False
            for symbol in sorted(self.functions):
                _, fn = self.functions[symbol]
                for index, call in enumerate(fn.calls):
                    for position, keyword, _, boundary in self._boundary_specs(
                        symbol, index, call
                    ):
                        arg = call.arg_at(position, keyword)
                        if arg is None or arg.kind != "param":
                            continue
                        if arg.value not in fn.params:
                            continue
                        spec = (fn.params.index(arg.value), arg.value)
                        entries = self.forwarders.setdefault(symbol, set())
                        if spec not in entries:
                            entries.add(spec)
                            self._forwarder_boundary.setdefault(symbol, boundary)
                            changed = True

    def _collect_roots(self) -> None:
        # Everything in repro.minibatch executes inside pool trials.
        for key in sorted(self.modules):
            if key == "repro.minibatch" or key.startswith("repro.minibatch."):
                for qualname in sorted(self.modules[key].functions):
                    self.roots.setdefault(
                        f"{key}:{qualname}", "minibatch loader code runs inside pool trials"
                    )
        for symbol in sorted(self.functions):
            mod, fn = self.functions[symbol]
            for index, call in enumerate(fn.calls):
                tail = call.dotted.rsplit(".", 1)[-1]
                direct = tail in POOL_BOUNDARY_NAMES
                for position, keyword, forwarder, boundary in self._boundary_specs(
                    symbol, index, call
                ):
                    arg = call.arg_at(position, keyword)
                    if arg is None or arg.kind == "param":
                        continue
                    if arg.kind in {"name", "attr", "localdef"}:
                        resolved = self.resolve_call(mod, fn, arg.value)
                        if not resolved and arg.kind in {"name", "localdef"}:
                            named = self._resolve_name(mod, fn, arg.value)
                            if named is not None and named[0] == "func":
                                resolved = {named[1]}
                        for root in sorted(resolved):
                            self.roots.setdefault(
                                root,
                                f"submitted to {boundary}() at {mod.path}:{call.line}",
                            )
                    if arg.kind in {"lambda", "localdef"}:
                        self._submissions.append(
                            UnpicklableSubmission(
                                mod.path, arg.line, arg.column,
                                arg.kind, arg.value, forwarder, boundary, direct,
                            )
                        )

    def unpicklable_submissions(self) -> List[UnpicklableSubmission]:
        """REP101's findings, deterministically ordered."""
        return sorted(
            self._submissions, key=lambda s: (s.path, s.line, s.column, s.arg_kind)
        )

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        for symbol in sorted(self.functions):
            mod, fn = self.functions[symbol]
            targets: Set[str] = set()
            for index in range(len(fn.calls)):
                targets |= self._call_targets.get((symbol, index), frozenset())
            for name in fn.refs:
                resolved = self._resolve_name(mod, fn, name)
                if resolved is not None and resolved[0] == "func":
                    targets.add(resolved[1])
            targets.discard(symbol)
            self.edges[symbol] = targets

    def _reach(self) -> None:
        frontier = sorted(self.roots)
        for root in frontier:
            if root in self.functions:
                self._parent[root] = None
                self.worker_set.add(root)
        queue = [root for root in frontier if root in self.worker_set]
        while queue:
            current = queue.pop(0)
            for successor in sorted(self.edges.get(current, ())):
                if successor in self.worker_set or successor not in self.functions:
                    continue
                self.worker_set.add(successor)
                self._parent[successor] = current
                queue.append(successor)

    def witness(self, symbol: str, limit: int = 5) -> str:
        """Human-readable evidence chain: how ``symbol`` reaches a worker."""
        chain: List[str] = []
        cursor: Optional[str] = symbol
        while cursor is not None and len(chain) < 64:
            chain.append(cursor)
            cursor = self._parent.get(cursor)
        chain.reverse()
        root = chain[0]
        reason = self.roots.get(root, "pool root")
        names = [entry.split(":", 1)[1] for entry in chain]
        if len(names) > limit:
            names = names[:2] + ["…"] + names[-(limit - 3):]
        return f"{reason}; path: {' -> '.join(names)}"

    # ------------------------------------------------------------------
    # REP102 support
    # ------------------------------------------------------------------
    def classify_global_write(
        self, mod: ModuleFacts, fn: FunctionFacts, write: Write
    ) -> Optional[str]:
        """Describe a write target if it is module-level project state."""
        base = write.base
        imported = fn.imports.get(base, mod.imports.get(base, ""))
        if imported:
            if write.kind == "attribute":
                resolved = self._resolve_import(imported)
                if resolved is not None and resolved[0] == "module":
                    return f"an attribute of module {resolved[1]!r}"
            return None  # mutation through an imported object: out of scope
        if base in mod.toplevel:
            return f"module-level name {base!r} of {mod.key!r}"
        return None


class ProjectContext:
    """What a :func:`~repro.analysis.linter.project_rule` checker receives."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph

    @property
    def worker_set(self) -> Set[str]:
        return self.graph.worker_set

    def function(self, symbol: str) -> Tuple[ModuleFacts, FunctionFacts]:
        return self.graph.functions[symbol]

    def witness(self, symbol: str) -> str:
        return self.graph.witness(symbol)


def build_project(modules: Sequence[ModuleFacts]) -> ProjectContext:
    """Build the project graph + context from per-file fact summaries."""
    return ProjectContext(ProjectGraph(modules))
