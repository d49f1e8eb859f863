"""AST rule engine behind ``repro-lint``.

The engine is deliberately small: a rule is a function from a
:class:`ModuleContext` (parsed tree + path + derived module name) to
:class:`RuleViolation` instances, registered on the same generic
:class:`~repro.api.registry.Registry` protocol the model/dataset/callback
registries use.  The engine owns everything rule authors should not have
to re-implement:

* file discovery and parsing,
* module-name derivation (``src/repro/core/x.py`` → ``repro.core.x``),
  so rules can scope themselves to library packages,
* ``# repro: noqa[REPxxx]`` suppression handling, including the policy
  checks (a suppression must name its codes, carry a justification, and
  actually suppress something — REP000 otherwise),
* severity ordering, report assembly and JSON serialisation.

Rules come in two scopes.  *File-scope* rules (REP001–REP008, in
:mod:`repro.analysis.rules`) see one :class:`ModuleContext` at a time.
*Project-scope* rules (the REP1xx family, in
:mod:`repro.analysis.dataflow`) run once per lint invocation against a
:class:`~repro.analysis.graph.ProjectGraph` built from every analysed
file, which lets them reason about reachability across modules.
:func:`lint_paths` runs both passes serially in one process.  Importing
this module's rule catalogue (via :func:`_resolve_select`) registers both
families.  See CONTRIBUTING.md for how to add a rule of either scope.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.api.registry import Registry
from repro.errors import LintConfigError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.analysis.dataflow import ModuleFacts

__all__ = [
    "Diagnostic",
    "RuleViolation",
    "ModuleContext",
    "LintReport",
    "RULES",
    "rule",
    "project_rule",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Meta-diagnostic code for suppression-policy violations.
NOQA_POLICY_CODE = "REP000"
#: Diagnostic code reported for files that fail to parse.
PARSE_ERROR_CODE = "REP900"

_SEVERITY_RANK = {"error": 0, "warning": 1}

#: Matches ``repro: noqa[<codes>] <justification>`` trailing comments.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]\s*(.*)$")
_CODE_RE = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True)
class Diagnostic:
    """One finding, addressable as ``path:line:column``."""

    path: str
    line: int
    column: int
    code: str
    severity: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} [{self.severity}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class RuleViolation:
    """What a rule yields: a location plus the finding text."""

    line: int
    column: int
    message: str


@dataclass
class _Suppression:
    line: int
    codes: Tuple[str, ...]
    justification: str
    used: Set[str] = field(default_factory=set)


class ModuleContext:
    """Everything a rule needs to know about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module, module: str) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: Dotted module name (``repro.core.losses``) or ``""`` for scripts
        #: outside a package root (benchmarks, examples).
        self.module = module
        self.lines = source.splitlines()

    @property
    def in_library(self) -> bool:
        """Whether the file is library code (the ``repro`` package)."""
        return self.module == "repro" or self.module.startswith("repro.")

    def module_is(self, *prefixes: str) -> bool:
        """Whether the module falls under any of the dotted ``prefixes``."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


#: The rule registry — the same protocol as the model/dataset registries,
#: so ``RULES.describe()`` / metadata queries work unchanged.
RULES: Registry = Registry("lint rule")

Checker = Callable[[ModuleContext], Iterable[RuleViolation]]


def _register_rule(code: str, summary: str, severity: str, scope: str) -> Callable[[Checker], Checker]:
    if not _CODE_RE.match(code):
        raise LintConfigError(f"rule codes look like REP123, got {code!r}")
    if severity not in _SEVERITY_RANK:
        raise LintConfigError(f"severity must be one of {sorted(_SEVERITY_RANK)}, got {severity!r}")

    def decorator(checker: Checker) -> Checker:
        RULES.add(code, checker, summary=summary, severity=severity, scope=scope)
        return checker

    return decorator


def rule(code: str, *, summary: str, severity: str = "error") -> Callable[[Checker], Checker]:
    """Register a file-scope checker under a ``REPxxx`` code.

    >>> @rule("REP042", summary="no frobnication", severity="warning")
    ... def check_frob(ctx: ModuleContext):
    ...     yield RuleViolation(1, 0, "frobnicated")
    """
    return _register_rule(code, summary, severity, scope="file")


def project_rule(code: str, *, summary: str, severity: str = "error") -> Callable[[Checker], Checker]:
    """Register a project-scope (inter-procedural) checker.

    The checker receives a :class:`~repro.analysis.graph.ProjectContext`
    (not a :class:`ModuleContext`) and yields
    :class:`~repro.analysis.graph.ProjectViolation` instances carrying
    their own file path.  Project rules run once per lint invocation, after
    every file has been summarised — see CONTRIBUTING.md.
    """
    return _register_rule(code, summary, severity, scope="project")


def rule_scope(code: str) -> str:
    """The registered scope of a rule: ``"file"`` or ``"project"``."""
    return str(RULES.entry(code).metadata.get("scope", "file"))


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path.

    The segment after the last ``src`` directory is treated as the package
    root (``src/repro/nn/tensor.py`` → ``repro.nn.tensor``); files outside
    a ``src`` tree (benchmark and example scripts) map to ``""`` so
    library-scoped rules skip them.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if "src" not in parts:
        return ""
    rel = parts[len(parts) - 1 - parts[::-1].index("src"):][1:]
    if not rel:
        return ""
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][: -len(".py")]
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def _parse_suppressions(lines: Sequence[str], path: str) -> Tuple[Dict[int, _Suppression], List[Diagnostic]]:
    """Collect per-line noqa suppressions and their policy violations."""
    suppressions: Dict[int, _Suppression] = {}
    policy: List[Diagnostic] = []
    for lineno, text in enumerate(lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        raw_codes = [code.strip() for code in match.group(1).split(",") if code.strip()]
        justification = match.group(2).strip().lstrip("—-# ").strip()
        if not raw_codes or any(not _CODE_RE.match(code) for code in raw_codes):
            # Not a (valid) suppression — docstrings describing the syntax
            # land here, and a typo'd noqa fails open: the violation it
            # meant to silence is still reported, so nothing hides.
            continue
        if not justification:
            policy.append(
                Diagnostic(
                    path, lineno, 0, NOQA_POLICY_CODE, "error",
                    f"noqa[{','.join(raw_codes)}] must carry a justification "
                    "comment explaining why the waiver is sound",
                )
            )
        suppressions[lineno] = _Suppression(lineno, tuple(raw_codes), justification)
    return suppressions, policy


def _resolve_select(select: Optional[Sequence[str]]) -> List[str]:
    import repro.analysis.rules  # noqa: F401 — registers the REP0xx file rules
    import repro.analysis.dataflow  # noqa: F401 — registers the REP1xx project rules

    if select is None:
        return RULES.names()
    select = list(select)
    if not select:
        raise LintConfigError(
            "empty rule selection: --select needs at least one rule code "
            "(e.g. --select REP001,REP102); run --list-rules for the catalogue"
        )
    malformed = [code for code in select if not _CODE_RE.match(code)]
    if malformed:
        raise LintConfigError(
            f"malformed rule code(s): {', '.join(repr(c) for c in malformed)}; "
            f"rule codes look like REP123 (run --list-rules for the catalogue)"
        )
    unknown = [code for code in select if code not in RULES]
    if unknown:
        raise LintConfigError(
            f"unknown lint rule(s): {', '.join(unknown)}; available: {', '.join(RULES.names())}"
        )
    return select


@dataclass
class FileAnalysis:
    """What one parse of a file contributes to a lint run."""

    path: str
    #: Selected file-scope findings that no waiver suppressed, plus the
    #: non-suppressable policy diagnostics (REP000 justification, REP900).
    diagnostics: List[Diagnostic]
    #: The waiver table; the project pass marks usage on it too.
    suppressions: Dict[int, _Suppression]
    #: The inter-procedural summary the project graph is built from.
    facts: Optional[ModuleFacts]


def _waived(suppressions: Dict[int, _Suppression], line: int, code: str) -> bool:
    """Whether a waiver on ``line`` names ``code`` (marking it used)."""
    suppression = suppressions.get(line)
    if suppression is None or code not in suppression.codes:
        return False
    suppression.used.add(code)
    return True


def _unparsable(path: str, line: int, column: int, reason: str) -> FileAnalysis:
    diagnostic = Diagnostic(
        path, line, column, PARSE_ERROR_CODE, "error", f"file does not parse: {reason}"
    )
    return FileAnalysis(path, [diagnostic], {}, None)


def analyze_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    codes: Optional[Iterable[str]] = None,
    extract_facts: bool = True,
) -> FileAnalysis:
    """Run the file-scope rules in ``codes`` (default: all) over one source
    text, apply its waivers, and extract its facts for the project pass."""
    all_codes = _resolve_select(None)  # ensures the rule catalogue is registered
    wanted = set(all_codes if codes is None else codes)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return _unparsable(path, exc.lineno or 1, exc.offset or 0, exc.msg)
    except ValueError as exc:  # older interpreters report a null byte this way
        return _unparsable(path, 1, 0, str(exc))
    ctx = ModuleContext(path, source, tree, module_name_for(path) if module is None else module)
    suppressions, diagnostics = _parse_suppressions(ctx.lines, path)
    for code in all_codes:
        entry = RULES.entry(code)
        if code not in wanted or entry.metadata.get("scope", "file") != "file":
            continue
        severity = str(entry.metadata["severity"])
        for violation in entry.factory(ctx):
            if not _waived(suppressions, violation.line, code):
                diagnostics.append(
                    Diagnostic(
                        path, violation.line, violation.column, code, severity,
                        violation.message,
                    )
                )

    facts: Optional[ModuleFacts] = None
    if extract_facts:
        from repro.analysis.dataflow import extract_module_facts

        facts = extract_module_facts(ctx)
    return FileAnalysis(path, diagnostics, suppressions, facts)


def analyze_file(
    path: str, codes: Optional[Iterable[str]] = None, extract_facts: bool = True
) -> FileAnalysis:
    """:func:`analyze_source` over a UTF-8 file; a file that does not decode
    is reported like one that does not parse (REP900)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        return _unparsable(
            path, data.count(b"\n", 0, exc.start) + 1, exc.start - line_start,
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8 ({exc.reason})",
        )
    return analyze_source(source, path=path, codes=codes, extract_facts=extract_facts)


def unused_suppression_diagnostics(analysis: FileAnalysis) -> List[Diagnostic]:
    """REP000 warnings for waivers that suppressed nothing.

    Only meaningful when every rule ran (otherwise "unused" is an artifact
    of the ``--select`` filter) and after *both* the file-scope and the
    project-scope passes have had their chance to mark usage.
    """
    diagnostics = []
    for suppression in analysis.suppressions.values():
        unused = [code for code in suppression.codes if code not in suppression.used]
        if unused:
            diagnostics.append(
                Diagnostic(
                    analysis.path, suppression.line, 0, NOQA_POLICY_CODE, "warning",
                    f"noqa[{','.join(unused)}] suppresses nothing on this line; drop it",
                )
            )
    return diagnostics


def _sort_key(diagnostic: Diagnostic) -> Tuple[str, int, int, str]:
    return (diagnostic.path, diagnostic.line, diagnostic.column, diagnostic.code)


def _file_scope_diagnostics(
    analysis: FileAnalysis, select: Optional[Sequence[str]]
) -> List[Diagnostic]:
    diagnostics = list(analysis.diagnostics)
    if select is None:
        diagnostics.extend(unused_suppression_diagnostics(analysis))
    return sorted(diagnostics, key=_sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint source text directly (the entry point the self-tests use).

    This is the *file-scope* view: the REP1xx project rules need the whole
    tree and only run through :func:`lint_paths`.
    """
    codes = _resolve_select(select)
    analysis = analyze_source(source, path=path, module=module, codes=codes, extract_facts=False)
    return _file_scope_diagnostics(analysis, select)


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Diagnostic]:
    """Lint one file (the file-scope view, like :func:`lint_source`)."""
    codes = _resolve_select(select)
    return _file_scope_diagnostics(analyze_file(path, codes, extract_facts=False), select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for target in paths:
        if os.path.isfile(target):
            yield target
            continue
        if not os.path.isdir(target):
            raise LintConfigError(f"no such file or directory: {target!r}")
        for root, dirs, files in os.walk(target):
            dirs[:] = sorted(d for d in dirs if not d.startswith(".") and d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


@dataclass
class LintReport:
    """The result of a lint run over a set of paths."""

    diagnostics: List[Diagnostic]
    files_checked: int

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    @property
    def exit_code(self) -> int:
        """0 when no error-severity diagnostics remain, 1 otherwise."""
        return 1 if self.error_count else 0

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "summary": self.summary(),
            "rules": RULES.describe(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _project_diagnostics(
    codes: Sequence[str], analyses: Dict[str, FileAnalysis]
) -> List[Diagnostic]:
    """Build the project graph and run the selected REP1xx rules."""
    project_codes = [code for code in codes if rule_scope(code) == "project"]
    if not project_codes:
        return []
    from repro.analysis.graph import build_project

    project = build_project(
        sorted(
            (analysis.facts for analysis in analyses.values() if analysis.facts is not None),
            key=lambda mod: mod.path,
        )
    )
    diagnostics: List[Diagnostic] = []
    for code in project_codes:
        entry = RULES.entry(code)
        severity = str(entry.metadata["severity"])
        for violation in entry.factory(project):
            analysis = analyses.get(violation.path)
            if analysis is not None and _waived(analysis.suppressions, violation.line, code):
                continue
            diagnostics.append(
                Diagnostic(
                    violation.path, violation.line, violation.column,
                    code, severity, violation.message,
                )
            )
    return diagnostics


def lint_paths(paths: Sequence[str], select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every Python file under ``paths`` and return the full report.

    Two serial passes: every file is parsed once, running the selected
    file-scope rules and extracting its facts; then — when selected (they
    are by default) — the inter-procedural REP1xx rules run over the
    project graph built from all those facts, honouring per-line waivers
    exactly like file-scope rules.  Unused waivers are reported only after
    both passes had their chance to mark usage.
    """
    codes = _resolve_select(select)
    analyses = {path: analyze_file(path, codes) for path in iter_python_files(paths)}
    diagnostics = [d for analysis in analyses.values() for d in analysis.diagnostics]
    diagnostics.extend(_project_diagnostics(codes, analyses))
    if select is None:
        for analysis in analyses.values():
            diagnostics.extend(unused_suppression_diagnostics(analysis))
    diagnostics.sort(key=_sort_key)
    return LintReport(diagnostics=diagnostics, files_checked=len(analyses))
