"""``repro-lint`` — run the project lint rules over source trees.

Usage::

    repro-lint src benchmarks examples
    repro-lint --select REP101,REP102,REP103,REP104 src
    repro-lint --format json src
    repro-lint --report lint-report.json src
    repro-lint --list-rules

Exit status is 0 when no error-severity diagnostics remain, 1 when any
error survives suppression, 2 on usage errors (unknown/malformed/empty
rule selections, missing paths, an unwritable ``--report`` path).
``--report`` writes the full JSON report regardless of the chosen
terminal format — CI uploads it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.errors import LintConfigError

USAGE_EXIT_CODE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Run the repro lint rules (file-scope REP001-REP008 and the "
            "inter-procedural REP101-REP104 family) over source trees."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src benchmarks examples)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all registered rules)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="terminal output format (default: text)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write the full JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _print_rules() -> None:
    from repro.analysis.linter import RULES, _resolve_select, rule_scope

    _resolve_select(None)  # ensure both rule families are registered
    for name in RULES.names():
        entry = RULES.entry(name)
        print(
            f"{name}  [{entry.metadata['severity']}/{rule_scope(name)}]  "
            f"{entry.metadata['summary']}"
        )


def _parse_select(raw: Optional[str]) -> Optional[List[str]]:
    """Split ``--select``; empty/whitespace selections resolve to [] so the
    engine rejects them loudly instead of silently selecting nothing."""
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given (try: repro-lint src)", file=sys.stderr)
        return USAGE_EXIT_CODE

    select = _parse_select(args.select)

    from repro.analysis.linter import lint_paths

    try:
        report = lint_paths(args.paths, select=select)
    except LintConfigError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return USAGE_EXIT_CODE

    if args.report:
        try:
            handle = open(args.report, "w", encoding="utf-8")
        except OSError as exc:
            print(
                f"repro-lint: error: cannot write --report {args.report!r}: {exc.strerror}",
                file=sys.stderr,
            )
            return USAGE_EXIT_CODE
        with handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")

    if args.format == "json":
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic.format())
        counts = ", ".join(f"{code}: {n}" for code, n in report.summary().items())
        tail = f" ({counts})" if counts else ""
        print(
            f"repro-lint: {report.files_checked} files checked, "
            f"{report.error_count} errors, {report.warning_count} warnings{tail}"
        )

    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
