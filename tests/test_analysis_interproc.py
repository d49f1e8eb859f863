"""Tests for the inter-procedural analysis: graph and REP1xx rules.

Covers the cross-module fixtures under ``tests/lint_fixtures/``, import-
cycle tolerance, the forwarding fixpoint, the hardened ``--select``
handling, and the repo-tree REP1xx clean gate.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.graph import build_project
from repro.analysis.linter import analyze_source, lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REP1XX = ["REP101", "REP102", "REP103", "REP104"]


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def rep1xx_over_fixtures():
    return lint_paths([fixture("src")], select=REP1XX)


def by_code(report, code):
    return [d for d in report.diagnostics if d.code == code]


# ----------------------------------------------------------------------
# the REP1xx rules against the cross-module fixtures
# ----------------------------------------------------------------------
def test_rep101_sees_through_forwarding_wrappers():
    findings = by_code(rep1xx_over_fixtures(), "REP101")
    by_file = {}
    for finding in findings:
        by_file.setdefault(os.path.basename(finding.path), []).append(finding)
    assert set(by_file) == {"fix_rep101.py", "fix_rep101_direct.py"}
    forwarded = sorted(d.message for d in by_file["fix_rep101.py"])
    assert len(forwarded) == 2
    assert any("lambda" in m and "run_distributed" in m for m in forwarded)
    # two levels of forwarding: the closure enters via run_wrapped
    assert any("local_fn" in m and "run_wrapped" in m for m in forwarded)
    # zero hops: lambdas and closures handed straight to the pool
    direct = by_file["fix_rep101_direct.py"]
    assert [(d.line, d.column) for d in direct] == [(11, 27), (16, 26), (17, 28), (18, 28)]
    assert [d.message.split(" ", 1)[0] for d in direct] == ["lambda", "'local_fn'"] * 2
    assert [d.message.split("passed straight to ")[1].split("(")[0] for d in direct] == [
        "parallel_map", "parallel_map", "supervised_map", "supervised_map",
    ]
    # the waived lambdas in suppressed() must not surface
    assert all("suppressed" not in d.message for d in findings)


def test_rep102_flags_worker_reachable_module_state():
    findings = by_code(rep1xx_over_fixtures(), "REP102")
    named = {
        (os.path.basename(d.path), d.line): d.message for d in findings
    }
    assert len(findings) == 3
    joined = "\n".join(named.values())
    assert "_RESULTS" in joined and "_COUNTER" in joined
    # the cross-module attribute write names the victim module
    assert "repro.fix_rep102_state" in joined
    # every finding carries a witness path back to the submission site
    assert all("path:" in m for m in named.values())
    # the waived write in waived() must not surface
    assert "waived" not in joined


def test_rep103_taints_a_three_deep_call_chain():
    findings = by_code(rep1xx_over_fixtures(), "REP103")
    assert len(findings) == 2
    chain = next(d for d in findings if "np.random.rand" in d.message)
    assert "work -> _middle -> _leaf_draw" in chain.message
    constant = next(d for d in findings if "default_rng" in d.message)
    assert "hard-coded constant" in constant.message
    # the waived draw and the Generator-parameter path stay silent
    assert all("waived_draw" not in d.message for d in findings)
    assert all("compliant" not in d.message for d in findings)


def test_rep104_flags_env_reads_inside_workers():
    findings = by_code(rep1xx_over_fixtures(), "REP104")
    assert len(findings) == 1
    assert "env_flag" in findings[0].message
    assert "worker-reachable 'work'" in findings[0].message


def test_project_pass_skipped_when_not_selected():
    report = lint_paths([fixture("src")], select=["REP006"])
    assert set(report.summary()) <= {"REP006"}


# ----------------------------------------------------------------------
# graph construction details
# ----------------------------------------------------------------------
def _facts_for(*names: str):
    facts = []
    for name in names:
        path = fixture("src", "repro", name)
        with open(path, "r", encoding="utf-8") as handle:
            facts.append(analyze_source(handle.read(), path=path).facts)
    return facts


def test_import_cycle_is_tolerated():
    project = build_project(_facts_for("fix_cycle_a.py", "fix_cycle_b.py"))
    # the cycle resolves: helper is reached through a -> b -> (lazy) a
    assert "repro.fix_cycle_a:helper" in project.worker_set
    imports = project.graph.module_imports
    assert "repro.fix_cycle_b" in imports["repro.fix_cycle_a"]
    assert "repro.fix_cycle_a" in imports["repro.fix_cycle_b"]


def test_forwarding_fixpoint_marks_both_wrappers():
    project = build_project(_facts_for("fix_rep101_worker.py", "fix_rep101.py"))
    forwarders = project.graph.forwarders
    assert forwarders.get("repro.fix_rep101_worker:run_distributed") == {(0, "fn")}
    assert forwarders.get("repro.fix_rep101_worker:run_wrapped") == {(0, "fn")}


# ----------------------------------------------------------------------
# hardened --select handling (exit 2, clear messages)
# ----------------------------------------------------------------------
def test_cli_empty_select_is_a_usage_error(capsys):
    assert lint_main([fixture("src"), "--select", ""]) == 2
    assert "empty rule selection" in capsys.readouterr().err
    assert lint_main([fixture("src"), "--select", " , ,"]) == 2
    assert "empty rule selection" in capsys.readouterr().err


def test_cli_malformed_select_is_a_usage_error(capsys):
    assert lint_main([fixture("src"), "--select", "REP1,bogus"]) == 2
    err = capsys.readouterr().err
    assert "malformed rule code" in err and "REP123" in err


def test_cli_unknown_select_lists_the_catalogue(capsys):
    assert lint_main([fixture("src"), "--select", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "REP999" in err and "REP101" in err


def test_cli_select_rep1xx_and_sarif(capsys):
    code = lint_main([fixture("src"), "--select", ",".join(REP1XX)])
    assert code == 1  # the fixtures violate on purpose
    out = capsys.readouterr().out
    assert "REP101" in out
    # an unknown flag such as --sarif is a usage error, never silently ignored
    with pytest.raises(SystemExit) as excinfo:
        lint_main([fixture("src"), "--sarif", "out.sarif"])
    assert excinfo.value.code == 2
    assert "--sarif" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the acceptance gate: the shipped tree passes the inter-procedural pass
# ----------------------------------------------------------------------
def test_repo_tree_is_rep1xx_clean():
    targets = [
        os.path.join(REPO_ROOT, name)
        for name in ("src", "benchmarks", "examples")
        if os.path.exists(os.path.join(REPO_ROOT, name))
    ]
    report = lint_paths(targets, select=REP1XX)
    messages = "\n".join(d.format() for d in report.diagnostics)
    assert report.exit_code == 0, f"inter-procedural findings:\n{messages}"
