"""Self-tests for the ``repro-lint`` rule engine and the REP001–REP008 rules.

Each rule is pinned against a fixture file under ``tests/lint_fixtures/``
containing a violating, a suppressed and a compliant variant of the same
pattern; the fixtures mimic the ``src/repro/...`` layout because several
rules scope themselves by derived module name.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.linter import (
    NOQA_POLICY_CODE,
    PARSE_ERROR_CODE,
    RULES,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.errors import LintConfigError

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def fixture(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


def codes_and_lines(diagnostics):
    return [(d.code, d.line) for d in diagnostics]


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_module_name_derivation():
    assert module_name_for("src/repro/core/losses.py") == "repro.core.losses"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("/abs/tree/src/repro/nn/tensor.py") == "repro.nn.tensor"
    assert module_name_for("benchmarks/bench_sparse.py") == ""


def test_all_rules_registered_with_metadata():
    diagnostics = lint_source("x = 1\n")  # forces rule registration
    assert diagnostics == []
    expected = {
        "REP001", "REP002", "REP003",
        "REP005", "REP006", "REP007", "REP008",
    }
    assert expected.issubset(set(RULES.names()))
    assert "REP004" not in RULES  # direct pool submissions are REP101's
    for code in expected:
        entry = RULES.entry(code)
        assert entry.metadata["summary"]
        assert entry.metadata["severity"] in {"error", "warning"}


def test_syntax_error_reports_parse_diagnostic():
    diagnostics = lint_source("def broken(:\n", path="bad.py")
    assert [d.code for d in diagnostics] == [PARSE_ERROR_CODE]
    assert diagnostics[0].severity == "error"


@pytest.mark.parametrize(
    "content, position",
    [(b"x = 1\ny = '\xff'\n", {"line": 2, "column": 5}), (b"x = 1\x00\n", {"line": 1})],
    ids=["non-utf8-byte", "null-byte"],
)
def test_bad_bytes_are_a_parse_diagnostic(tmp_path, capsys, content, position):
    bad = tmp_path / "bad.py"
    bad.write_bytes(content)
    assert lint_main([str(bad), "--format", "json"]) == 1
    (diagnostic,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostic["code"] == PARSE_ERROR_CODE
    assert diagnostic["message"].startswith("file does not parse")
    assert {key: diagnostic[key] for key in position} == position


def test_unknown_select_code_rejected():
    with pytest.raises(LintConfigError, match="REP999"):
        lint_source("x = 1\n", select=["REP999"])


def test_diagnostic_format_is_path_line_column():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep006.py"))
    assert diagnostics, "fixture should produce diagnostics"
    text = diagnostics[0].format()
    assert text.startswith(f"{diagnostics[0].path}:{diagnostics[0].line}:")
    assert diagnostics[0].code in text


# ----------------------------------------------------------------------
# suppression policy
# ----------------------------------------------------------------------
def test_noqa_without_justification_is_policy_error():
    source = "import numpy as np\nx = np.random.rand(3)  # repro: noqa[REP001]\n"
    diagnostics = lint_source(source, module="repro.something")
    assert [d.code for d in diagnostics] == [NOQA_POLICY_CODE]
    assert diagnostics[0].severity == "error"
    assert "justification" in diagnostics[0].message


def test_unused_noqa_is_policy_warning():
    source = "x = 1  # repro: noqa[REP001] nothing here violates REP001\n"
    diagnostics = lint_source(source, module="repro.something")
    assert [(d.code, d.severity) for d in diagnostics] == [(NOQA_POLICY_CODE, "warning")]


def test_unused_noqa_not_reported_under_select():
    # With --select the "unused" judgement would be an artifact of the filter.
    source = "x = 1  # repro: noqa[REP001] nothing here violates REP001\n"
    assert lint_source(source, module="repro.something", select=["REP002"]) == []


def test_invalid_noqa_codes_fail_open():
    # A typo'd code is not a suppression: the real violation still surfaces.
    source = "import numpy as np\nx = np.random.rand(3)  # repro: noqa[REPxxx] typo\n"
    diagnostics = lint_source(source, module="repro.something")
    assert [d.code for d in diagnostics] == ["REP001"]


def test_noqa_suppresses_multiple_codes_on_one_line():
    source = (
        "import numpy as np\n"
        "def f(adjacency):\n"
        "    return np.asarray(adjacency), np.random.rand(2)"
        "  # repro: noqa[REP001,REP002] fixture: both on one line\n"
    )
    assert lint_source(source, module="repro.core.fake") == []


# ----------------------------------------------------------------------
# the project rules, one fixture each
# ----------------------------------------------------------------------
def test_rep001_unseeded_randomness():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep001.py"))
    assert codes_and_lines(diagnostics) == [("REP001", 7), ("REP001", 8)]


def test_rep002_dense_materialization():
    diagnostics = lint_file(fixture("src", "repro", "core", "fix_rep002.py"))
    assert codes_and_lines(diagnostics) == [("REP002", 7), ("REP002", 8)]


def test_rep002_scoped_to_hot_packages():
    assert lint_file(fixture("src", "repro", "fix_rep002_out_of_scope.py")) == []


def test_rep002_guards_the_models_package():
    # The reconstruction loss reads its target in CSR; a dense target
    # densified inside a model must not come back unnoticed.
    source = "def reconstruction_target(graph):\n    return graph.adjacency.to_dense()\n"
    diagnostics = lint_source(source, module="repro.models.base")
    assert codes_and_lines(diagnostics) == [("REP002", 2)]
    assert lint_source(source, module="repro.experiments.dynamics") == []


def test_rep003_backward_without_release():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep003.py"))
    assert codes_and_lines(diagnostics) == [("REP003", 7)]


def test_rep005_env_reads():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep005.py"))
    assert codes_and_lines(diagnostics) == [("REP005", 9), ("REP005", 10), ("REP005", 11)]


def test_rep005_exempts_the_accessor_module():
    source = "import os\nvalue = os.environ.get('REPRO_X')\n"
    assert lint_source(source, module="repro.env") == []
    assert [d.code for d in lint_source(source, module="repro.other")] == ["REP005"]


def test_readme_env_table_matches_the_registry():
    """The README's environment table lists exactly the registered variables,
    in registry order, with their types and defaults."""
    from repro.env import ENV_VARS

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip().replace("`", "") for cell in line.strip().strip("|").split("|")]
        if cells[0].startswith("REPRO_"):
            rows.append(tuple(cells[:3]))
    assert rows == [(var.name, var.kind, var.default) for var in ENV_VARS.values()]


def test_rep006_bare_assert_and_raise():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep006.py"))
    assert codes_and_lines(diagnostics) == [("REP006", 7), ("REP006", 9)]


def test_rep007_swallowed_exceptions():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep007.py"))
    assert codes_and_lines(diagnostics) == [("REP007", 9), ("REP007", 16), ("REP007", 20)]
    assert "KeyboardInterrupt" in diagnostics[0].message
    assert "swallows" in diagnostics[1].message


def test_rep007_allows_handled_catchalls():
    source = (
        "def f(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception as error:\n"
        "        raise RuntimeError('wrapped') from error\n"
    )
    assert lint_source(source, module="repro.something") == []


def test_rep008_no_print_in_library():
    diagnostics = lint_file(fixture("src", "repro", "fix_rep008.py"))
    assert codes_and_lines(diagnostics) == [("REP008", 7), ("REP008", 9)]
    assert "logger" in diagnostics[0].message


def test_rep008_exempts_cli_modules():
    source = "print('usage: repro-run SPEC')\n"
    assert lint_source(source, module="repro.api.cli") == []
    assert lint_source(source, module="repro.analysis.cli") == []
    assert [d.code for d in lint_source(source, module="repro.models.base")] == ["REP008"]
    # scripts outside the package (benchmarks, examples) may print freely
    assert lint_source(source, module="") == []


def test_library_scoped_rules_skip_scripts():
    assert lint_file(fixture("scripts", "fix_outside_library.py")) == []


# ----------------------------------------------------------------------
# reports and the CLI
# ----------------------------------------------------------------------
def test_lint_paths_report_counts():
    report = lint_paths([fixture("src")])
    assert report.files_checked >= 6
    assert report.error_count == len([d for d in report.diagnostics if d.severity == "error"])
    assert report.exit_code == 1
    summary = report.summary()
    for code in (
        "REP001", "REP002", "REP003",
        "REP005", "REP006", "REP007", "REP008",
    ):
        assert summary.get(code), f"expected {code} findings in the fixture tree"


def test_lint_paths_missing_target():
    with pytest.raises(LintConfigError, match="no such file"):
        lint_paths([fixture("does_not_exist")])


def test_cli_exit_codes_and_report_artifact(tmp_path, capsys):
    report_path = tmp_path / "lint-report.json"
    code = lint_main([fixture("src"), "--report", str(report_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "errors" in out

    payload = json.loads(report_path.read_text())
    assert payload["files_checked"] >= 6
    assert payload["errors"] >= 6
    assert "REP003" in payload["rules"]
    assert all({"path", "line", "code", "severity"} <= set(d) for d in payload["diagnostics"])


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean)]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_cli_select_and_json_format(capsys):
    code = lint_main([fixture("src"), "--select", "REP006", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["summary"]) == {"REP006"}


def test_cli_usage_errors(capsys):
    assert lint_main([]) == 2
    assert lint_main([fixture("src"), "--select", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "no paths" in err and "REP999" in err


def test_cli_unwritable_report_is_a_usage_error(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    missing = tmp_path / "no_such_dir" / "lint-report.json"
    assert lint_main([str(clean), "--report", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "repro-lint: error: cannot write --report" in err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "REP001", "REP002", "REP003",
        "REP005", "REP006", "REP007", "REP008",
    ):
        assert code in out


def test_repo_source_tree_is_clean():
    """The acceptance gate, as a test: the shipped tree lints clean."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = [
        os.path.join(repo_root, name)
        for name in ("src", "benchmarks", "examples")
        if os.path.exists(os.path.join(repo_root, name))
    ]
    report = lint_paths(targets)
    messages = "\n".join(d.format() for d in diagnostics_of(report))
    assert report.exit_code == 0, f"repo tree has lint errors:\n{messages}"


def diagnostics_of(report):
    return [d for d in report.diagnostics if d.severity == "error"]
