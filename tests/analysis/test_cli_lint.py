"""CLI tests for ``repro lint-code``: exit codes, formats, path handling."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = "VALUE = 1\n"

VIOLATION = textwrap.dedent(
    """
    def sig(x):
        return hash(x)
    """)


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """An isolated project directory the CLI runs inside."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_clean_tree_exits_zero(project, capsys):
    (project / "m.py").write_text(CLEAN, encoding="utf-8")
    assert main(["lint-code", "m.py"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_location(project, capsys):
    (project / "m.py").write_text(VIOLATION, encoding="utf-8")
    assert main(["lint-code", "m.py"]) == 1
    out = capsys.readouterr().out
    assert "m.py:3:11: ND001" in out


def test_json_format_is_the_artifact_document(project, capsys):
    (project / "m.py").write_text(VIOLATION, encoding="utf-8")
    assert main(["lint-code", "m.py", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "reprolint"
    assert [f["rule"] for f in payload["findings"]] == ["ND001"]


@pytest.mark.parametrize("path", ["srcc", "x.py", "notes.txt", "empty"],
                         ids=["typo", "missing-file", "not-python",
                              "empty-dir"])
def test_path_without_python_files_exits_two(project, capsys, path):
    (project / "src").mkdir()
    (project / "src" / "m.py").write_text(CLEAN, encoding="utf-8")
    (project / "notes.txt").write_text("not python\n", encoding="utf-8")
    (project / "empty").mkdir()
    assert main(["lint-code", "src", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"no Python files to lint under: {path}"


def test_every_empty_path_is_named(project, capsys):
    (project / "m.py").write_text(CLEAN, encoding="utf-8")
    assert main(["lint-code", "srcc", "m.py", "x.py"]) == 2
    assert "no Python files to lint under: srcc, x.py" in capsys.readouterr().err


def test_each_file_is_linted_once(project, capsys):
    pkg = project / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(VIOLATION, encoding="utf-8")
    assert main(["lint-code", "pkg/m.py", "pkg/m.py", "pkg",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["ND001"]


def test_help_offers_only_paths_format_and_list_rules(capsys):
    with pytest.raises(SystemExit):
        main(["lint-code", "--help"])
    out = capsys.readouterr().out
    options = sorted({word.rstrip(",") for word in out.split()
                      if word.startswith("--")})
    assert options == ["--format", "--help", "--list-rules"]


def test_list_rules_prints_the_catalog(project, capsys):
    assert main(["lint-code", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("ND001", "ND005", "SP001", "FP001", "MU002"):
        assert code in out


def test_planted_violation_tree_yields_exact_findings(project, capsys):
    """End-to-end fixture tree: one violation per family, exact locations."""
    pkg = project / "pkg"
    pkg.mkdir()
    (pkg / "nd.py").write_text(textwrap.dedent(
        """
        import random

        def sample(items):
            ordered = list(set(items))
            return random.choice(ordered)
        """), encoding="utf-8")
    (pkg / "sp.py").write_text(textwrap.dedent(
        """
        def run(executor, items):
            return executor.submit(lambda x: x, items)
        """), encoding="utf-8")
    (pkg / "fp.py").write_text(textwrap.dedent(
        """
        def fingerprint(config):
            return {"alpha": repr(config.alpha)}
        """), encoding="utf-8")
    (pkg / "mu.py").write_text(textwrap.dedent(
        """
        def build(items=[]):
            return items
        """), encoding="utf-8")
    assert main(["lint-code", "pkg", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    locations = sorted((f["file"], f["line"], f["col"], f["rule"])
                       for f in payload["findings"])
    assert locations == [
        ("pkg/fp.py", 3, 21, "FP002"),
        ("pkg/mu.py", 2, 16, "MU001"),
        ("pkg/nd.py", 5, 19, "ND005"),
        ("pkg/nd.py", 6, 11, "ND003"),
        ("pkg/sp.py", 3, 27, "SP001"),
    ]
    assert payload["files_checked"] == 4
