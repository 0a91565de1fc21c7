"""Report-format tests: the JSON document schema and human rendering."""

from __future__ import annotations

import json
import textwrap

from repro.analysis import available_rules, lint_paths
from repro.analysis.core import Finding
from repro.analysis.runner import JSON_FORMAT_VERSION, LintReport


def test_render_human_pins_location_format():
    finding = Finding(rule="ND001", file="src/m.py", line=12, col=4,
                      message="builtin hash() is salted")
    assert finding.render() == "src/m.py:12:4: ND001 builtin hash() is salted"


def test_json_document_schema(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(textwrap.dedent(
        """
        def sig(x):
            return hash(x)
        """), encoding="utf-8")
    report = lint_paths([module], root=tmp_path)
    payload = json.loads(report.render_json())
    assert payload["version"] == JSON_FORMAT_VERSION
    assert payload["tool"] == "reprolint"
    assert payload["files_checked"] == 1
    assert payload["version"] == 2
    assert set(payload) == {"version", "tool", "rules", "files_checked",
                            "findings", "suppressed"}
    assert payload["rules"] == list(available_rules())
    (finding,) = payload["findings"]
    assert finding == {"rule": "ND001", "file": "m.py", "line": 3,
                       "col": 11, "message": finding["message"]}
    # The document must be bit-stable across runs (CI diffs artifacts).
    assert report.render_json() == lint_paths([module],
                                              root=tmp_path).render_json()


def test_report_ok_reflects_gating():
    assert LintReport().ok
    report = LintReport(findings=[Finding(rule="ND001", file="m.py",
                                          line=1, col=0, message="x")])
    assert not report.ok


def test_human_summary_line(tmp_path):
    module = tmp_path / "clean.py"
    module.write_text("VALUE = 1\n", encoding="utf-8")
    report = lint_paths([module], root=tmp_path)
    assert report.render_human().endswith(
        "0 finding(s), 0 suppressed, 1 file(s) checked")
