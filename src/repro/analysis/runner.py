"""The ``reprolint`` entry points: file discovery, linting, and rendering.

``lint_paths`` is what the CLI and the test suite call: it walks the given
files/directories, runs every rule through one AST pass per file, applies
``noqa`` suppressions, and returns a :class:`LintReport` that renders as human
text or as the versioned JSON document CI uploads as an artifact.  There is
no rule selection and no baseline: every finding is either fixed or
suppressed inline with a reasoned ``noqa``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

# The rule modules register themselves on import; importing them here makes
# "import repro.analysis.runner" sufficient to get the full registry.
import repro.analysis.rules_fp  # noqa: F401  (registration side effect)
import repro.analysis.rules_mu  # noqa: F401
import repro.analysis.rules_nd  # noqa: F401
import repro.analysis.rules_sp  # noqa: F401
from repro.analysis.core import (
    Finding,
    LintContext,
    LintWalker,
    available_rules,
    rule_class,
)
from repro.analysis.noqa import apply_suppressions, parse_suppressions
from repro.exceptions import ConfigurationError

#: Format version of the ``--format json`` document.
JSON_FORMAT_VERSION = 2

#: The trees ``repro lint-code`` checks when given no path (CI's gate): the
#: package, the examples, the benchmark harness and the reference oracles.
DEFAULT_PATHS = ("src", "examples", "benchmarks", "tests/reference")


@dataclass
class LintReport:
    """Everything one lint run produced, ready to render or gate on."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run should gate green (no unsuppressed findings)."""
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        """The ``--format json`` document (schema-stable, CI-parseable)."""
        return {
            "version": JSON_FORMAT_VERSION,
            "tool": "reprolint",
            "rules": list(available_rules()),
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def render_human(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(f"{len(self.findings)} finding(s), "
                     f"{len(self.suppressed)} suppressed, "
                     f"{self.files_checked} file(s) checked")
        return "\n".join(lines)


def python_files(paths: Sequence[str | Path],
                 root: Path | None = None) -> list[Path]:
    """The ``.py`` files under ``paths``, each once, sorted per path.

    A path that yields no ``.py`` file (missing, not Python, or a directory
    holding none) raises :class:`ConfigurationError` naming every such path:
    a typo'd tree must fail the gate, not pass it on zero files.
    """
    root = root or Path.cwd()
    files: dict[Path, None] = {}
    empty: list[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            found = sorted(p for p in path.rglob("*.py") if p.is_file())
        else:
            found = [path] if path.suffix == ".py" and path.is_file() else []
        if not found:
            empty.append(str(raw))
        files.update(dict.fromkeys(p.resolve() for p in found))
    if empty:
        raise ConfigurationError(
            f"no Python files to lint under: {', '.join(empty)}")
    return list(files)


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(source: str,
                display_path: str) -> tuple[list[Finding], list[Finding]]:
    """Lint one in-memory module; returns ``(kept, suppressed)`` findings.

    The workhorse behind :func:`lint_paths` and the per-rule fixture tests.
    Syntax errors are reported as a finding rather than raised — a lint gate
    must point at the broken file, not crash on it.
    """
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as error:
        return [Finding(rule="RL000", file=display_path,
                        line=error.lineno or 1, col=(error.offset or 1) - 1,
                        message=f"syntax error: {error.msg}")], []
    ctx = LintContext(path=Path(display_path), display_path=display_path,
                      source=source, tree=tree)
    walker = LintWalker([rule_class(code)() for code in available_rules()])
    raw_findings = walker.walk(ctx)
    suppressions, directive_findings = parse_suppressions(source, display_path)
    kept, suppressed, unused = apply_suppressions(raw_findings, suppressions)
    kept.extend(directive_findings)
    kept.extend(unused)
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept, suppressed


def lint_paths(paths: Sequence[str | Path],
               root: Path | None = None) -> LintReport:
    """Lint every Python file under ``paths`` against every rule."""
    root = root or Path.cwd()
    report = LintReport()
    for path in python_files(paths, root=root):
        kept, suppressed = lint_source(path.read_text(encoding="utf-8"),
                                       _display_path(path, root))
        report.findings.extend(kept)
        report.suppressed.extend(suppressed)
        report.files_checked += 1
    return report


def rule_catalog() -> list[dict[str, str]]:
    """The rule table for ``--list-rules`` and the README."""
    rows = []
    for code in available_rules():
        cls = rule_class(code)
        rows.append({"rule": code, "summary": cls.summary,
                     "history": cls.history})
    return rows
