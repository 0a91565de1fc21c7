"""Self-lint: the repository's own code must gate green.

This is the test CI's ``static-analysis`` job mirrors, over the same trees:
``repro lint-code``'s default paths (``src/``, ``examples/``, ``benchmarks/``
and the reference oracles in ``tests/reference/``).  Every finding there is
either fixed or suppressed with a reasoned ``# repro: noqa[RULE] reason``.  A
new violation anywhere in those trees fails this test with the exact
``file:line:col`` to look at.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DEFAULT_PATHS, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def self_report():
    return lint_paths(DEFAULT_PATHS, root=REPO_ROOT)


def test_src_tree_is_lint_clean(self_report):
    rendered = "\n".join(f.render() for f in self_report.findings)
    assert self_report.ok, f"new lint findings in {', '.join(DEFAULT_PATHS)}:\n{rendered}"


def test_every_suppression_in_src_is_reasoned(self_report):
    # RL001 (reason-less noqa) and RL003 (unused noqa) are ordinary findings,
    # so ok() above already covers them — this assertion documents that the
    # suppressed sites are justified exceptions, not silence.
    assert len(self_report.suppressed) >= 4  # sanitizer's own guarded calls


def test_whole_repo_python_surface_parses():
    """Examples and tests must at least be parseable by the linter."""
    report = lint_paths([REPO_ROOT / "examples"], root=REPO_ROOT)
    assert all(f.rule != "RL000" for f in report.findings)
