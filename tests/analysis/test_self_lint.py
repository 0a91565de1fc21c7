"""Self-lint: the repository's own code must gate green.

This is the test CI's ``static-analysis`` job mirrors, over the same trees:
``src/``, ``examples/``, ``benchmarks/`` and the reference oracles in
``tests/reference/``.  Every finding there is either fixed, suppressed with a
reasoned ``# repro: noqa[RULE] reason``, or consciously grandfathered in the
committed baseline.  A new violation anywhere in those trees fails this test
with the exact ``file:line:col`` to look at.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DEFAULT_BASELINE_NAME, lint_paths, read_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The trees CI's reprolint gate checks.
LINTED_TREES = ("src", "examples", "benchmarks", "tests/reference")


@pytest.fixture(scope="module")
def self_report():
    baseline = REPO_ROOT / DEFAULT_BASELINE_NAME
    return lint_paths([REPO_ROOT / tree for tree in LINTED_TREES], root=REPO_ROOT,
                      baseline_path=baseline if baseline.exists() else None)


def test_src_tree_is_lint_clean(self_report):
    rendered = "\n".join(f.render() for f in self_report.findings)
    assert self_report.ok, f"new lint findings in {', '.join(LINTED_TREES)}:\n{rendered}"


def test_committed_baseline_has_no_stale_entries(self_report):
    assert self_report.stale_baseline == []


def test_committed_baseline_is_empty():
    """The shipped baseline carries no grandfathered findings.

    Every real finding of the initial sweep was fixed or suppressed inline
    with a justification; if this test starts failing someone grew the
    baseline — which is allowed, but must be a reviewed decision (update
    this test alongside the baseline).
    """
    baseline = REPO_ROOT / DEFAULT_BASELINE_NAME
    assert baseline.exists(), "reprolint-baseline.json must be committed"
    assert read_baseline(baseline) == []


def test_every_suppression_in_src_is_reasoned(self_report):
    # RL001 (reason-less noqa) and RL003 (unused noqa) are ordinary findings,
    # so ok() above already covers them — this assertion documents that the
    # suppressed sites are justified exceptions, not silence.
    assert len(self_report.suppressed) >= 4  # sanitizer's own guarded calls


def test_whole_repo_python_surface_parses():
    """Examples and tests must at least be parseable by the linter."""
    report = lint_paths([REPO_ROOT / "examples"], root=REPO_ROOT)
    assert all(f.rule != "RL000" for f in report.findings)
