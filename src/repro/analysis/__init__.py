"""``reprolint``: static determinism/spawn-safety analysis + runtime sanitizer.

The static half (:mod:`~repro.analysis.runner`) is an AST-based lint engine
whose rules encode the determinism bugs this repository has actually had to
find by hand — builtin ``hash()`` in MinHash (PR 1), spawn-unsafe registries
(PR 3), fingerprint drift on new config fields (PR 6/7).  The dynamic half
(:mod:`~repro.analysis.sanitizer`) guards running code against the same bug
classes: frozen global RNG state, read-only cache arrays, order-independence
probes.

Entry points: ``repro lint-code`` on the command line, :func:`lint_paths` /
:func:`lint_source` programmatically, :func:`determinism_guard` at runtime.
"""

from repro.analysis.core import (
    Finding,
    available_rules,
    rule_class,
)
from repro.analysis.runner import (
    DEFAULT_PATHS,
    LintReport,
    lint_paths,
    lint_source,
    rule_catalog,
)
from repro.analysis.sanitizer import (
    DeterminismViolation,
    determinism_guard,
    permuted,
    sanitizer_enabled,
    shuffled_dict,
)

__all__ = [
    "DEFAULT_PATHS",
    "DeterminismViolation",
    "Finding",
    "LintReport",
    "available_rules",
    "determinism_guard",
    "lint_paths",
    "lint_source",
    "permuted",
    "rule_catalog",
    "rule_class",
    "sanitizer_enabled",
    "shuffled_dict",
]
