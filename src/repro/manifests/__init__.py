"""Declarative experiment manifests: lint, build, and version a campaign.

A manifest is a TOML file declaring a full labeling campaign — the
datasets, methods, scenarios, seeds, and settings of its ``[[grid]]``
statements — that the three staged commands operate on::

    repro manifest lint     campaign.toml   # every error, with locations
    repro manifest build    campaign.toml   # expand + execute (resumable)
    repro manifest versions campaign.toml   # pin fingerprints to a lockfile

See ``examples/campaign.toml`` for an annotated manifest.
"""

from repro.manifests.build import (
    build_manifest,
    build_retry_policy,
    build_settings,
    expand_run_specs,
    grid_fingerprint,
)
from repro.manifests.lint import (
    LintIssue,
    LintReport,
    lint_manifest,
    render_field_path,
)
from repro.manifests.lockfile import (
    LOCKFILE_FORMAT_VERSION,
    compute_lockfile,
    lockfile_drift,
    lockfile_path,
    read_lockfile,
    render_lockfile,
    write_lockfile,
)
from repro.manifests.parser import (
    ManifestSource,
    SourceMap,
    load_manifest,
    parse_manifest_text,
)
from repro.manifests.schema import (
    MANIFEST_FORMAT_VERSION,
    ExecutionPolicy,
    GridStatement,
    ManifestDocument,
    ManifestSettings,
)

__all__ = [
    "ExecutionPolicy",
    "GridStatement",
    "LintIssue",
    "LintReport",
    "LOCKFILE_FORMAT_VERSION",
    "MANIFEST_FORMAT_VERSION",
    "ManifestDocument",
    "ManifestSettings",
    "ManifestSource",
    "SourceMap",
    "build_manifest",
    "build_retry_policy",
    "build_settings",
    "compute_lockfile",
    "expand_run_specs",
    "grid_fingerprint",
    "lint_manifest",
    "load_manifest",
    "lockfile_drift",
    "lockfile_path",
    "parse_manifest_text",
    "read_lockfile",
    "render_field_path",
    "render_lockfile",
    "write_lockfile",
]
