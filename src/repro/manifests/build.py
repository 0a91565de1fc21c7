"""Expand a linted manifest into its RunSpec grid.

The expansion is pure and order-deterministic: grids expand in manifest
order, each as dataset × method × scenario × seed × α, and duplicate jobs
are dropped by store fingerprint keeping the first occurrence.  Linting the
same file twice therefore yields a byte-identical fingerprint list — the
property the round-trip tests and the lockfile's grid hash rely on.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.config import get_scale
from repro.exceptions import ManifestError
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import RunSpec
from repro.experiments.faults import RetryPolicy
from repro.manifests.lint import LintReport, lint_manifest
from repro.manifests.parser import ManifestSource
from repro.manifests.schema import ManifestDocument
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig


def build_settings(document: ManifestDocument) -> ExperimentSettings:
    """The :class:`ExperimentSettings` every job of ``document`` runs under.

    Run-shaping knobs come from the manifest's ``[settings]`` section with
    the scale profile filling the gaps.  The grid-only fields (``datasets``,
    ``num_seeds``, ``alphas``) are excluded from the settings fingerprint,
    so pinning them here to the manifest's references and a single nominal
    sweep keeps manifest runs store-compatible with ``repro experiments``
    runs under the same knobs.
    """
    manifest = document.settings
    scale = get_scale(manifest.scale)
    matcher = dataclasses.replace(MatcherConfig(),
                                  **dict(manifest.matcher_overrides))
    featurizer = dataclasses.replace(FeaturizerConfig(),
                                     **dict(manifest.featurizer_overrides))
    return ExperimentSettings(
        scale=scale,
        datasets=document.referenced_datasets() or ("amazon_google",),
        iterations=manifest.iterations or scale.iterations,
        budget_per_iteration=(manifest.budget_per_iteration
                              or scale.budget_per_iteration),
        seed_size=manifest.seed_size or scale.seed_size,
        num_seeds=1,
        alphas=(0.5,),
        beta=0.5,
        matcher_config=matcher,
        featurizer_config=featurizer,
        base_random_seed=manifest.base_random_seed,
    )


def build_retry_policy(
    document: ManifestDocument,
) -> tuple[RetryPolicy | None, bool]:
    """The ``(RetryPolicy, keep_going)`` the ``[execution]`` section declares.

    ``(None, False)`` when the manifest has no ``[execution]`` section —
    the campaign then runs with whatever the caller (CLI flags, API)
    chooses, typically fail-fast.  An undeclared ``max_attempts`` takes the
    policy's default.
    """
    execution = document.execution
    if execution is None:
        return None, False
    max_attempts = (execution.max_attempts if execution.max_attempts is not None
                    else RetryPolicy().max_attempts)
    return RetryPolicy(max_attempts, execution.timeout), execution.keep_going


def expand_run_specs(
    document: ManifestDocument,
    settings: ExperimentSettings | None = None,
) -> list[RunSpec]:
    """The deduplicated RunSpec grid of ``document``, in manifest order."""
    settings = settings if settings is not None else build_settings(document)
    base_seed = settings.base_random_seed
    specs: dict[str, RunSpec] = {}  # by fingerprint, first occurrence kept
    for grid in document.grids:
        for dataset in grid.datasets:
            for method in grid.methods:
                # α only shapes battleship selection; other methods run the
                # single nominal value so a sweep never multiplies them.
                alphas = (grid.alphas if grid.alphas and method == "battleship"
                          else (0.5,))
                for scenario in grid.scenarios:
                    for seed in grid.seed_values(base_seed):
                        for alpha in alphas:
                            spec = RunSpec.create(
                                dataset, method, seed, alpha, grid.beta,
                                grid.weak_supervision, settings,
                                scenario=scenario)
                            specs.setdefault(spec.fingerprint(), spec)
    return list(specs.values())


def grid_fingerprint(specs: list[RunSpec]) -> str:
    """Order-sensitive hash of the expanded grid (pinned by the lockfile)."""
    joined = "\n".join(spec.fingerprint() for spec in specs)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def build_manifest(
    source: ManifestSource,
) -> tuple[ManifestDocument, ExperimentSettings, list[RunSpec]]:
    """Lint ``source`` and expand it, or fail with *every* lint error.

    This is the programmatic entry the CLI's ``manifest build`` goes
    through; callers wanting the issues individually use
    :func:`~repro.manifests.lint.lint_manifest` directly.
    """
    report: LintReport = lint_manifest(source)
    if not report.ok or report.document is None:
        raise ManifestError(
            f"{source.display_path} failed lint with "
            f"{len(report.errors)} error(s):\n{report.render()}")
    document = report.document
    settings = build_settings(document)
    return document, settings, expand_run_specs(document, settings)
