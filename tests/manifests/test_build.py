"""Expansion: pure, order-deterministic, fingerprint-deduplicated."""

import dataclasses
from pathlib import Path

import pytest

from repro.exceptions import ManifestError
from repro.experiments.faults import RetryPolicy
from repro.manifests import (
    build_manifest,
    build_settings,
    expand_run_specs,
    grid_fingerprint,
    lint_manifest,
    load_manifest,
    parse_manifest_text,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "campaign.toml"

MANIFEST = """
[manifest]
name = "build-me"

[settings]
scale = "tiny"
iterations = 1
budget_per_iteration = 8
seed_size = 8

[settings.matcher]
hidden_dims = [24]
epochs = 2

[settings.featurizer]
hash_dim = 32

[[grid]]
datasets = ["amazon_google"]
methods = ["random", "dal"]
scenarios = ["perfect", "noisy-0.1"]

[[grid]]
datasets = ["amazon_google"]
methods = ["battleship"]
alphas = [0.25, 0.75]
seeds = [7, 20]

[[grid]]
datasets = ["amazon_google"]
methods = ["dal"]
scenarios = ["abstaining"]
seeds = [11]
"""


def _expand(text=MANIFEST):
    report = lint_manifest(parse_manifest_text(text))
    assert report.ok, report.render()
    settings = build_settings(report.document)
    return report.document, settings, expand_run_specs(report.document,
                                                       settings)


def test_expansion_is_deterministic():
    _, _, first = _expand()
    _, _, second = _expand()
    assert [spec.fingerprint() for spec in first] == \
           [spec.fingerprint() for spec in second]
    assert grid_fingerprint(first) == grid_fingerprint(second)


def test_expansion_order_and_count():
    _, _, specs = _expand()
    # grid 1: 1 dataset × 2 methods × 2 scenarios = 4; grid 2: 2 seeds × 2 α
    # = 4; grid 3: one run.
    assert len(specs) == 9
    assert [(s.method, s.scenario, s.seed, s.alpha) for s in specs[:4]] == [
        ("random", "perfect", 7, 0.5), ("random", "noisy-0.1", 7, 0.5),
        ("dal", "perfect", 7, 0.5), ("dal", "noisy-0.1", 7, 0.5)]
    assert [(s.seed, s.alpha) for s in specs[4:8]] == [
        (7, 0.25), (7, 0.75), (20, 0.25), (20, 0.75)]
    assert specs[8].scenario == "abstaining" and specs[8].seed == 11


def test_duplicate_jobs_are_dropped_keeping_first():
    text = MANIFEST + """
[[grid]]
datasets = ["amazon_google"]
methods = ["random"]
seeds = [7]
"""
    _, _, specs = _expand(text)
    assert len(specs) == 9  # grid 4 repeats grid 1's first job


def test_seed_list_matches_harness_stride():
    """seeds = [7, 20] names the harness's first two seeds (stride 13)."""
    _, settings, specs = _expand()
    battleship_seeds = sorted({s.seed for s in specs if s.method == "battleship"})
    harness = dataclasses.replace(settings, num_seeds=2)
    assert battleship_seeds == list(harness.seeds()) == [7, 7 + 13]


def test_example_campaign_expansion_is_pinned():
    """examples/campaign.toml (CI's manifest-smoke) expands to 9 fixed runs."""
    _, _, specs = build_manifest(load_manifest(EXAMPLE))
    assert len(specs) == 9
    assert grid_fingerprint(specs) == "d3a65360e43579bb"


def test_settings_mapping():
    document, settings, _ = _expand()
    assert settings.scale.name == "tiny"
    assert settings.iterations == 1
    assert settings.budget_per_iteration == 8
    assert settings.seed_size == 8
    assert settings.matcher_config.hidden_dims == (24,)
    assert settings.matcher_config.epochs == 2
    assert settings.featurizer_config.hash_dim == 32
    assert settings.datasets == ("amazon_google",)


def test_settings_defaults_come_from_scale():
    text = MANIFEST.replace("iterations = 1\n", "") \
                   .replace("budget_per_iteration = 8\n", "") \
                   .replace("seed_size = 8\n", "")
    _, settings, _ = _expand(text)
    assert settings.iterations == settings.scale.iterations
    assert settings.budget_per_iteration == settings.scale.budget_per_iteration
    assert settings.seed_size == settings.scale.seed_size


def test_build_manifest_raises_with_every_lint_error():
    bad = MANIFEST.replace('"amazon_google"', '"amazon_googel"') \
                  .replace('scale = "tiny"', 'scale = "tinny"')
    with pytest.raises(ManifestError) as excinfo:
        build_manifest(parse_manifest_text(bad))
    message = str(excinfo.value)
    assert "amazon_googel" in message
    assert "tinny" in message


def test_manifest_id_is_content_addressed():
    document, _, _ = _expand()
    renamed, _, _ = _expand(MANIFEST.replace('"build-me"', '"renamed"'))
    assert document.manifest_id().startswith("build-me@")
    assert document.fingerprint() != renamed.fingerprint()
    same, _, _ = _expand()
    assert document.manifest_id() == same.manifest_id()


EXECUTION_MANIFEST = MANIFEST + """
[execution]
max_attempts = 2
keep_going = true
"""


def test_execution_section_builds_a_retry_policy():
    from repro.manifests import build_retry_policy
    report = lint_manifest(parse_manifest_text(EXECUTION_MANIFEST))
    assert report.ok
    policy, keep_going = build_retry_policy(report.document)
    assert policy == RetryPolicy(max_attempts=2, timeout=None)
    assert keep_going is True
    # An undeclared max_attempts inherits the policy default.
    defaulted = lint_manifest(parse_manifest_text(
        EXECUTION_MANIFEST.replace("max_attempts = 2\n", "timeout = 60.0\n")))
    policy, _ = build_retry_policy(defaulted.document)
    assert policy == RetryPolicy(max_attempts=3, timeout=60.0)


def test_manifest_without_execution_builds_no_policy():
    from repro.manifests import build_retry_policy
    report = lint_manifest(parse_manifest_text(MANIFEST))
    policy, keep_going = build_retry_policy(report.document)
    assert policy is None
    assert keep_going is False


def test_execution_section_does_not_change_the_grid_fingerprint():
    """How a campaign retries must not invalidate its lockfile pins."""
    plain = lint_manifest(parse_manifest_text(MANIFEST)).document
    resilient = lint_manifest(
        parse_manifest_text(EXECUTION_MANIFEST)).document
    assert grid_fingerprint(expand_run_specs(plain)) == \
        grid_fingerprint(expand_run_specs(resilient))
