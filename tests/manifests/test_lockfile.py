"""Lockfiles: deterministic pins, loud and complete drift reporting."""

from repro.manifests import (
    build_manifest,
    compute_lockfile,
    lockfile_drift,
    lockfile_path,
    parse_manifest_text,
    read_lockfile,
    render_lockfile,
    write_lockfile,
)

MANIFEST = """
[manifest]
name = "locked"

[settings]
scale = "tiny"

[[grid]]
datasets = ["amazon_google"]
methods = ["random"]
scenarios = ["perfect", "noisy-0.1"]
"""


def _lockfile(text=MANIFEST):
    document, settings, specs = build_manifest(parse_manifest_text(text))
    return compute_lockfile(document, settings, specs)


def test_lockfile_render_is_bit_identical_across_runs():
    assert render_lockfile(_lockfile()) == render_lockfile(_lockfile())


def test_lockfile_pins_every_referenced_definition():
    data = _lockfile()
    assert set(data["datasets"]) == {"amazon_google"}
    assert set(data["scenarios"]) == {"perfect", "noisy-0.1"}
    assert data["grid"]["runs"] == 2
    assert set(data["configs"]) == {"featurizer", "matcher"}
    assert data["settings_fingerprint"]


def test_no_drift_against_itself():
    assert lockfile_drift(_lockfile(), _lockfile()) == []


def test_drift_lists_every_changed_component():
    pinned = _lockfile()
    current = _lockfile(MANIFEST.replace(
        'scenarios = ["perfect", "noisy-0.1"]',
        'scenarios = ["perfect", "noisy-0.3"]'))
    drift = lockfile_drift(pinned, current)
    rendered = "\n".join(drift)
    # the removed scenario, the added scenario, the grid, and the manifest
    assert "scenarios.noisy-0.1" in rendered
    assert "scenarios.noisy-0.3" in rendered
    assert "grid.fingerprint" in rendered
    assert "manifest.fingerprint" in rendered
    assert len(drift) >= 4


def test_write_and_read_round_trip(tmp_path):
    manifest_path = tmp_path / "campaign.toml"
    lock = lockfile_path(manifest_path)
    assert lock == tmp_path / "campaign.lock.json"
    data = _lockfile()
    write_lockfile(lock, data)
    assert read_lockfile(lock) == data
    assert lock.read_text(encoding="utf-8") == render_lockfile(data)


EXECUTION = """
[execution]
max_attempts = 3
keep_going = true
"""


def test_adding_an_execution_section_leaves_the_lockfile_unchanged():
    """How a campaign retries is not what it runs: the pins must hold."""
    assert _lockfile(MANIFEST + EXECUTION) == _lockfile()


def test_editing_the_execution_section_leaves_the_lockfile_unchanged():
    pinned = _lockfile(MANIFEST + EXECUTION)
    edited = _lockfile(MANIFEST + EXECUTION.replace(
        "max_attempts = 3", "max_attempts = 5\ntimeout = 60.0"))
    assert lockfile_drift(pinned, edited) == []


def test_manifest_fingerprint_is_pinned():
    """A manifest without [execution] keeps its fingerprint and lockfile pin."""
    document, _, _ = build_manifest(parse_manifest_text(MANIFEST))
    assert document.fingerprint() == "8fae8dc72033f957"
    assert _lockfile()["manifest"]["fingerprint"] == "8fae8dc72033f957"
