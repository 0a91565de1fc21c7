"""The three staged manifest commands, end to end through the CLI."""

import json

import pytest

from repro.cli import main
from repro.manifests import lockfile_path

FAST_MANIFEST = """
[manifest]
name = "cli-smoke"

[settings]
scale = "tiny"
iterations = 1
budget_per_iteration = 8
seed_size = 8

[settings.matcher]
hidden_dims = [24]
epochs = 2
batch_size = 16

[settings.featurizer]
hash_dim = 32

[[grid]]
datasets = ["amazon_google"]
methods = ["random", "dal"]
"""

BAD_MANIFEST = """
[manifest]
name = "broken"

[settings]
scale = "mediun"

[[grid]]
datasets = ["amazon_googel"]
methods = ["battleshp"]
"""


@pytest.fixture()
def manifest_path(tmp_path):
    path = tmp_path / "campaign.toml"
    path.write_text(FAST_MANIFEST, encoding="utf-8")
    return path


def test_lint_ok(manifest_path, capsys):
    assert main(["manifest", "lint", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "OK — 2 runs" in out


def test_lint_reports_every_error_and_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "broken.toml"
    path.write_text(BAD_MANIFEST, encoding="utf-8")
    assert main(["manifest", "lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "settings.scale" in out
    assert "grid[0].datasets[0]" in out
    assert "grid[0].methods[0]" in out
    assert "3 error(s)" in out
    # lint must not create any dataset/store artifacts next to the manifest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.toml"]


@pytest.mark.parametrize("name, text, message", [
    ("run.toml", FAST_MANIFEST + '[[run]]\ndataset = "abt_buy"\n'
     'method = "dal"\n', "error: run: Unknown manifest section key 'run'"),
    ("range.toml", FAST_MANIFEST + "seeds = { start = 7, count = 2 }\n",
     "error: grid[0].seeds: expected a list of seeds, got dict"),
    ("campaign.json", "{}", "unsupported manifest extension '.json'"),
], ids=["run", "seed-range", "json"])
def test_lint_rejects_removed_forms(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["manifest", "lint", str(path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("command", ["lint", "build", "versions"])
def test_help_names_only_toml_manifests(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["manifest", command, "--help"])
    assert raised.value.code == 0
    out = capsys.readouterr().out
    assert "Manifest file (.toml)" in out
    assert ".json" not in out


def test_build_dry_run_prints_grid_without_executing(manifest_path, tmp_path,
                                                     capsys):
    store = tmp_path / "store"
    assert main(["manifest", "build", str(manifest_path), "--dry-run",
                 "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "dry-run: 2 runs would execute" in out
    assert out.count("amazon_google") == 2
    # planning must not execute or persist anything
    assert not list(store.glob("*.json"))


def test_build_then_warm_rebuild_executes_zero_runs(manifest_path, tmp_path,
                                                    capsys):
    store = tmp_path / "store"
    assert main(["manifest", "build", str(manifest_path),
                 "--store", str(store)]) == 0
    cold = capsys.readouterr().out
    assert "2 runs executed, 0 loaded from store" in cold
    artifacts = list(store.glob("*.json"))
    assert len(artifacts) == 2
    for artifact in artifacts:
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert sorted(payload) == ["format_version", "result", "spec"]
        # Stores written before artifacts lost their manifest stamp carry
        # this key; it must not stop them from resuming.
        payload["manifest"] = "cli-smoke@0123456789ab"
        artifact.write_text(json.dumps(payload), encoding="utf-8")

    assert main(["manifest", "build", str(manifest_path),
                 "--store", str(store)]) == 0
    warm = capsys.readouterr().out
    assert "0 runs executed, 2 loaded from store" in warm


def test_versions_writes_stable_lockfile_and_detects_drift(manifest_path,
                                                           capsys):
    lock = lockfile_path(manifest_path)
    assert main(["manifest", "versions", str(manifest_path)]) == 0
    first = lock.read_text(encoding="utf-8")
    lock.unlink()
    assert main(["manifest", "versions", str(manifest_path)]) == 0
    assert lock.read_text(encoding="utf-8") == first
    assert main(["manifest", "versions", str(manifest_path)]) == 0
    assert "up to date" in capsys.readouterr().out

    # Drift: the manifest now means something else.
    manifest_path.write_text(FAST_MANIFEST.replace("epochs = 2", "epochs = 3"),
                             encoding="utf-8")
    assert main(["manifest", "versions", str(manifest_path)]) == 1
    out = capsys.readouterr().out
    assert "drift detected" in out
    assert "configs.matcher" in out
    assert "settings_fingerprint" in out
    # --update re-pins
    assert main(["manifest", "versions", str(manifest_path), "--update"]) == 0
    assert main(["manifest", "versions", str(manifest_path)]) == 0


def test_build_refuses_on_lockfile_drift(manifest_path, tmp_path, capsys):
    assert main(["manifest", "versions", str(manifest_path)]) == 0
    capsys.readouterr()
    manifest_path.write_text(FAST_MANIFEST.replace("epochs = 2", "epochs = 3"),
                             encoding="utf-8")
    assert main(["manifest", "build", str(manifest_path), "--dry-run"]) == 1
    out = capsys.readouterr().out
    assert "lockfile drift" in out
    assert "configs.matcher" in out
    # the escape hatch still plans
    assert main(["manifest", "build", str(manifest_path), "--dry-run",
                 "--ignore-lockfile"]) == 0
    assert "dry-run: 2 runs would execute" in capsys.readouterr().out


def test_build_fails_loudly_on_lint_errors(tmp_path, capsys):
    path = tmp_path / "broken.toml"
    path.write_text(BAD_MANIFEST, encoding="utf-8")
    assert main(["manifest", "build", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert "failed lint with 3 error(s)" in err
