"""Linting: every error at once, each anchored to a field and a line."""

import pytest

from repro.exceptions import ManifestError
from repro.manifests import lint_manifest, load_manifest, parse_manifest_text

GOOD_MANIFEST = """
[manifest]
name = "good"
description = "a valid manifest"

[settings]
scale = "tiny"
iterations = 1

[settings.matcher]
hidden_dims = [24]
epochs = 2

[[grid]]
datasets = ["amazon_google"]
methods = ["random", "battleship"]
scenarios = ["perfect", "noisy-0.1"]
alphas = [0.25, 0.75]

[[grid]]
datasets = ["abt_buy"]
methods = ["dal"]
seeds = [11]
"""

# Five distinct, independently locatable mistakes.
BAD_MANIFEST = """
[manifest]
name = "bad"

[settings]
scale = "mediun"

[[grid]]
datasets = ["amazon_googel"]
methods = ["battleshp"]
beta = 2.0

[[grid]]
datasets = ["abt_buy"]
methods = ["dal"]
scenarios = ["noisy-01"]
"""


def test_good_manifest_lints_clean():
    report = lint_manifest(parse_manifest_text(GOOD_MANIFEST))
    assert report.ok
    assert report.document is not None
    assert report.document.name == "good"
    assert report.document.referenced_datasets() == ("amazon_google", "abt_buy")
    assert "noisy-0.1" in report.document.referenced_scenarios()
    # battleship + random share the grid: alphas trigger only a warning
    assert [issue.severity for issue in report.issues] in ([], ["warning"])


def test_all_errors_reported_in_one_pass():
    report = lint_manifest(parse_manifest_text(BAD_MANIFEST))
    assert not report.ok
    fields = [issue.field for issue in report.errors]
    assert "settings.scale" in fields
    assert "grid[0].datasets[0]" in fields
    assert "grid[0].methods[0]" in fields
    assert "grid[0].beta" in fields
    assert "grid[1].scenarios[0]" in fields
    assert len(report.errors) >= 5


def test_errors_carry_line_numbers_and_suggestions():
    report = lint_manifest(parse_manifest_text(BAD_MANIFEST))
    by_field = {issue.field: issue for issue in report.errors}
    scale = by_field["settings.scale"]
    assert scale.line == 6
    assert "did you mean 'medium'" in scale.message
    dataset = by_field["grid[0].datasets[0]"]
    assert dataset.line == 9
    assert "amazon_google" in dataset.message
    rendered = dataset.render()
    assert rendered.startswith("error: grid[0].datasets[0]:")
    assert "(line 9)" in rendered


def test_alphas_without_battleship_is_an_error():
    text = GOOD_MANIFEST.replace('methods = ["random", "battleship"]',
                                 'methods = ["random"]')
    report = lint_manifest(parse_manifest_text(text))
    assert any(issue.field == "grid[0].alphas" for issue in report.errors)


def test_unknown_config_override_field_is_an_error():
    text = GOOD_MANIFEST.replace("epochs = 2", "epoch = 2")
    report = lint_manifest(parse_manifest_text(text))
    issue = next(i for i in report.errors
                 if i.field == "settings.matcher.epoch")
    assert "did you mean 'epochs'" in issue.message


def test_config_invariants_are_checked():
    text = GOOD_MANIFEST.replace("epochs = 2", "epochs = -1")
    report = lint_manifest(parse_manifest_text(text))
    assert any("epochs" in issue.message for issue in report.errors)


@pytest.mark.parametrize("table, setting", [
    ("matcher", "learning_rate = 0.0"),
    ("matcher", "weight_decay = -0.5"),
    ("matcher", "dropout = 1.0"),
    ("matcher", "hidden_dims = []"),
    ("matcher", "hidden_dims = [0]"),
    ("featurizer", "qgram_size = 0"),
])
def test_values_a_run_would_crash_on_are_errors(table, setting):
    """The config's own checks reject them before any job is built."""
    if table == "matcher":
        text = GOOD_MANIFEST.replace("hidden_dims = [24]", setting)
    else:
        text = GOOD_MANIFEST.replace(
            "[[grid]]", f"[settings.{table}]\n{setting}\n\n[[grid]]", 1)
    report = lint_manifest(parse_manifest_text(text))
    assert not report.ok
    [issue] = report.errors
    assert issue.field == f"settings.{table}"
    assert setting.split(" = ")[0] in issue.message


def test_negative_seed_is_an_error():
    """numpy rejects a negative seed, so every job of the grid would fail."""
    text = GOOD_MANIFEST.replace("seeds = [11]", "seeds = [11, -3]")
    report = lint_manifest(parse_manifest_text(text))
    [issue] = report.errors
    assert issue.render() == "error: grid[1].seeds[1]: must be >= 0, got -3 " \
                             "(line 23)"


def test_blocker_setting_is_an_unknown_key():
    """No experiment path blocks, so a blocker setting would do nothing."""
    text = GOOD_MANIFEST.replace('scale = "tiny"',
                                 'scale = "tiny"\nblocker = "minhash"')
    report = lint_manifest(parse_manifest_text(text))
    issue = next(i for i in report.errors if i.field == "settings.blocker")
    assert "Unknown settings key 'blocker'" in issue.message
    assert issue.line == 8


def test_empty_manifest_needs_a_grid_or_run():
    report = lint_manifest(parse_manifest_text(
        '[manifest]\nname = "empty"\n'))
    assert any("at least one" in issue.message for issue in report.errors)


def test_missing_manifest_section_is_an_error():
    report = lint_manifest(parse_manifest_text(
        '[[grid]]\ndatasets = ["abt_buy"]\nmethods = ["dal"]\n'))
    assert any(issue.field == "manifest" for issue in report.errors)


def test_unknown_top_level_section_is_an_error():
    report = lint_manifest(parse_manifest_text(
        GOOD_MANIFEST + "\n[grids]\nx = 1\n"))
    assert any(issue.field == "grids" for issue in report.errors)


def test_json_manifest_is_an_unsupported_extension(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text('{"manifest": {"name": "j"}}', encoding="utf-8")
    with pytest.raises(ManifestError,
                       match="unsupported manifest extension '.json'"):
        load_manifest(path)


def test_toml_syntax_error_raises_manifest_error(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("[manifest\nname =", encoding="utf-8")
    with pytest.raises(ManifestError, match="invalid TOML"):
        load_manifest(path)


def test_missing_file_raises_manifest_error(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "absent.toml")


EXECUTION_MANIFEST = """
[manifest]
name = "resilient"

[settings]
scale = "tiny"

[execution]
max_attempts = 4
timeout = 120.0
keep_going = true

[[grid]]
datasets = ["amazon_google"]
methods = ["random"]
"""


def test_execution_section_lints_clean():
    report = lint_manifest(parse_manifest_text(EXECUTION_MANIFEST))
    assert report.ok
    execution = report.document.execution
    assert execution is not None
    assert execution.max_attempts == 4
    assert execution.timeout == 120.0
    assert execution.keep_going is True


@pytest.mark.parametrize("key", ["backoff_base", "backoff_factor",
                                 "backoff_max", "jitter"])
def test_backoff_keys_are_unknown_keys(key):
    """The backoff is a fixed schedule, so a backoff key would do nothing."""
    text = EXECUTION_MANIFEST.replace("max_attempts = 4",
                                      f"max_attempts = 4\n{key} = 0.5")
    report = lint_manifest(parse_manifest_text(text))
    issue = next(i for i in report.errors if i.field == f"execution.{key}")
    assert f"Unknown execution key '{key}'" in issue.message
    assert issue.line == 10


def test_execution_section_is_optional():
    report = lint_manifest(parse_manifest_text(GOOD_MANIFEST))
    assert report.ok
    assert report.document.execution is None


def test_execution_errors_reported_with_locations():
    text = """
[manifest]
name = "broken-execution"

[settings]
scale = "tiny"

[execution]
max_attempts = 0
jitter = 1.5
timeout = 0.0
backoff_factor = 0.5
keep_going = "yes"
bogus = 1

[[grid]]
datasets = ["amazon_google"]
methods = ["random"]
"""
    report = lint_manifest(parse_manifest_text(text))
    assert not report.ok
    fields = {issue.field for issue in report.errors}
    assert {"execution.max_attempts", "execution.jitter",
            "execution.timeout", "execution.backoff_factor",
            "execution.keep_going", "execution.bogus"} <= fields
    located = [issue for issue in report.errors
               if issue.field == "execution.max_attempts"]
    assert located and located[0].line is not None
