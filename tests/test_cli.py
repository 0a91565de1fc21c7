"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "amazon_google"])
        assert args.selector == "battleship"
        assert args.scale == "tiny"
        assert args.budget == 20
        assert args.alpha is None and args.beta is None  # battleship runs 0.5

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "not_a_benchmark"])

    def test_unknown_selector_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "amazon_google",
                                       "--selector", "oracle"])

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["2.0", "-0.1", "nan", "high"])
    def test_out_of_range_selector_weight_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["run", "--dataset", "amazon_google",
                                       flag, value])
        assert raised.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_selector_weight_checked_for_every_selector(self, flag, capsys):
        # dal ignores both weights, so an out-of-range value must fail
        # before any selector is built.
        with pytest.raises(SystemExit) as raised:
            main(["run", "--dataset", "amazon_google", "--selector", "dal",
                  flag, "2.0"])
        assert raised.value.code == 2
        assert f"argument {flag}: must be in [0, 1], got 2.0" in capsys.readouterr().err

    @pytest.mark.parametrize("selector", ["dal", "dial", "random"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_selector_weight_rejected_for_other_selectors(self, selector, flag,
                                                          capsys):
        # Only battleship reads the weights; elsewhere they would do nothing.
        with pytest.raises(SystemExit) as raised:
            main(["run", "--dataset", "amazon_google", "--selector", selector,
                  flag, "0.9"])
        assert raised.value.code == 2
        assert (f"{flag} only applies to --selector battleship"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("request_flags", [
        ["--figure", "7", "--table", "6"],
        ["--figure", "6"],
        ["--table", "3"],
    ], ids=["figure7-table6", "figure6", "table3"])
    def test_methods_rejected_without_a_learning_curve_output(
            self, request_flags, capsys):
        # Only Figure 5 and Tables 4/5 read --methods.
        with pytest.raises(SystemExit) as raised:
            main(["experiments", "--scale", "tiny", *request_flags,
                  "--methods", "dal", "--dry-run"])
        assert raised.value.code == 2
        assert "--methods only restricts Figure 5 and Tables 4/5" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1", "0.25"])
    def test_selector_weight_bounds_accepted(self, value):
        args = build_parser().parse_args(["run", "--dataset", "amazon_google",
                                          "--alpha", value, "--beta", value])
        assert args.alpha == args.beta == float(value)

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--epochs", "0"),
        ("run", "--budget", "0"),
        ("run", "--iterations", "-1"),
        ("run", "--seed-size", "0"),
        ("run", "--seed-size", "-3"),
        ("run", "--budget", "ten"),
        ("full", "--epochs", "0"),
        ("datasets", "--seed", "-1"),
        ("run", "--seed", "-1"),
        ("full", "--seed", "-1"),
        ("export", "--seed", "-1"),
    ])
    def test_out_of_range_count_rejected(self, command, flag, value, capsys):
        dataset = [] if command == "datasets" else ["--dataset", "amazon_google"]
        with pytest.raises(SystemExit) as raised:
            main([command, *dataset, flag, value])
        assert raised.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_count_bounds_accepted(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "amazon_google", "--iterations", "0",
             "--budget", "1", "--seed-size", "1", "--epochs", "1"])
        assert (args.iterations, args.budget, args.seed_size, args.epochs) == (0, 1, 1, 1)

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.jobs == 1
        assert args.store is None
        assert args.figure is None and args.table is None

    def test_experiments_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--figure", "2"])

    def test_experiments_zero_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["experiments", "--jobs", "0", "--datasets", "amazon_google",
                  "--methods", "random"])
        assert raised.value.code == 2
        assert "argument --jobs: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["experiments"], ["scenarios"], ["manifest", "build", "campaign.toml"],
    ], ids=["experiments", "scenarios", "manifest-build"])
    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--retries", "0"), ("--timeout", "0"),
        ("--timeout", "-1"), ("--chaos", "bogus"),
    ])
    def test_sweep_flags_rejected_by_the_parser(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as raised:
            main([*command, flag, value])
        assert raised.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.jobs == 1
        assert args.store is None
        assert args.scenarios is None
        assert not args.list_scenarios

    def test_scenarios_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            main(["scenarios", "--datasets", "amazon_google",
                  "--scenarios", "mystery", "--methods", "random"])


class TestCommands:
    def test_datasets_command_lists_all_benchmarks(self, capsys):
        exit_code = main(["datasets", "--scale", "tiny"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("walmart_amazon", "amazon_google", "dblp_scholar"):
            assert name in output

    def test_run_command_prints_curve(self, capsys):
        exit_code = main([
            "run", "--dataset", "amazon_google", "--selector", "dal",
            "--scale", "tiny", "--iterations", "1", "--budget", "12",
            "--epochs", "3", "--seed", "3",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "final F1" in output
        assert "amazon_google" in output

    def test_run_command_battleship_without_ws(self, capsys):
        exit_code = main([
            "run", "--dataset", "amazon_google", "--selector", "battleship",
            "--scale", "tiny", "--iterations", "1", "--budget", "12",
            "--epochs", "3", "--no-weak-supervision", "--seed", "4",
        ])
        assert exit_code == 0
        assert "battleship" in capsys.readouterr().out

    def test_full_command(self, capsys):
        exit_code = main(["full", "--dataset", "amazon_google", "--scale", "tiny",
                          "--epochs", "3", "--seed", "5"])
        assert exit_code == 0
        assert "Full D" in capsys.readouterr().out

    def test_experiments_command_resumes_from_store(self, tmp_path, capsys):
        argv = ["experiments", "--scale", "tiny", "--jobs", "1",
                "--store", str(tmp_path / "artifacts"), "--table", "5",
                "--datasets", "amazon_google", "--methods", "random"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Table 5" in first
        assert "1 runs executed, 0 loaded from store" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 runs executed, 1 loaded from store" in second
        # The aggregated table is identical whether computed or resumed.
        assert (first[:first.index("\nengine:")]
                == second[:second.index("\nengine:")])

    def test_experiments_dry_run_plans_without_executing(self, tmp_path,
                                                         capsys):
        store = tmp_path / "artifacts"
        argv = ["experiments", "--scale", "tiny", "--dry-run",
                "--store", str(store), "--table", "5",
                "--datasets", "amazon_google", "--methods", "random"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "dry-run: 1 runs would execute" in out
        # No figures/tables are rendered and nothing is persisted.
        assert "Table 5" not in out
        assert not (store.exists() and list(store.glob("*.json")))

    def test_chaos_comes_only_from_the_flag(self, monkeypatch, capsys):
        # --chaos is the one way to inject faults; an environment variable
        # of the same shape must not switch chaos on behind the flag's back.
        monkeypatch.setenv("REPRO_CHAOS", "permanent@0")
        assert main(["experiments", "--scale", "tiny", "--jobs", "1",
                     "--table", "5", "--datasets", "amazon_google",
                     "--methods", "random"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(
            "engine: 1 runs executed, 0 loaded from store")

    def test_scenarios_list_command(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("perfect", "noisy-0.1", "abstaining", "very-dirty",
                     "positive-starved"):
            assert name in output

    def test_scenarios_command_resumes_from_store(self, tmp_path, capsys):
        argv = ["scenarios", "--scale", "tiny", "--jobs", "1",
                "--store", str(tmp_path / "artifacts"),
                "--datasets", "amazon_google",
                "--scenarios", "perfect,noisy-0.1", "--methods", "random"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Robustness" in first
        assert "2 runs executed, 0 loaded from store" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 runs executed, 2 loaded from store" in second
        # The aggregated tables are identical whether computed or resumed.
        assert (first[:first.index("\nengine:")]
                == second[:second.index("\nengine:")])

    def test_export_command(self, tmp_path, capsys):
        exit_code = main(["export", "--dataset", "wdc_cameras", "--scale", "tiny",
                          "--output", str(tmp_path / "out")])
        assert exit_code == 0
        assert (tmp_path / "out" / "tableA.csv").exists()
        assert (tmp_path / "out" / "pairs.csv").exists()
