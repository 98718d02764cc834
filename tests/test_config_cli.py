"""Configuration and CLI tests."""

import pytest

from repro.cli import _parse_sizes, build_parser, main
from repro.config import AnalysisConfig, BayesPCConfig, BayesWCConfig, DEFAULT_CONFIG


class TestConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.degree == 1
        assert config.objective == "sum"
        assert config.bayeswc.noise == "gumbel"
        assert config.bayeswc.gamma0 == 5.0  # Appendix B.1
        assert config.bayespc.gamma0 is None  # empirical Bayes
        assert config.bayespc.theta0 == 1.0

    def test_with_override(self):
        config = DEFAULT_CONFIG.with_(degree=2, num_posterior_samples=7)
        assert config.degree == 2
        assert config.num_posterior_samples == 7
        assert DEFAULT_CONFIG.degree == 1  # frozen original unchanged

    def test_frozen(self):
        with pytest.raises(Exception):
            AnalysisConfig().degree = 3

    def test_benchmark_spec_config_theta0(self):
        from repro.suite import get_benchmark

        spec = get_benchmark("MapAppend")  # theta0=1.25, theta0_hybrid=1.0
        dd = spec.config(DEFAULT_CONFIG, hybrid=False)
        hy = spec.config(DEFAULT_CONFIG, hybrid=True)
        assert dd.bayespc.theta0 == 1.25
        assert hy.bayespc.theta0 == 1.0
        assert dd.degree == spec.degree


class TestCLI:
    def test_parse_sizes(self):
        assert _parse_sizes("5") == [5]
        assert _parse_sizes("1:4") == [1, 2, 3, 4]
        assert _parse_sizes("2:10:4") == [2, 6, 10]

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "prog.ml", "--entry", "f"])
        assert args.command == "analyze" and args.method == "opt"

    def test_static_command(self, tmp_path):
        src = tmp_path / "p.ml"
        src.write_text(
            "let rec len xs = match xs with [] -> 0 | h :: t -> "
            "let _ = Raml.tick 1.0 in 1 + len t\n"
        )
        assert main(["static", str(src), "--entry", "len"]) == 0

    def test_static_command_failure_exit_code(self, tmp_path):
        src = tmp_path / "p.ml"
        src.write_text("let f a b = if complex_leq a b then 1 else 0\n")
        assert main(["static", str(src), "--entry", "f"]) == 1

    def test_analyze_command(self, tmp_path, capsys):
        src = tmp_path / "p.ml"
        src.write_text(
            "let rec len xs = match xs with [] -> 0 | h :: t -> "
            "let _ = Raml.tick 1.0 in 1 + len t\n"
            "let len2 xs = Raml.stat (len xs)\n"
        )
        code = main(
            [
                "analyze",
                str(src),
                "--entry",
                "len2",
                "--method",
                "opt",
                "--sizes",
                "2:20:2",
                "--samples",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bound[0]" in out

    def test_error_handling(self, tmp_path, capsys):
        src = tmp_path / "bad.ml"
        src.write_text("let f = ")
        assert main(["static", str(src), "--entry", "f"]) == 2
        assert "error" in capsys.readouterr().err


#: ``serve``'s execution-budget flags, one per ExecutionBudget field
BUDGET_FLAGS = (
    "--budget-max-source-chars",
    "--budget-max-tokens",
    "--budget-max-nesting-depth",
    "--budget-eval-steps",
    "--budget-eval-call-depth",
    "--budget-eval-value-size",
    "--budget-lp-variables",
    "--budget-lp-constraints",
)


class TestServeBudgetFlags:
    def _served_budget(self, monkeypatch, tmp_path, argv):
        import repro.server.app as app

        seen = []
        monkeypatch.setattr(app, "serve", lambda config: seen.append(config) or 0)
        assert main(["serve", "--runs-dir", str(tmp_path), *argv]) == 0
        (config,) = seen
        return config.budget

    def test_defaults_are_the_untrusted_profile(self, monkeypatch, tmp_path):
        from repro.config import ExecutionBudget

        budget = self._served_budget(monkeypatch, tmp_path, [])
        assert budget == ExecutionBudget.untrusted()

    @pytest.mark.parametrize("flag", BUDGET_FLAGS)
    def test_each_flag_overrides_exactly_its_field(self, monkeypatch, tmp_path, flag):
        import dataclasses

        from repro.config import ExecutionBudget

        budget = self._served_budget(monkeypatch, tmp_path, [flag, "7"])
        name = flag[len("--budget-"):].replace("-", "_")
        assert budget == dataclasses.replace(ExecutionBudget.untrusted(), **{name: 7})

    def test_help_lists_the_eight_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        listed = [
            word
            for word in capsys.readouterr().out.split()
            if word.startswith("--budget-")
        ]
        assert listed == list(BUDGET_FLAGS)
