"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_config, build_parser, main
from repro.kernels import ConvolutionKernel
from repro.obs import load_trace


class TestParseConfig:
    def test_full_parse(self):
        space = ConvolutionKernel().space
        values = _parse_config(
            "wg_x=32,wg_y=4,ppt_x=2,ppt_y=2,use_image=1,use_local=0,"
            "pad=1,interleaved=1,unroll=1",
            space,
        )
        assert values["wg_x"] == 32 and values["unroll"] == 1

    def test_unknown_name(self):
        space = ConvolutionKernel().space
        with pytest.raises(SystemExit, match="unknown parameter"):
            _parse_config("bogus=1", space)

    def test_missing_names(self):
        space = ConvolutionKernel().space
        with pytest.raises(SystemExit, match="missing parameters"):
            _parse_config("wg_x=32", space)

    def test_non_integer(self):
        space = ConvolutionKernel().space
        with pytest.raises(SystemExit, match="non-integer"):
            _parse_config("wg_x=abc", space)

    def test_malformed_item(self):
        space = ConvolutionKernel().space
        with pytest.raises(SystemExit, match="name=value"):
            _parse_config("wg_x", space)


class TestCommands:
    def test_devices_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Nvidia K40" in out and "AMD HD 7970" in out

    def test_benchmarks_lists_sizes(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "131072" in out and "2359296" in out

    def test_tune_small_run(self, capsys):
        rc = main(
            ["tune", "-k", "convolution", "-d", "intel", "-n", "300",
             "-m", "30", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        if rc == 0:
            assert "best configuration" in out
        else:
            assert "FAILED" in out

    def test_tune_iterative(self, capsys):
        rc = main(
            ["tune", "-k", "convolution", "-d", "nvidia", "--iterative",
             "--budget", "200", "--rounds", "2", "--seed", "2"]
        )
        assert rc == 0
        assert "best configuration" in capsys.readouterr().out

    def test_tune_pin_needs_strategy(self):
        # A pin only constrains a search: without --strategy the CLI must
        # refuse, not run the ANN tuner unpinned.
        with pytest.raises(SystemExit, match="--strategy"):
            main(["tune", "-k", "convolution", "-d", "nvidia", "-n", "300",
                  "-m", "30", "--pin", "use_local=1"])

    def test_tune_iterative_honours_fit_mode(self, tmp_path, capsys):
        path = tmp_path / "iterative.jsonl"
        rc = main(
            ["tune", "-k", "convolution", "-d", "nvidia", "--iterative",
             "--budget", "200", "--rounds", "2", "--seed", "2",
             "--fit-mode", "classic", "--trace", str(path)]
        )
        assert rc == 0
        fits = [r for r in load_trace(path)
                if r.get("type") == "span" and r["name"] == "ensemble.fit"]
        assert fits
        assert {r["attrs"]["mode"] for r in fits} == {"classic"}

    def test_predict_roundtrip(self, capsys):
        rc = main(
            ["predict", "-k", "convolution", "-d", "nvidia", "-n", "300",
             "--config",
             "wg_x=32,wg_y=4,ppt_x=2,ppt_y=2,use_image=1,use_local=0,"
             "pad=1,interleaved=1,unroll=1",
             "--seed", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted time" in out and "actual" in out

    def test_predict_invalid_config_reported(self, capsys):
        rc = main(
            ["predict", "-k", "convolution", "-d", "amd", "-n", "300",
             "--config",
             "wg_x=128,wg_y=128,ppt_x=1,ppt_y=1,use_image=0,use_local=0,"
             "pad=0,interleaved=0,unroll=0",
             "--seed", "0"]
        )
        assert rc == 0
        assert "INVALID" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "-k", "bogus", "-d", "intel"])


class TestBadInputExitsWithOneLine:
    """``repro watch`` and ``repro search`` build a TuneRequest like
    ``repro tune``, so a bad value ends in ``repro <command>: <reason>``,
    never a traceback."""

    WATCH = ["watch", "-k", "convolution", "-d", "nvidia", "--steps", "1"]
    SEARCH = ["search", "-k", "convolution", "-d", "nvidia", "--budget", "8"]

    @pytest.mark.parametrize("argv, prefix", [
        (WATCH + ["--faults", "bogus"], "repro watch: unknown fault profile"),
        (WATCH + ["--drift", "bogus"], "repro watch: unknown drift"),
        (WATCH + ["-d", "bogusdev"], "repro watch: unknown device"),
        (WATCH + ["-n", "5"], "repro watch: n_train"),
        (SEARCH + ["--faults", "bogus"], "repro search: unknown fault profile"),
        (SEARCH + ["--budget", "0"], "repro search: budget"),
    ])
    def test_bad_value_exits_with_command_prefix(self, argv, prefix):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(prefix)


class TestServeArguments:
    """``repro serve`` hands every argument after ``serve`` to the
    daemon's own parser."""

    def test_help_is_the_daemons(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--oracle-store" in capsys.readouterr().out

    def test_arguments_reach_the_daemon(self, monkeypatch):
        from repro.serve import server

        got = []
        monkeypatch.setattr(server, "main", lambda argv: got.append(argv) or 0)
        assert main(["serve", "--port", "0", "--stdio"]) == 0
        assert got == [["--port", "0", "--stdio"]]

    @pytest.mark.parametrize("argv", [
        ["serve", "--bogus"],
        ["tune", "-k", "convolution", "-d", "nvidia", "--bogus"],
    ])
    def test_unknown_argument_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_watch_defaults_are_the_daemons():
    """Unset ``repro watch`` flags take the daemon's WATCH_DEFAULTS."""
    from repro.cli import _watch_request
    from repro.serve.campaigns import watch_request
    from repro.serve.protocol import validate_watch

    argv = ["watch", "-k", "convolution", "-d", "nvidia"]
    daemon = watch_request(validate_watch(
        {"kernel": "convolution", "device": "nvidia"}
    ))
    assert _watch_request(build_parser().parse_args(argv)) == daemon


class TestExperimentsSubcommand:
    def test_experiments_only_tables(self, capsys):
        rc = main(["experiments", "--only", "tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "131072" in out

    def test_experiments_takes_run_alls_flags(self, capsys):
        rc = main(["experiments", "--only", "tables", "--seed", "3"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiments_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        rc = main(["experiments", "--only", "tables", "--out", str(out_path)])
        assert rc == 0
        assert "Table 1" in out_path.read_text()


class TestBenchReportSubcommand:
    def test_renders_all_artifacts_as_one_table(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_alpha.json").write_text(json.dumps([
            {"git_rev": "abc1234", "speedup": 8.13, "n_sweep": 6000},
            {"git_rev": "def5678", "speedup": 9.0, "n_sweep": 6000},
        ]))
        (tmp_path / "BENCH_beta.json").write_text(json.dumps([
            {"git_rev": "abc1234", "recovered_gap": 1.0, "alarms": 1},
        ]))
        rc = main(["bench-report", "--dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert "speedup 8.13x" in out and "speedup 9x" in out
        assert "recovered_gap 1" in out
        assert "abc1234" in out and "def5678" in out
        assert "n_sweep=6000" in out

    def test_empty_dir_fails_with_message(self, tmp_path, capsys):
        rc = main(["bench-report", "--dir", str(tmp_path)])
        assert rc == 1
        assert "no BENCH_" in capsys.readouterr().out

    def test_unreadable_artifact_reported_not_fatal(self, tmp_path, capsys):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_ok.json").write_text('[{"git_rev": "a", "speedup": 2.0}]')
        rc = main(["bench-report", "--dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unreadable" in out and "speedup 2x" in out
