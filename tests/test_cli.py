"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("tables", "figures", "all", "calibrate", "simulate", "logs"):
            args = parser.parse_args(
                [cmd] + (["abe"] if cmd == "simulate" else [])
                + (["/tmp/x"] if cmd == "logs" else [])
            )
            assert args.command == cmd

    def test_simulate_preset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "nope"])


class TestCommands:
    def test_simulate_abe(self, capsys):
        code = main(
            ["simulate", "abe", "--replications", "2", "--hours", "1000", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cfs_availability" in out
        assert "96 TB usable" in out

    def test_simulate_spare_preset(self, capsys):
        code = main(
            ["simulate", "petascale-spare", "--replications", "1", "--hours", "500"]
        )
        assert code == 0
        assert "petascale+spare" in capsys.readouterr().out

    def test_logs_command(self, tmp_path, capsys):
        code = main(["logs", str(tmp_path / "out"), "--seed", "2013"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAN-log lines" in out
        assert (tmp_path / "out" / "san.log").exists()
        assert (tmp_path / "out" / "compute.log").exists()

    def test_tables_command(self, capsys):
        code = main(["tables", "--seed", "2013"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5"):
            assert marker in out


class TestResilienceFlags:
    def test_checkpoint_and_resume_are_aliases(self):
        parser = build_parser()
        a = parser.parse_args(["tables", "--checkpoint-dir", "/tmp/ck"])
        b = parser.parse_args(["tables", "--resume", "/tmp/ck"])
        assert a.checkpoint_dir == b.checkpoint_dir == "/tmp/ck"
        assert parser.parse_args(["all"]).checkpoint_dir is None
        assert (
            parser.parse_args(["calibrate", "--resume", "x"]).checkpoint_dir == "x"
        )

    def test_on_error_choices(self):
        parser = build_parser()
        assert parser.parse_args(["tables"]).on_error == "raise"
        assert (
            parser.parse_args(["tables", "--on-error", "collect"]).on_error
            == "collect"
        )
        with pytest.raises(SystemExit):
            parser.parse_args(["tables", "--on-error", "explode"])

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "tables", boom)
        assert main(["tables"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_tables_checkpoint_resume_smoke(self, tmp_path, capsys):
        """A checkpointed tables run journals its cells; the rerun loads
        them (same output) instead of recomputing."""
        ckpt = tmp_path / "ck"
        assert main(["tables", "--checkpoint-dir", str(ckpt)]) == 0
        first = capsys.readouterr().out
        journaled = list(ckpt.glob("*.pkl"))
        assert len(journaled) == 5  # one entry per table cell
        assert main(["tables", "--resume", str(ckpt)]) == 0
        assert capsys.readouterr().out == first


class TestFriendlyValidation:
    """Bad flag values die with exit 2 and a one-line message naming them."""

    def _expect_exit2(self, argv, capsys, needle):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert needle in capsys.readouterr().err

    def test_rel_ci_out_of_range(self, capsys):
        self._expect_exit2(
            ["simulate", "abe", "--rel-ci", "1.5"], capsys, "must be in (0, 1), got 1.5"
        )
        self._expect_exit2(
            ["rare", "--rel-ci", "0"], capsys, "must be in (0, 1), got 0.0"
        )

    def test_splitting_not_increasing(self, capsys):
        self._expect_exit2(
            ["rare", "--splitting", "3,2,5"],
            capsys,
            "thresholds must be strictly increasing, got '3,2,5'",
        )

    def test_splitting_not_numbers(self, capsys):
        self._expect_exit2(
            ["rare", "--splitting", "one,two"],
            capsys,
            "thresholds must be comma-separated numbers, got 'one,two'",
        )

    def test_splitting_flag_forms(self):
        parser = build_parser()
        assert parser.parse_args(["rare"]).splitting is False
        assert parser.parse_args(["rare", "--splitting"]).splitting is True
        assert parser.parse_args(["rare", "--splitting", "1,2,3"]).splitting == (
            1.0,
            2.0,
            3.0,
        )
        # A ladder that starts below zero, space-separated, parses as the
        # '=' form does; a following option is not taken for a ladder.
        for ladder in ("-0.5,1,7", "-.5,1,7", "-1"):
            spaced = parser.parse_args(["rare", "--splitting", ladder])
            joined = parser.parse_args(["rare", f"--splitting={ladder}"])
            assert spaced.splitting == joined.splitting
        assert parser.parse_args(["rare", "--splitting", "-0.5,1,7"]).splitting == (
            -0.5,
            1.0,
            7.0,
        )
        args = parser.parse_args(["rare", "--splitting", "--seed", "3"])
        assert args.splitting is True and args.seed == 3

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["tables", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
            (["all", "--seed", "-3"], "argument --seed: must be >= 0, got -3"),
            (["logs", "out", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
            (
                ["calibrate", "--hours", "-1"],
                "argument --hours: must be finite and positive, got -1",
            ),
            (
                ["simulate", "abe", "--hours", "nan"],
                "argument --hours: must be finite and positive, got nan",
            ),
            (
                ["rare", "--hours", "inf"],
                "argument --hours: must be finite and positive, got inf",
            ),
            (
                ["simulate", "abe", "--replications", "0"],
                "argument --replications: must be >= 1, got 0",
            ),
            (["rare", "--roots", "0"], "argument --roots: must be >= 1, got 0"),
            (
                ["rare", "--splitting", "nan"],
                "argument --splitting: thresholds must be finite, got nan in 'nan'",
            ),
            (
                ["rare", "--splitting=-inf"],
                "argument --splitting: thresholds must be finite, got -inf in '-inf'",
            ),
            (
                ["rare", "--splitting", "1,inf"],
                "argument --splitting: thresholds must be finite, got inf in '1,inf'",
            ),
        ],
    )
    def test_rejected_at_parse_time(self, argv, needle, monkeypatch, capsys):
        from repro import cli

        ran = []
        monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: ran.append(1) or 0)
        self._expect_exit2(argv, capsys, needle)
        assert not ran

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (
                ["rare", "--disks", "10", "--tolerance", "20"],
                "fault tolerance must be in [1, n_disks), got 20 of 10",
            ),
            (
                ["rare", "--fail-rate", "nan"],
                "disk_failure_rate must be finite and positive, got nan",
            ),
            (
                ["rare", "--disks", "4", "--tolerance", "2", "--splitting", "1,5"],
                "--splitting thresholds must not exceed the loss level 3 "
                "(tolerance + 1), got 5",
            ),
        ],
    )
    def test_repro_error_is_one_stderr_line(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: {needle}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rates, named",
        [
            (["--fail-rate", "1e308"], "1e+308 and disk_repair_rate 0.02"),
            (["--repair-rate", "1e308"], "1e-05 and disk_repair_rate 1e+308"),
            (
                ["--fail-rate", "1e-300", "--repair-rate", "1e300"],
                "1e-300 and disk_repair_rate 1e+300",
            ),
            (["--fail-rate", "1e-320"], "1e-320 and disk_repair_rate 0.02"),
        ],
    )
    def test_overflowing_rare_rates_exit_2(self, rates, named, monkeypatch, capsys):
        """Finite positive rates whose splitting odds overflow end in one
        line naming both rates, before any root runs."""
        import repro.experiments

        def refuse(*args, **kwargs):
            raise AssertionError("a root ran before the rate check")

        monkeypatch.setattr(repro.experiments, "splitting_probability", refuse)
        monkeypatch.setattr(repro.experiments, "brute_force_probability", refuse)
        for extra in ([], ["--splitting"]):
            assert main(["rare", *rates, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"repro: disk_failure_rate {named} give no finite splitting "
                "odds at 1 of 480 disks failed\n"
            )
            assert captured.out == ""

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--fail-rate", "1e300"], "t=8760 at rate Λ=4.8e+302"),
            (
                ["--disks", "2", "--tolerance", "1", "--hours", "1e308"],
                "t=1e+308 at rate Λ=0.02001",
            ),
        ],
        ids=["fail-rate-1e300", "hours-1e308"],
    )
    def test_unfinishable_closed_form_exits_2(self, args, named, monkeypatch, capsys):
        """A closed form whose uniformization series could not finish
        ends in one line naming Λ, t and the term count, before any root
        runs."""
        import repro.experiments

        def refuse(*a, **kw):
            raise AssertionError("a root ran before the closed form")

        monkeypatch.setattr(repro.experiments, "splitting_probability", refuse)
        monkeypatch.setattr(repro.experiments, "brute_force_probability", refuse)
        for extra in ([], ["--splitting"]):
            assert main(["rare", *args, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"repro: uniformization over {named} ")
            assert captured.err.endswith(
                "Poisson terms, more than the 10,000,000 allowed\n"
            )
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["logs", "DIR"], "output_dir"),
            (["tables", "--jobs", "2", "--checkpoint-dir", "DIR"], "--checkpoint-dir"),
            (["all", "--jobs", "2", "--resume", "DIR"], "--checkpoint-dir"),
            (["calibrate", "--checkpoint-dir", "DIR"], "--checkpoint-dir"),
        ],
    )
    def test_unusable_directory_exits_2(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        """A directory that cannot be created ends in one line naming the
        argument, the path and the OS reason, before any log synthesis
        or cell."""
        import repro.loggen
        import repro.loggen.abe
        from repro.experiments import SweepCell

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the directory check")

        monkeypatch.setattr(repro.loggen, "generate_abe_logs", refuse)
        monkeypatch.setattr(repro.loggen.abe, "generate_abe_logs", refuse)
        monkeypatch.setattr(SweepCell, "execute", refuse)
        (tmp_path / "file").write_text("")
        bad = str(tmp_path / "file" / "out")
        assert main([bad if a == "DIR" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: {flag} {bad!r}: cannot create directory: Not a directory\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["san.log", "compute.log"])
    def test_unwritable_log_file_exits_2(self, name, tmp_path, capsys):
        """A log file that cannot be written ends in one line naming the
        file and the OS reason."""
        (tmp_path / name).mkdir()
        assert main(["logs", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        path = str(tmp_path / name)
        assert captured.err == (
            f"repro: cannot write log file {path!r}: Is a directory\n"
        )
        assert captured.out == ""

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise RuntimeError("a bug")

        monkeypatch.setitem(cli._COMMANDS, "tables", boom)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["tables"])

    def test_no_traceback_end_to_end(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        (tmp_path / "file").write_text("")
        for argv in (
            ["tables", "--seed", "-1"],
            ["rare", "--fail-rate", "nan"],
            ["logs", str(tmp_path / "file" / "out")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert proc.stderr.strip().splitlines()[-1].endswith(
                ("got -1", "got nan", "Not a directory")
            )

    def test_bad_chaos_env_exits_2(self, monkeypatch, capsys):
        from repro import cli

        ran = []
        monkeypatch.setitem(cli._COMMANDS, "tables", lambda args: ran.append(1) or 0)
        monkeypatch.setenv("REPRO_CHAOS", "{not json")
        assert main(["tables"]) == 2
        err = capsys.readouterr().err
        assert "invalid REPRO_CHAOS value" in err
        assert "'{not json'" in err
        assert not ran  # validation short-circuits before dispatch

    def test_good_chaos_env_still_dispatches(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setitem(cli._COMMANDS, "tables", lambda args: 0)
        monkeypatch.setenv("REPRO_CHAOS", '{"simulate": 0.0}')
        assert main(["tables"]) == 0


class TestSanitizerCommands:
    def test_lint_single_model(self, capsys):
        assert main(["lint", "abe"]) == 0
        out = capsys.readouterr().out
        assert "abe" in out and "clean" in out

    def test_lint_deep_tail_tier(self, capsys):
        assert main(["lint", "tier"]) == 0
        assert capsys.readouterr().out.split() == ["tier", "clean"]

    def test_lint_unknown_model(self, capsys):
        assert main(["lint", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'warp-drive'" in err

    def test_simulate_sanitize(self, capsys):
        code = main(
            ["simulate", "abe", "--hours", "1000", "--seed", "5", "--sanitize"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "0 violation(s)" in out
