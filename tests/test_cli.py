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
