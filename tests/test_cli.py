"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out and "mcf" in out
        assert out.count("\n") >= 26

    def test_machine_scaled(self, capsys):
        assert main(["machine", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "2 MB" in out

    def test_profile(self, capsys):
        assert main(
            ["profile", "sixtrack", "--ways", "4,8", "--scale", "32",
             "--accesses", "8000"]
        ) == 0
        out = capsys.readouterr().out
        assert "sixtrack" in out

    def test_profile_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["profile", "doom3"])

    def test_partition_with_set(self, capsys):
        assert main(
            ["partition", "--set", "1", "--scale", "32", "--accesses", "8000"]
        ) == 0
        out = capsys.readouterr().out
        assert "Bank-aware assignment" in out
        assert "apsi" in out

    def test_partition_explicit_names_and_unrestricted(self, capsys):
        names = ["gzip", "eon", "crafty", "gap", "galgel", "perlbmk",
                 "sixtrack", "vpr"]
        assert main(
            ["partition", *names, "--scale", "32", "--accesses", "8000",
             "--unrestricted"]
        ) == 0
        out = capsys.readouterr().out
        assert "Unrestricted (UCP) assignment" in out

    def test_partition_needs_mix(self):
        with pytest.raises(SystemExit):
            main(["partition", "--scale", "32"])

    def test_partition_bad_set(self):
        with pytest.raises(SystemExit):
            main(["partition", "--set", "99"])

    def test_partition_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["partition"] + ["doom3"] * 8)

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--set", "2", "--scale", "32",
             "--duration", "300000", "--scheme", "equal-partitions"]
        ) == 0
        out = capsys.readouterr().out
        assert "equal-partitions" in out
        assert "overall miss rate" in out

    def test_simulate_prints_the_guard_log_of_a_sparse_profiler(self, capsys):
        # no fault is injected: eon's sampled profiler (core 1) sees too
        # few accesses in the first 25 k-cycle epoch to pass the floor
        assert main(
            ["simulate", "--set", "8", "--scale", "8", "--epoch", "25000",
             "--duration", "300000", "--scheme", "bank-bw"]
        ) == 0
        out = capsys.readouterr().out
        assert "guard log (2 events):" in out
        assert "fault    (bank-aware) core 1 (eon): 120 observations, " \
            "need 125" in out
        assert "fallback (bank-aware) holding initial partition" in out

    def test_compare(self, capsys):
        assert main(
            ["compare", "--set", "1", "--scale", "32", "--duration", "300000"]
        ) == 0
        out = capsys.readouterr().out
        assert "no-partitions" in out and "bank-aware" in out


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "1", "--seed", "-3"],
        ["simulate", "--set", "1", "--duration", "0"],
        ["profile", "gzip", "--accesses", "-1"],
        ["montecarlo", "--mixes", "0"],
        ["simulate", "--set", "1", "--duration", "nan"],
        ["simulate", "--set", "1", "--duration", "inf"],
        ["diff", "a.jsonl", "b.jsonl", "--rel-tol", "-1"],
        ["profile", "bzip2", "--scale", "32", "--accesses", "2000",
         "--ways", "8,x"],
    ])
    def test_non_positive_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "positive" in capsys.readouterr().err


class TestMonteCarloCommand:
    ARGS = ["montecarlo", "--scale", "32", "--mixes", "5",
            "--accesses", "6000", "--seed", "9"]

    def test_runs(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Bank-aware" in out

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        path = str(tmp_path / "mc.json")
        assert main(self.ARGS + ["--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint", path, "--resume"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[:8] == second.splitlines()[:8]

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="requires"):
            main(self.ARGS + ["--resume"])

    def test_corrupt_checkpoint_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text("{not json")
        rc = main(self.ARGS + ["--checkpoint", str(path), "--resume"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCurveCaching:
    def test_profile_save_then_partition_load(self, tmp_path, capsys):
        path = str(tmp_path / "curves.npz")
        names = ["gzip", "eon", "crafty", "gap", "galgel", "perlbmk",
                 "sixtrack", "vpr"]
        assert main(
            ["profile", *sorted(set(names)), "--scale", "32",
             "--accesses", "6000", "--save", path]
        ) == 0
        assert "saved" in capsys.readouterr().out
        assert main(
            ["partition", *names, "--curves", path, "--scale", "32"]
        ) == 0
        assert "Bank-aware assignment" in capsys.readouterr().out

    def test_partition_malformed_curve_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "curves.npz"
        path.write_text("not an archive\n")
        rc = main(["partition", "--set", "1", "--curves", str(path), "--scale", "32"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a valid curve file")
        assert len(err.strip().splitlines()) == 1

    def test_partition_missing_curves_rejected(self, tmp_path):
        from repro.profiling import save_curves

        path = str(tmp_path / "partial.npz")
        save_curves(path, {})
        with pytest.raises(SystemExit, match="lacks"):
            main(["partition", "--set", "1", "--curves", path, "--scale", "32"])


class TestDamagedInputs:
    @pytest.mark.parametrize("command", ["report", "stats", "diff"])
    def test_non_utf8_trace_is_clean_error(self, tmp_path, capsys, command):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\xff\n")
        operands = [str(path)] * (2 if command == "diff" else 1)
        assert main([command, *operands]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: not valid JSON")
        assert len(err.strip().splitlines()) == 1
