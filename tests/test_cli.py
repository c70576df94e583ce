"""CLI behaviour: input validation messages and happy-path smoke runs.

Validation failures must come back as one-line messages with exit code 2 —
never tracebacks — because the paper positions the executable as the
primary interface (App. B).
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestValidation:
    @pytest.mark.parametrize("cmd", ["lfr", "dem"])
    def test_even_distance_rejected(self, capsys, cmd):
        args = ["--distances", "4"] if cmd == "lfr" else ["--distance", "4"]
        code, out = run_cli(capsys, cmd, *args)
        assert code == 2
        assert "odd" in out and "4" in out
        assert "Traceback" not in out

    @pytest.mark.parametrize("cmd", ["lfr", "dem"])
    def test_too_small_distance_rejected(self, capsys, cmd):
        args = ["--distances", "1"] if cmd == "lfr" else ["--distance", "1"]
        code, out = run_cli(capsys, cmd, *args)
        assert code == 2
        assert "at least 3" in out

    def test_negative_rate_rejected_lfr(self, capsys):
        code, out = run_cli(capsys, "lfr", "--distances", "3", "--rates", "-0.001")
        assert code == 2
        assert "non-negative" in out and "-0.001" in out

    def test_rate_above_one_rejected_lfr(self, capsys):
        code, out = run_cli(capsys, "lfr", "--distances", "3", "--rates", "1.5")
        assert code == 2
        assert "[0, 1]" in out

    def test_negative_rate_rejected_dem(self, capsys):
        code, out = run_cli(capsys, "dem", "--distance", "3", "--rate", "-0.5")
        assert code == 2
        assert "non-negative" in out
        assert "--rate " in out  # names dem's actual flag, not lfr's --rates

    def test_negative_scale_rejected_lfr(self, capsys):
        code, out = run_cli(
            capsys, "lfr", "--distances", "3", "--noise", "near_term", "--scales", "-1"
        )
        assert code == 2
        assert "scales" in out

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["--scales", "nan"], "--scales must be finite and non-negative (got nan)"),
            (["--scales", "inf"], "--scales must be finite and non-negative (got inf)"),
            (["--rates", "nan"], "--rates must be probabilities in [0, 1] (got nan)"),
        ],
        ids=["scales-nan", "scales-inf", "rates-nan"],
    )
    def test_non_finite_rates_and_scales_name_the_flag(self, capsys, args, expected):
        """These used to reach NoiseParams or the decoding graph and fail
        there, naming a weight, ``t2_us`` or ``p1`` instead of the flag."""
        code, out = run_cli(capsys, "lfr", "--distances", "3", *args)
        assert code == 2
        assert out == expected + "\n"

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--op", "Idle"],
            ["sample", "--op", "Idle", "--shots", "10"],
            ["lfr", "--distances", "3", "--rates", "1e-3", "--shots", "10"],
            ["sweep", "--op", "Idle", "--distances", "3"],
            ["dem", "--distance", "3", "--rate", "1e-3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rounds_below_one_is_one_line_error(self, capsys, argv, rounds):
        code, out = run_cli(capsys, *argv, "--rounds", rounds)
        assert code == 2
        assert out == f"rounds must be at least 1 (got {rounds})\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--op", "Idle", "--simulate"],
            ["sample", "--op", "Idle", "--shots", "10"],
            ["lfr", "--distances", "3", "--rates", "1e-3", "--shots", "10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_one_line_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == "--seed must be a non-negative integer (got -1)\n"

    def test_negative_max_labels_is_one_line_error(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--op", "MeasureZ", "--dx", "2", "--dz", "2",
            "--shots", "5", "--outcomes", "--max-labels", "-3",
        )
        assert code == 2
        assert out == "--max-labels must be at least 0 (got -3)\n"

    @pytest.mark.parametrize("cmd", ["compile", "sample"])
    def test_distance_below_two_is_one_line_error(self, capsys, cmd):
        code, out = run_cli(capsys, cmd, "--op", "Idle", "--dx", "1")
        assert code == 2
        assert out == "code distances below 2 are not supported\n"

    @pytest.mark.parametrize("flag, value", [("--dx", "0"), ("--dz", "1")])
    def test_render_distance_below_two_is_one_line_error(self, capsys, flag, value):
        code, out = run_cli(capsys, "render", flag, value)
        assert code == 2
        assert out == "code distances below 2 are not supported\n"

    def test_render_unknown_arrangement_is_one_line_error(self, capsys):
        code, out = run_cli(capsys, "render", "--arrangement", "bogus")
        assert code == 2
        assert out == (
            "unknown arrangement 'bogus'; "
            "choose from ['standard', 'rotated', 'flipped', 'rotated_flipped']\n"
        )

    def test_render_arrangement_is_case_insensitive(self, capsys):
        code, out = run_cli(capsys, "render", "--arrangement", "Rotated_Flipped")
        assert code == 0
        assert out.startswith("# ROTATED_FLIPPED arrangement")

    @pytest.mark.parametrize("cmd", ["lfr", "dem"])
    def test_unknown_preset_is_one_line_error(self, capsys, cmd):
        args = (
            ["lfr", "--distances", "3", "--noise", "nope", "--shots", "10"]
            if cmd == "lfr"
            else ["dem", "--distance", "3", "--noise", "nope"]
        )
        code, out = run_cli(capsys, *args)
        assert code == 2
        assert "unknown noise preset" in out
        assert "Traceback" not in out

    SMALL = {
        "lfr": ["lfr", "--distances", "3", "--rates", "1e-3", "--shots", "20", "--rounds", "1"],
        "sweep": ["sweep", "--op", "Idle", "--distances", "3"],
        "dem": ["dem", "--distance", "3", "--rounds", "1", "--rate", "1e-3"],
    }

    @pytest.mark.parametrize("child", ["", "sub"], ids=["file", "below-file"])
    @pytest.mark.parametrize("cmd", ["lfr", "sweep"])
    def test_checkpoint_that_is_not_a_directory_is_one_line_error(
        self, capsys, tmp_path, cmd, child
    ):
        (tmp_path / "F").write_text("")
        ck = str(tmp_path / "F" / child) if child else str(tmp_path / "F")
        code, out = run_cli(capsys, *self.SMALL[cmd], "--checkpoint", ck)
        assert code == 2
        assert out.startswith(f"checkpoint {ck} is not a usable directory: ")
        assert out.count("\n") == 1

    def test_checkpoint_whose_manifest_is_a_directory_is_one_line_error(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        (ck / "manifest.jsonl").mkdir(parents=True)
        code, out = run_cli(capsys, *self.SMALL["sweep"], "--checkpoint", str(ck))
        assert code == 2
        assert out.startswith(f"checkpoint {ck} is not a usable directory: ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["lfr", "sweep"])
    def test_result_entry_that_is_a_directory_is_one_line_error(self, capsys, tmp_path, cmd):
        """Resuming recomputes the unreadable cell; recording it must not crash."""
        ck = tmp_path / "ck"
        assert run_cli(capsys, *self.SMALL[cmd], "--checkpoint", str(ck))[0] == 0
        entry = sorted((ck / "results").iterdir())[0]
        entry.unlink()
        entry.mkdir()
        code, out = run_cli(capsys, *self.SMALL[cmd], "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert out.startswith(f"checkpoint {ck} cannot record cell {entry.stem}: ")
        assert out.count("\n") == 1
        assert not [p.name for p in (ck / "results").iterdir() if p.name.endswith(".tmp")]

    def test_checkpoint_meta_that_is_not_an_object_is_one_line_error(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "meta.json").write_text("[1]")
        code, out = run_cli(capsys, *self.SMALL["sweep"], "--checkpoint", str(ck))
        assert code == 2
        assert out == (
            f"checkpoint {ck} has an unreadable meta.json; use a fresh --checkpoint directory\n"
        )

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("cmd", ["lfr", "dem"])
    def test_unwritable_json_path_is_rejected_before_running(self, capsys, tmp_path, cmd, target):
        path = str(tmp_path) if target == "directory" else str(tmp_path / "missing" / "x.json")
        code, out = run_cli(capsys, *self.SMALL[cmd], "--json", path)
        assert code == 2
        assert out.startswith(f"--json {path}") and out.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["lfr", "dem"])
    def test_failed_json_write_is_one_line_error(self, capsys, tmp_path, cmd):
        # Passes the pre-run check, then fails to open: too long a file name.
        path = str(tmp_path / ("x" * 300 + ".json"))
        code, out = run_cli(capsys, *self.SMALL[cmd], "--json", path)
        assert code == 2
        assert out.splitlines()[-1].startswith(f"--json {path}: ")
        assert "Traceback" not in out and "# wrote" not in out


class TestHappyPaths:
    def test_dem_summary(self, capsys):
        code, out = run_cli(
            capsys, "dem", "--distance", "3", "--rounds", "2", "--rate", "1e-3"
        )
        assert code == 0
        assert "detector error model" in out
        assert "mechanisms:" in out
        assert "sites by kind:" in out

    def test_dem_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "dem.json"
        code, out = run_cli(
            capsys,
            "dem", "--distance", "3", "--rounds", "1", "--rate", "2e-3",
            "--json", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["n_mechanisms"] == len(payload["mechanisms"])
        assert all(0 < m["probability"] < 1 for m in payload["mechanisms"])

    def test_dem_stats_name_the_path_and_kernel(self, capsys, tmp_path):
        path = tmp_path / "dem.json"
        code, out = run_cli(
            capsys,
            "dem", "--distance", "3", "--rounds", "2", "--rate", "1e-3",
            "--stats", "--json", str(path),
        )
        assert code == 0
        stats = json.loads(path.read_text())["stats"]
        assert stats["path"] == "full"
        assert stats["kernel"] in ("native", "python")
        assert stats["fold_kernel"] in ("native", "python")
        assert f"(full path, {stats['kernel']} kernel, {stats['fold_kernel']} fold)" in out

    def test_lfr_frame_engine_smoke(self, capsys):
        code, out = run_cli(
            capsys,
            "lfr", "--distances", "3", "--rates", "1e-3",
            "--shots", "100", "--rounds", "2",
        )
        assert code == 0
        assert "frame engine" in out
        assert "decoded logical error rates" in out

    def test_lfr_tableau_engine_smoke(self, capsys):
        code, out = run_cli(
            capsys,
            "lfr", "--distances", "3", "--rates", "1e-3",
            "--shots", "50", "--rounds", "1", "--engine", "tableau",
        )
        assert code == 0
        assert "tableau engine" in out

    def test_lfr_decoder_selection(self, capsys):
        code, out = run_cli(
            capsys,
            "lfr", "--distances", "3", "--rates", "1e-3",
            "--shots", "50", "--rounds", "2", "--decoder", "union_find_unweighted",
        )
        assert code == 0
        assert "union_find_unweighted" in out

    def test_lfr_unknown_decoder_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "lfr", "--distances", "3", "--rates", "1e-3", "--decoder", "mwpm",
            )

    def test_lfr_lookup_decoder_too_large_is_one_line(self, capsys):
        code, out = run_cli(
            capsys,
            "lfr", "--distances", "5", "--rates", "1e-3",
            "--shots", "10", "--decoder", "lookup",
        )
        assert code == 2
        assert "lookup" in out and "limit" in out
        assert "Traceback" not in out

    def test_dem_decoder_graph_summary(self, capsys):
        code, out = run_cli(
            capsys,
            "dem", "--distance", "3", "--rounds", "2", "--rate", "1e-3",
            "--decoder", "lookup",
        )
        assert code == 0
        assert "decoding graph (lookup):" in out
        assert "weights" in out


class TestShardedSweeps:
    """--jobs/--checkpoint/--resume/--no-cache on the sweep front-ends."""

    LFR = ["lfr", "--distances", "3", "--rates", "1e-3", "--shots", "100", "--rounds", "2"]

    def test_sweep_unknown_op_is_one_line_error(self, capsys):
        code, out = run_cli(capsys, "sweep", "--op", "Nope", "--distances", "3")
        assert code == 2
        assert "unknown operation" in out and "Nope" in out
        assert "Traceback" not in out

    def test_sweep_bad_distance_is_one_line_error(self, capsys):
        code, out = run_cli(capsys, "sweep", "--op", "Idle", "--distances", "1")
        assert code == 2
        assert "at least 2" in out and "Traceback" not in out

    def test_bad_jobs_rejected(self, capsys):
        code, out = run_cli(capsys, *self.LFR, "--jobs", "0")
        assert code == 2
        assert "--jobs" in out

    def test_resume_without_checkpoint_rejected(self, capsys):
        code, out = run_cli(capsys, *self.LFR, "--resume")
        assert code == 2
        assert "--resume requires --checkpoint" in out

    def test_lfr_jobs_matches_serial(self, capsys):
        code, serial = run_cli(capsys, *self.LFR)
        code2, parallel = run_cli(capsys, *self.LFR, "--jobs", "2")
        assert code == 0 and code2 == 0
        # Same table rows modulo the timing columns (wall clock differs).
        strip = [" ".join(line.split()[:10]) for line in serial.splitlines() if "ZMemory" in line]
        strip2 = [
            " ".join(line.split()[:10]) for line in parallel.splitlines() if "ZMemory" in line
        ]
        assert strip == strip2
        assert "sweep cells: 0 served from cache, 1 computed (2 worker(s))" in parallel

    def test_checkpoint_resume_serves_from_cache(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        code, out = run_cli(capsys, *self.LFR, "--checkpoint", ck)
        assert code == 0
        assert "1 computed" in out
        code, out = run_cli(capsys, *self.LFR, "--checkpoint", ck, "--resume")
        assert code == 0
        assert "1 served from cache, 0 computed" in out

    def test_populated_checkpoint_without_resume_is_one_line_error(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert run_cli(capsys, *self.LFR, "--checkpoint", ck)[0] == 0
        code, out = run_cli(capsys, *self.LFR, "--checkpoint", ck)
        assert code == 2
        assert "pass --resume" in out and "Traceback" not in out


class TestWindowedDecoding:
    """--decoder union_find_windowed / --window / --commit / --shot-shards."""

    LFR = ["lfr", "--distances", "3", "--rates", "1e-3", "--shots", "100", "--rounds", "6"]

    def test_windowed_lfr_smoke(self, capsys):
        code, out = run_cli(
            capsys, *self.LFR, "--decoder", "union_find_windowed",
            "--window", "4", "--commit", "2",
        )
        assert code == 0
        assert "union_find_windowed" in out

    def test_window_with_whole_block_decoder_rejected(self, capsys):
        # Includes the *default* decoder: --window without --decoder would
        # otherwise be silently ignored by the whole-block union-find.
        code, out = run_cli(capsys, *self.LFR, "--window", "4")
        assert code == 2
        assert "union_find" in out and "union_find_windowed" in out
        assert "Traceback" not in out
        code, out = run_cli(capsys, *self.LFR, "--decoder", "lookup", "--window", "4")
        assert code == 2
        assert "lookup" in out

    def test_commit_without_window_rejected(self, capsys):
        code, out = run_cli(capsys, *self.LFR, "--commit", "2")
        assert code == 2
        assert "--commit requires --window" in out

    def test_commit_not_smaller_than_window_rejected(self, capsys):
        code, out = run_cli(
            capsys, *self.LFR, "--decoder", "union_find_windowed",
            "--window", "4", "--commit", "4",
        )
        assert code == 2
        assert "smaller than --window" in out

    def test_window_not_above_the_default_commit_rejected(self, capsys):
        # Without --commit each distance commits d slices, so --window must
        # exceed the largest distance; the message names both.
        code, out = run_cli(
            capsys, "lfr", "--distances", "3", "--window", "3",
            "--decoder", "union_find_windowed", "--shots", "100",
        )
        assert code == 2
        assert out.strip() == (
            "--window (3) must be larger than the default --commit, the distance (3); "
            "pass a larger --window or a --commit below 3"
        )

    def test_shot_shards_require_frame_engine(self, capsys):
        code, out = run_cli(
            capsys, *self.LFR, "--shot-shards", "2", "--jobs", "2",
            "--engine", "tableau",
        )
        assert code == 2
        assert "frame" in out

    def test_shot_sharded_lfr_matches_serial(self, capsys):
        def rows(out):
            return [" ".join(line.split()[:10]) for line in out.splitlines() if "ZMemory" in line]

        code, serial = run_cli(capsys, *self.LFR)
        assert code == 0
        # Shards fan out over --jobs workers, or run in-process without it.
        for jobs in (["--jobs", "2"], []):
            code, sharded = run_cli(capsys, *self.LFR, *jobs, "--shot-shards", "2")
            assert code == 0
            assert rows(sharded) == rows(serial)

    def test_mismatched_checkpoint_is_one_line_error(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert run_cli(capsys, *self.LFR, "--checkpoint", ck)[0] == 0
        code, out = run_cli(
            capsys,
            "lfr", "--distances", "3", "--rates", "5e-3", "--shots", "100",
            "--rounds", "2", "--checkpoint", ck, "--resume",
        )
        assert code == 2
        assert "different sweep" in out and "Traceback" not in out

    def test_no_cache_recomputes(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert run_cli(capsys, *self.LFR, "--checkpoint", ck)[0] == 0
        code, out = run_cli(capsys, *self.LFR, "--checkpoint", ck, "--no-cache")
        assert code == 0
        assert "0 served from cache, 1 computed" in out

    def test_sweep_checkpoint_round_trip(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        args = ["sweep", "--op", "Idle", "--distances", "2", "3", "--checkpoint", ck]
        code, first = run_cli(capsys, *args)
        code2, second = run_cli(capsys, *args, "--resume")
        assert code == 0 and code2 == 0
        assert "2 served from cache, 0 computed" in second
        # Resource rows are fully deterministic: cached table == computed table.
        rows = [line for line in first.splitlines() if line.startswith("Idle")]
        assert rows and rows == [line for line in second.splitlines() if line.startswith("Idle")]


class TestHardwareProfiles:
    """The --profile axis and the `tiscc profiles` inspection subcommand."""

    def test_profiles_list_smoke(self, capsys):
        code, out = run_cli(capsys, "profiles", "list")
        assert code == 0
        for name in ("baseline", "slow_junction", "fast_projected"):
            assert name in out
        assert "fingerprint" in out

    def test_profiles_show_smoke(self, capsys):
        code, out = run_cli(capsys, "profiles", "show", "slow_junction")
        assert code == 0
        assert "slow_junction" in out and "junction_us: 525" in out
        assert "near_term" in out

    def test_profiles_show_json_round_trips(self, capsys):
        from repro.hardware.profile import HardwareProfile, get_profile

        code, out = run_cli(capsys, "profiles", "show", "fast_projected", "--json")
        assert code == 0
        assert HardwareProfile.from_dict(json.loads(out)) == get_profile("fast_projected")

    def test_unknown_profile_is_one_line_error(self, capsys):
        for argv in (
            ["compile", "--op", "Idle", "--profile", "nope"],
            ["sweep", "--op", "Idle", "--distances", "3", "--profile", "nope"],
            ["dem", "--distance", "3", "--rate", "1e-3", "--profile", "nope"],
            ["profiles", "show", "nope"],
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert "unknown hardware profile" in out
            assert "Traceback" not in out

    def test_sweep_profile_axis_one_run(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--op", "Idle", "--distances", "3",
            "--profile", "baseline", "--profile", "slow_junction",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith(("baseline", "slow_junction"))]
        assert len(rows) == 2
        # Same instruction count, different makespan: the calibration moved.
        assert rows[0].split()[-1] == rows[1].split()[-1]
        assert rows[0].split()[4] != rows[1].split()[4]

    def test_default_sweep_has_no_profile_column(self, capsys):
        code, out = run_cli(capsys, "sweep", "--op", "Idle", "--distances", "3")
        assert code == 0
        assert "profile" not in out

    def test_explicit_baseline_matches_default_output(self, capsys):
        base_args = ["sweep", "--op", "Idle", "--distances", "3"]
        _, implicit = run_cli(capsys, *base_args)
        code, explicit = run_cli(capsys, *base_args, "--profile", "baseline")
        assert code == 0
        assert explicit == implicit

    def test_compile_with_profile_path(self, capsys, tmp_path):
        from repro.hardware.profile import get_profile

        path = tmp_path / "custom.json"
        get_profile("fast_projected").renamed("custom").dump(path)
        code, out = run_cli(
            capsys, "compile", "--op", "Idle", "--dx", "3", "--dz", "3",
            "--profile", str(path), "--resources",
        )
        assert code == 0
        assert "profile custom" in out and "custom" in out

    def test_lfr_profile_column_and_preset_resolution(self, capsys):
        code, out = run_cli(
            capsys, "lfr", "--distances", "3", "--noise", "near_term",
            "--shots", "100", "--profile", "fast_projected",
        )
        assert code == 0
        assert "fast_projected" in out
        assert "profile" in out
