"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, build_sweep_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig01"])
        assert args.experiments == ["fig01"]
        assert args.scale == "small"
        assert args.seed == 0

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig01", "--scale", "huge"])


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "table1" in out

    def test_run_single_experiment(self, capsys):
        assert main(["fig02a", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig02a" in out
        assert "jellyfish_normalized_bisection" in out

    def test_unknown_experiment_sets_exit_code(self, capsys):
        assert main(["not-a-figure"]) == 2

    def test_no_arguments_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepParser:
    def test_run_defaults(self):
        args = build_sweep_parser().parse_args(["run", "fig01"])
        assert args.sweeps == ["fig01"]
        assert args.scale == "small"
        assert args.seed == 0
        assert args.workers == 0
        assert not args.no_cache

    def test_seed_is_plumbed_through_every_subcommand(self):
        parser = build_sweep_parser()
        assert parser.parse_args(["run", "fig01", "--seed", "9"]).seed == 9
        assert parser.parse_args(["show", "fig01", "--seed", "9"]).seed == 9

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args([])


class TestSweepMain:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "table1" in out
        assert "point(s)" in out

    def test_sweep_show(self, capsys):
        assert main(["sweep", "show", "fig02a"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fig02a: Fig 2(a): normalized bisection bandwidth")
        assert "jellyfish_curve_point" in out
        assert "point " in out

    def test_sweep_run_with_cache(self, capsys, tmp_path):
        argv = ["sweep", "run", "fig02a", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "jellyfish_normalized_bisection" in first
        # Second invocation is served from cache and prints the same table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert list(tmp_path.glob("??/*.json"))

    def test_sweep_run_no_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "run", "fig01",
            "--no-cache", "--quiet", "--seed", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "fig01" in capsys.readouterr().out
        assert not list(tmp_path.glob("??/*.json"))

    def test_sweep_run_unknown_sweep(self, capsys, tmp_path):
        """An unknown id, or a scale the sweep does not define, is a usage
        error: exit 2 before any point runs or any manifest is written."""
        runs = tmp_path / "runs"
        for args in (["fig99"], ["fig04", "--scale", "hyperscale"]):
            argv = ["sweep", "run", *args, "--cache-dir", str(tmp_path),
                    "--runs-dir", str(runs), "--quiet"]
            assert main(argv) == 2
            assert not list(runs.glob("run-*"))

    def test_sweep_show_unknown_sweep(self, capsys):
        assert main(["sweep", "show", "fig99"]) == 2


class TestTopoCli:
    def test_topo_build_prints_summary_and_hash(self, capsys):
        from repro.cli import build_topo_parser, main

        args = build_topo_parser().parse_args(
            ["build", "--switches", "20", "--ports", "6", "--degree", "4"]
        )
        assert args.command == "build" and args.seed == 0
        assert main(
            ["topo", "build", "--switches", "20", "--ports", "6", "--degree", "4",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "switches 20" in out
        assert "content hash" in out

    def test_topo_build_same_seed_same_hash(self, capsys):
        from repro.cli import main

        argv = ["topo", "build", "--switches", "16", "--ports", "6", "--degree",
                "3", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_topo_build_rejects_bad_parameters(self, capsys):
        from repro.cli import main

        assert main(
            ["topo", "build", "--switches", "10", "--ports", "4", "--degree", "5"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_topo_ensemble_serial_matches_sharded(self, capsys):
        from repro.cli import main

        argv = ["topo", "ensemble", "--instances", "4", "--switches", "14",
                "--ports", "6", "--degree", "3", "--seed", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert "distinct hashes 4" in serial
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_topo_ensemble_stubs_method(self, capsys):
        from repro.cli import main

        assert main(
            ["topo", "ensemble", "--instances", "3", "--switches", "20",
             "--ports", "8", "--degree", "5", "--method", "stubs"]
        ) == 0
        out = capsys.readouterr().out
        assert "method=stubs" in out


class TestSimCli:
    def test_sim_aimd_prints_summary(self, capsys):
        from repro.cli import main

        argv = ["sim", "aimd", "--switches", "16", "--ports", "6", "--degree",
                "4", "--rounds", "40", "--warmup-rounds", "10", "--seed", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "aimd jellyfish N=16" in out
        assert "average throughput" in out
        assert "convergence" in out

    def test_sim_aimd_fattree(self, capsys):
        from repro.cli import main

        argv = ["sim", "aimd", "--topology", "fattree", "--ports", "4",
                "--routing", "ecmp", "--cc", "tcp8", "--rounds", "30",
                "--warmup-rounds", "10", "--seed", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "aimd fattree k=4" in out and "cc=tcp8" in out
        # The run must actually measure goodput, not report a warmup-eats-
        # everything zero.
        assert "average throughput 0.0000" not in out

    def test_sim_aimd_rejects_warmup_not_below_rounds(self, capsys):
        from repro.cli import main

        argv = ["sim", "aimd", "--switches", "12", "--ports", "6", "--degree",
                "3", "--rounds", "30", "--seed", "1"]  # default warmup 50 >= 30
        assert main(argv) == 2
        assert "warmup_rounds" in capsys.readouterr().err


class TestSweepRobustness:
    """Failure reports, resume, and signal handling in `sweep run`."""

    def _fault_env(self, monkeypatch, faults, seed=0):
        import json

        monkeypatch.setenv(
            "REPRO_FAULTS", json.dumps({"seed": seed, "faults": faults})
        )

    def test_quarantine_prints_report_and_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        self._fault_env(monkeypatch, [{"kind": "error", "indices": [2]}])
        code = main(
            [
                "sweep", "run", "fig02a", "--no-cache", "--quiet",
                "--runs-dir", str(tmp_path), "--max-attempts", "2",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1 of 24 point(s) quarantined" in out
        assert "error after 2 attempt(s)" in out
        assert "jellyfish_normalized_bisection" not in out  # no table

    def test_resume_skips_journaled_points(self, capsys, tmp_path, monkeypatch):
        import json

        self._fault_env(monkeypatch, [{"kind": "error", "indices": [2]}])
        assert (
            main(
                [
                    "sweep", "run", "fig02a", "--no-cache", "--quiet",
                    "--runs-dir", str(tmp_path), "--max-attempts", "1",
                ]
            )
            == 1
        )
        capsys.readouterr()
        manifest = sorted(tmp_path.glob("run-*.json"))[0]
        run_id = json.loads(manifest.read_text())["run_id"]

        monkeypatch.delenv("REPRO_FAULTS")
        assert (
            main(
                [
                    "sweep", "run", "--resume", run_id, "--no-cache",
                    "--quiet", "--runs-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "jellyfish_normalized_bisection" in out  # table assembled
        manifests = [
            json.loads(p.read_text()) for p in sorted(tmp_path.glob("run-*.json"))
        ]
        resumed = next(m for m in manifests if m["resumed_from"] == run_id)
        statuses = [p["status"] for p in resumed["points"]]
        assert statuses.count("journaled") == 23
        assert statuses.count("ok") == 1
        assert resumed["failures"]["journal_skips"] == 23
        # Zero re-executions of journaled points: exactly one non-cached run.
        assert sum(1 for p in resumed["points"] if not p["cached"]) == 1

    def test_resume_rejects_mismatched_sweep(self, capsys, tmp_path):
        import json

        assert (
            main(
                [
                    "sweep", "run", "fig02a", "--no-cache", "--quiet",
                    "--runs-dir", str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest = sorted(tmp_path.glob("run-*.json"))[0]
        run_id = json.loads(manifest.read_text())["run_id"]
        assert (
            main(
                [
                    "sweep", "run", "fig01", "--resume", run_id, "--no-cache",
                    "--runs-dir", str(tmp_path),
                ]
            )
            == 2
        )
        assert "was sweep" in capsys.readouterr().err

    def test_resume_unknown_run_id_errors(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep", "run", "--resume", "no-such-run", "--no-cache",
                    "--runs-dir", str(tmp_path),
                ]
            )
            == 2
        )
        assert "cannot load manifest" in capsys.readouterr().err

    def test_run_without_sweeps_or_resume_errors(self, capsys, tmp_path):
        assert (
            main(["sweep", "run", "--no-cache", "--runs-dir", str(tmp_path)]) == 2
        )
        assert "no sweeps given" in capsys.readouterr().err

    def test_timeout_zero_disables_deadlines(self, capsys, tmp_path):
        code = main(
            [
                "sweep", "run", "fig02a", "--no-cache", "--quiet",
                "--runs-dir", str(tmp_path), "--timeout", "0",
            ]
        )
        assert code == 0

class TestLifecycleCli:
    def _argv(self, runs_dir, *extra):
        return [
            "lifecycle", "run", "--family", "jellyfish", "--switches", "12",
            "--ports", "6", "--servers", "24", "--duration", "72",
            "--epoch-interval", "24", "--link-rate", "0.3", "--link-mttr", "4",
            "--engine", "path", "--routing", "ecmp", "--k", "4", "--cc",
            "tcp1", "--seed", "3", "--runs-dir", str(runs_dir), *extra,
        ]

    def test_lifecycle_run_prints_table_and_writes_manifest(
        self, capsys, tmp_path
    ):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "lifecycle jellyfish (12 switches, 24 servers)" in out
        assert "3 epoch(s)" in out
        assert "time-averaged throughput" in out
        assert list(tmp_path.glob("run-*.json"))
        assert list(tmp_path.glob("run-*.journal.jsonl"))

    def test_lifecycle_resume_replays_identical_timeline(self, capsys, tmp_path):
        import json

        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        manifest = sorted(tmp_path.glob("run-*.json"))[0]
        run_id = json.loads(manifest.read_text())["run_id"]

        assert main(self._argv(tmp_path, "--resume", run_id)) == 0
        second = capsys.readouterr().out

        def table(text):
            return [
                line for line in text.splitlines() if not line.startswith("  run ")
            ]

        assert table(first) == table(second)
        manifests = [
            json.loads(p.read_text()) for p in sorted(tmp_path.glob("run-*.json"))
        ]
        resumed = next(m for m in manifests if m["resumed_from"] == run_id)
        assert all(p["status"] == "journaled" for p in resumed["points"])

    def test_lifecycle_resume_rejects_changed_config(self, capsys, tmp_path):
        import json

        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        manifest = sorted(tmp_path.glob("run-*.json"))[0]
        run_id = json.loads(manifest.read_text())["run_id"]
        assert (
            main(self._argv(tmp_path, "--resume", run_id, "--link-mttr", "8"))
            == 2
        )
        assert "different lifecycle config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changed", [["--switches", "14"], ["--build-seed", "1"]]
    )
    def test_lifecycle_resume_rejects_changed_plant(self, capsys, tmp_path, changed):
        # The epoch hashes cover the config and seed but not the plant, so a
        # resume on another plant would replay the first plant's epochs.
        import json

        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        manifest = sorted(tmp_path.glob("run-*.json"))[0]
        run_id = json.loads(manifest.read_text())["run_id"]
        assert main(self._argv(tmp_path, "--resume", run_id, *changed)) == 2
        assert "different plant" in capsys.readouterr().err
        assert len(list(tmp_path.glob("run-*.json"))) == 1

    def test_lifecycle_rejects_invalid_config(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--duration", "0")) == 2
        assert "duration_hours" in capsys.readouterr().err


class TestSweepRobustnessSignals:
    def test_sigterm_flushes_manifest_and_exits_143(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # One point hangs forever; the parent is killed mid-sweep.
        env["REPRO_FAULTS"] = json.dumps(
            {"seed": 0, "faults": [{"kind": "hang", "indices": [5], "hang_s": 600}]}
        )
        runs_dir = tmp_path / "runs"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep", "run", "fig02a",
                "--no-cache", "--runs-dir", str(runs_dir), "--workers", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Wait until some points are journaled so the flush has content.
        deadline = time.time() + 60
        journal = None
        while time.time() < deadline:
            journals = list(runs_dir.glob("run-*.journal.jsonl"))
            if journals and journals[0].read_text().count("\n") >= 3:
                journal = journals[0]
                break
            time.sleep(0.2)
        assert journal is not None, "no journal appeared before the deadline"
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 143  # 128 + SIGTERM
        assert "interrupted by signal 15" in stderr
        assert "--resume" in stderr
        manifest = json.loads(next(runs_dir.glob("run-*.json")).read_text())
        assert manifest["interrupted"] is True
        assert len(manifest["points"]) >= 3  # partial results were flushed
