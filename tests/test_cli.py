"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--scale", "galactic"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--data-dir", "/tmp/x"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.data_dir == "/tmp/x"
        assert args.host is None  # defers to $REPRO_SERVICE_HOST

    def test_progress_force_flag(self):
        args = build_parser().parse_args(["fig2", "--progress"])
        assert args.progress is True

    def test_every_figure_subcommand_has_one_table_entry(self):
        from repro.cli import FIGURES

        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        figures = [name for name in sub.choices if name.startswith("fig")]
        assert figures == list(FIGURES)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "atax" in out and "pwu" in out and "paper" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "E5-2680" in out

    def test_fig2_single_kernel_writes_json(self, capsys, tmp_path, monkeypatch):
        # Patch the smoke scale down so the CLI test stays fast.
        from repro.cli import SCALES
        from repro.experiments.config import ExperimentScale

        monkeypatch.setitem(
            SCALES,
            "smoke",
            ExperimentScale(
                name="smoke",
                pool_size=150,
                test_size=120,
                n_init=8,
                n_max=14,
                n_trials=1,
                eval_every=6,
                n_estimators=6,
            ),
        )
        code = main(
            [
                "fig2",
                "--scale",
                "smoke",
                "--kernels",
                "mvt",
                "-o",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 3" in out
        payload = json.loads((tmp_path / "fig2.json").read_text())
        assert "mvt" in payload["data"]
        assert (tmp_path / "fig3.json").exists()

    def _patch_tiny_smoke(self, monkeypatch):
        from repro.cli import SCALES
        from repro.experiments.config import ExperimentScale

        monkeypatch.setitem(
            SCALES,
            "smoke",
            ExperimentScale(
                name="smoke",
                pool_size=150,
                test_size=120,
                n_init=8,
                n_max=14,
                n_trials=2,
                eval_every=6,
                n_estimators=6,
            ),
        )

    def test_jobs_flag_preserves_results_and_cache_resumes(
        self, capsys, tmp_path, monkeypatch
    ):
        """--jobs 2 output matches --jobs 1 byte-for-byte, and a rerun with
        the same --cache-dir executes nothing (all cache hits)."""
        self._patch_tiny_smoke(monkeypatch)
        cache = tmp_path / "cache"
        common = ["fig2", "--scale", "smoke", "--kernels", "mvt"]

        assert main([*common, "--jobs", "1", "-o", str(tmp_path / "serial")]) == 0
        capsys.readouterr()
        assert main(
            [*common, "--jobs", "2", "--cache-dir", str(cache),
             "-o", str(tmp_path / "parallel")]
        ) == 0
        first_err = capsys.readouterr().err
        assert "cache hits 0" in first_err

        serial = (tmp_path / "serial" / "fig2.json").read_bytes()
        parallel = (tmp_path / "parallel" / "fig2.json").read_bytes()
        assert serial == parallel

        assert main(
            [*common, "--jobs", "2", "--cache-dir", str(cache),
             "-o", str(tmp_path / "resumed")]
        ) == 0
        second_err = capsys.readouterr().err
        assert "executed 0" in second_err
        assert (tmp_path / "resumed" / "fig2.json").read_bytes() == serial

    def test_all_is_tables_then_each_figure_on_a_temporary_store(
        self, capsys, tmp_path, monkeypatch
    ):
        """`all` with no store writes, byte for byte, what `tables` and each
        figure subcommand write; Fig. 7 reads Fig. 2's and Fig. 4's trials
        from a temporary store, which is gone once main returns."""
        import tempfile

        self._patch_tiny_smoke(monkeypatch)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        together, apart = tmp_path / "together", tmp_path / "apart"
        common = ["--scale", "smoke", "--jobs", "1"]

        assert main(["all", *common, "-o", str(together)]) == 0
        printed = capsys.readouterr()
        assert list(scratch.iterdir()) == []
        # One "executed 0" batch per Fig. 7 benchmark: 12 kernels, 2 apps.
        assert printed.err.count("executed 0") >= 14

        assert main(["tables"]) == 0
        for name in ("fig2", "fig4", "fig6", "fig7", "fig8", "fig9"):
            assert main([name, *common, "-o", str(apart)]) == 0
        assert printed.out.replace(str(together), "OUT") == (
            capsys.readouterr().out.replace(str(apart), "OUT")
        )
        files = sorted(path.name for path in together.iterdir())
        assert files == sorted(path.name for path in apart.iterdir())
        for name in files:
            assert (together / name).read_bytes() == (apart / name).read_bytes()

    def test_no_progress_silences_telemetry(self, capsys, tmp_path, monkeypatch):
        self._patch_tiny_smoke(monkeypatch)
        assert main(
            ["fig2", "--scale", "smoke", "--kernels", "mvt", "--no-progress"]
        ) == 0
        assert "[engine]" not in capsys.readouterr().err


class TestDistillAndRun:
    def test_distill_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distill", "atax"])

    def test_distill_then_run_the_envelope(self, capsys, tmp_path, monkeypatch):
        """The acceptance path: distill a kernel, then run strategies
        against the frozen envelope via the surrogate: prefix."""
        from repro.cli import SCALES
        from repro.experiments.config import ExperimentScale

        monkeypatch.setitem(
            SCALES,
            "smoke",
            ExperimentScale(
                name="smoke",
                pool_size=150,
                test_size=120,
                n_init=8,
                n_max=14,
                n_trials=1,
                eval_every=6,
                n_estimators=6,
            ),
        )
        out = tmp_path / "d.npz"
        code = main(
            ["distill", "kernel:atax", "--surrogate", "forest",
             "--budget", "120", "--n-estimators", "4", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "distilled atax" in capsys.readouterr().out

        code = main(
            ["run", f"surrogate:{out}", "--scale", "smoke",
             "--no-progress", "-o", str(tmp_path / "results")]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "pwu" in printed and "final RMSE" in printed
        written = list((tmp_path / "results").glob("run-*.json"))
        assert len(written) == 1
        payload = json.loads(written[0].read_text())
        assert payload["workload"] == f"surrogate:{out}"
        assert "pwu" in payload["metrics"]

    def test_run_multiple_strategies_compares(self, capsys, tmp_path, monkeypatch):
        from repro.cli import SCALES
        from repro.experiments.config import ExperimentScale

        monkeypatch.setitem(
            SCALES,
            "smoke",
            ExperimentScale(
                name="smoke",
                pool_size=120,
                test_size=100,
                n_init=8,
                n_max=12,
                n_trials=1,
                eval_every=6,
                n_estimators=5,
            ),
        )
        code = main(
            ["run", "mvt", "--strategy", "random", "pwu",
             "--scale", "smoke", "--no-progress"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "random" in printed and "pwu" in printed
