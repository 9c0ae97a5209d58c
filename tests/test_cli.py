"""CLI entry points."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig6"])
        assert args.name == "fig6"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.lot_size == 10
        assert args.seed == 0
        assert args.workers is None

    def test_cost_defaults(self):
        args = build_parser().parse_args([
            "cost", "--transistors", "1e6", "--feature-size", "0.8",
            "--density", "150"])
        assert args.yield0 == 0.7
        assert args.c0 == 500.0
        assert args.wafer_radius == 7.5


class TestCommands:
    @pytest.mark.parametrize("fig", ["fig1", "fig3", "fig5", "fig6", "fig7"])
    def test_figures_render(self, fig, capsys):
        assert main(["figure", fig]) == 0
        out = capsys.readouterr().out
        assert "Fig." in out
        assert len(out.splitlines()) > 10

    def test_fig8_renders_contours(self, capsys):
        assert main(["figure", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "levels:" in out

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_tables_render(self, table, capsys):
        assert main(["table", table]) == 0
        out = capsys.readouterr().out
        assert "Table" in out

    def test_cost_command(self, capsys):
        rc = main(["cost", "--transistors", "3.1e6", "--feature-size", "0.8",
                   "--density", "150", "--c0", "700", "--x", "1.8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost per transistor" in out
        # The Table-3 row-2 value should appear (20.5 x 1e-6).
        assert "20.5" in out

    def test_cost_command_bad_parameters_exit_2(self, capsys):
        rc = main(["cost", "--transistors", "5e9", "--feature-size", "0.8",
                   "--density", "150"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_optimize_command(self, capsys):
        assert main(["optimize", "--die-area", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "optimal feature size" in out

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "scen1" in out and "scen2" in out

    def test_module_invocation(self):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro", "table", "table1"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "I-cache" in result.stdout

    def test_shrink_command(self, capsys):
        rc = main(["shrink", "--transistors", "1.2e6", "--density", "150",
                   "--from-node", "0.8", "--to-node", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mature cost gain" in out
        assert "dies per wafer" in out

    def test_shrink_command_infeasible_exit_2(self, capsys):
        rc = main(["shrink", "--transistors", "5e9", "--density", "150",
                   "--from-node", "1.0", "--to-node", "0.5"])
        assert rc == 2

    def test_wafermap_command(self, capsys):
        rc = main(["wafermap", "--die-side", "1.2",
                   "--defect-density", "0.6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "good" in out
        assert "X" in out or "." in out

    def test_wafermap_counts_mode(self, capsys):
        rc = main(["wafermap", "--die-side", "1.2",
                   "--defect-density", "1.5", "--counts"])
        assert rc == 0
        assert "good" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        rc = main(["simulate", "--lot-size", "4", "--die-side", "1.2",
                   "--defect-density", "0.6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lot yield (Monte Carlo)" in out
        assert "closed-form yield" in out
        wafer_rows = [l for l in out.splitlines() if l.startswith("wafer ")]
        assert len(wafer_rows) == 4

    def test_simulate_command_workers_do_not_change_output(self, capsys):
        args = ["simulate", "--lot-size", "4", "--die-side", "1.2",
                "--defect-density", "0.8", "--seed", "9"]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        # Everything except the echoed worker count must be identical.
        strip = [l for l in sequential.splitlines() if "workers" not in l]
        assert strip == [l for l in sharded.splitlines()
                         if "workers" not in l]

    def test_simulate_command_clustered(self, capsys):
        rc = main(["simulate", "--lot-size", "3", "--alpha", "1.5",
                   "--defect-density", "1.0", "--seed", "2"])
        assert rc == 0
        assert "closed-form yield" in capsys.readouterr().out

    def test_simulate_tiny_die_errors_at_once(self, capsys):
        import time
        t0 = time.perf_counter()
        main(["simulate", "--lot-size", "1", "--die-side", "0.001",
              "--seed", "1"])
        assert time.perf_counter() - t0 < 5.0
        captured = capsys.readouterr()
        assert "grid cells" in captured.out + captured.err

    def test_simulate_command_bad_workers_exit_2(self, capsys):
        rc = main(["simulate", "--lot-size", "2", "--workers", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_report_command_to_file(self, tmp_path, capsys):
        target = tmp_path / "r.md"
        assert main(["report", str(target)]) == 0
        assert "Headline checks" in target.read_text()


class TestBatchIO:
    """cost/optimize --input: file-driven batches through repro.serve."""

    def _points_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("transistors,feature_size,density,yield0\n"
                        "3.1e6,0.8,150,\n"
                        "1e6,0.5,,0.8\n")
        return path

    def test_cost_input_csv_emits_result_table(self, tmp_path, capsys):
        rc = main(["cost", "--input", str(self._points_csv(tmp_path)),
                   "--density", "150"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n_transistors,feature_size_um,")
        assert len(lines) == 3  # header + one row per point

    def test_cost_input_matches_scalar_evaluate(self, tmp_path, capsys):
        import csv
        import io

        from repro.core import TransistorCostModel, WaferCostModel
        from repro.geometry import Wafer
        from repro.yieldsim import ReferenceAreaYield

        rc = main(["cost", "--input", str(self._points_csv(tmp_path)),
                   "--density", "150", "--c0", "700"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=700.0,
                                      cost_growth_rate=1.8),
            wafer=Wafer(radius_cm=7.5))
        specs = [(3.1e6, 0.8, 0.7), (1e6, 0.5, 0.8)]
        for row, (n, lam, y0) in zip(rows, specs):
            want = model.evaluate(
                n_transistors=n, feature_size_um=lam,
                design_density=150.0,
                yield_model=ReferenceAreaYield(reference_yield=y0,
                                               reference_area_cm2=1.0))
            assert float(row["cost_per_transistor_dollars"]) \
                == want.cost_per_transistor_dollars
            assert int(row["dies_per_wafer"]) == want.dies_per_wafer
            assert row["feasible"] == "True"

    def test_cost_input_json_columnar_output(self, tmp_path, capsys):
        import json
        path = tmp_path / "points.json"
        path.write_text(json.dumps(
            {"transistors": [3.1e6, 1e6], "feature_size": [0.8, 0.5]}))
        rc = main(["cost", "--input", str(path), "--density", "150",
                   "--format", "json"])
        assert rc == 0
        columns = json.loads(capsys.readouterr().out)
        assert len(columns["cost_per_transistor_dollars"]) == 2
        assert columns["feasible"] == [True, True]

    def test_cost_without_input_requires_point_flags(self, capsys):
        rc = main(["cost", "--feature-size", "0.8", "--density", "150"])
        assert rc == 2
        assert "--transistors is required" in capsys.readouterr().err

    def test_cost_input_unknown_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("transistors,feature_sise\n1e6,0.8\n")
        rc = main(["cost", "--input", str(path), "--density", "150"])
        assert rc == 2
        assert "feature_sise" in capsys.readouterr().err

    def test_cost_input_missing_density_exit_2(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("transistors,feature_size\n1e6,0.8\n")
        rc = main(["cost", "--input", str(path)])
        assert rc == 2
        assert "--density is required" in capsys.readouterr().err

    def test_optimize_input_csv(self, tmp_path, capsys):
        from repro.core.optimization import optimal_feature_size_for_die_area
        path = tmp_path / "areas.csv"
        path.write_text("die_area\n0.5\n1.0\n")
        rc = main(["optimize", "--input", str(path)])
        assert rc == 0
        import csv
        import io
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2
        for row, area in zip(rows, (0.5, 1.0)):
            lam, cost = optimal_feature_size_for_die_area(area)
            assert float(row["optimal_feature_size_um"]) == lam
            assert float(row["cost_per_transistor_dollars"]) == cost

    def test_optimize_input_json_format(self, tmp_path, capsys):
        import json
        path = tmp_path / "areas.json"
        path.write_text(json.dumps([{"die_area": 1.0}]))
        rc = main(["optimize", "--input", str(path), "--format", "json"])
        assert rc == 0
        columns = json.loads(capsys.readouterr().out)
        assert len(columns["optimal_feature_size_um"]) == 1

    def test_optimize_without_input_requires_die_area(self, capsys):
        rc = main(["optimize"])
        assert rc == 2
        assert "--die-area is required" in capsys.readouterr().err


class TestServeFlags:
    """cost --record, and the flags that are gone."""

    def _points_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("transistors,feature_size,density,yield0\n"
                        "3.1e6,0.8,150,\n"
                        "1e6,0.5,,0.8\n")
        return path

    @pytest.mark.parametrize("command,flags", [
        ("cost", ("--serve-backend", "--serve-workers", "--prewarm")),
        ("serve", ("--backend", "--workers")),
        ("replay", ("--configs", "--workers", "--profile")),
        ("optimize", ("--backend",)),
        ("sweep", ("--backend",)),
        ("chiplet", ("--backend",)),
    ])
    def test_help_lists_no_backend_or_tuning_flags(self, command, flags,
                                                   capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert text.startswith(f"usage: repro {command} ")
        for flag in flags:
            assert flag not in text

    def test_record_writes_replayable_log(self, tmp_path, capsys):
        from repro.obs.recording import load_recorded_log
        log_path = tmp_path / "traffic.jsonl"
        rc = main(["cost", "--input", str(self._points_csv(tmp_path)),
                   "--density", "150", "--record", str(log_path)])
        assert rc == 0
        capsys.readouterr()
        log = load_recorded_log(log_path)
        assert len(log) == 2
        assert log.unreplayable == 0


class TestReplayCommand:
    """replay: record → re-drive → run-dir report from the CLI."""

    def _record(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text(
            "transistors,feature_size\n" + "".join(
                f"{1e5 * (i % 6 + 1)},{0.5 + 0.1 * (i % 3)}\n"
                for i in range(30)))
        log_path = tmp_path / "traffic.jsonl"
        assert main(["cost", "--input", str(points), "--density", "150",
                     "--record", str(log_path)]) == 0
        capsys.readouterr()
        return log_path

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["replay", "--log", "t.jsonl", "--run-dir", "out"])
        assert args.mode == "closed"
        assert args.speed == 1.0
        assert args.timeout == 300.0

    def test_replay_writes_run_dir_and_passes_parity(self, tmp_path,
                                                     capsys):
        log_path = self._record(tmp_path, capsys)
        run_dir = tmp_path / "run"
        rc = main(["replay", "--log", str(log_path),
                   "--run-dir", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity: all replayed costs bitwise equal" in out
        assert "mismatches" in out
        for artifact in ("raw/replay.json", "results.csv", "report.md"):
            assert (run_dir / artifact).exists(), artifact

    def test_replay_open_mode_with_speedup(self, tmp_path, capsys):
        log_path = self._record(tmp_path, capsys)
        run_dir = tmp_path / "run"
        rc = main(["replay", "--log", str(log_path),
                   "--run-dir", str(run_dir), "--mode", "open",
                   "--speed", "1000"])
        assert rc == 0
        assert "parity: all replayed costs bitwise equal" \
            in capsys.readouterr().out

    def test_replay_missing_log_exit_2(self, tmp_path, capsys):
        rc = main(["replay", "--log", str(tmp_path / "missing.jsonl"),
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestSweepCommand:
    """sweep: the tiled mega-sweep engine from the command line."""

    _SMALL = ["sweep", "--ntr-points", "12", "--lam-points", "15",
              "--tile-size", "40"]

    def test_sweep_renders_summary_table(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "grid points" in out
        assert "180" in out  # 12 x 15
        assert "tiles (computed/resumed/total)" in out
        assert "optimal feature size [um]" in out

    def test_sweep_output_grid_matches_landscape(self, tmp_path, capsys):
        import numpy as np

        from repro.core.optimization import FIG8_FAB, CostLandscape
        target = tmp_path / "grid.npy"
        assert main(self._SMALL + ["--output", str(target)]) == 0
        grid = np.load(target)
        want = CostLandscape(
            fab=FIG8_FAB,
            feature_sizes_um=np.linspace(0.3, 2.0, 15),
            transistor_counts=np.geomspace(1e5, 1e7, 12)).grid()
        assert np.array_equal(grid, want)

    def test_sweep_backend_workers_do_not_change_output(self, tmp_path,
                                                        capsys):
        import numpy as np
        seq = tmp_path / "seq.npy"
        pooled = tmp_path / "pool.npy"
        assert main(self._SMALL + ["--output", str(seq)]) == 0
        assert main(self._SMALL + ["--output", str(pooled),
                                   "--workers", "2"]) == 0
        assert np.array_equal(np.load(seq), np.load(pooled))

    def test_sweep_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run")
        assert main(self._SMALL + ["--checkpoint", ckpt]) == 0
        capsys.readouterr()
        # Without --resume a completed directory is refused (exit 2)...
        assert main(self._SMALL + ["--checkpoint", ckpt]) == 2
        assert "resume=True" in capsys.readouterr().err
        # ...with it, everything loads from the checkpoint.
        assert main(self._SMALL + ["--checkpoint", ckpt,
                                   "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 / 6 / 6" in out  # computed / resumed / total

    def test_sweep_bad_points_exit_2(self, capsys):
        rc = main(["sweep", "--ntr-points", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_metrics_flag_reports_counters(self, capsys):
        assert main(self._SMALL + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "sweep.runs" in out
        assert "sweep.tiles" in out

    def test_sweep_trace_flag_writes_spans(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        assert main(self._SMALL + ["--trace", str(trace)]) == 0
        assert "wrote" in capsys.readouterr().err
        assert "sweep.run" in trace.read_text()
        assert "sweep.tile" in trace.read_text()


def _summary_rows(out):
    # The (quantity, value) rows of a printed summary table, without
    # the wall-clock ``seconds`` row.
    header, _rule, *lines = out.strip("\n").splitlines()
    assert [c.strip() for c in header.split("|")] == ["quantity", "value"]
    rows = [tuple(c.strip() for c in line.split("|")) for line in lines]
    return [row for row in rows if row[0] != "seconds"]


_CHIPLET_SWEEP = ["chiplet", "--sweep", "--k-max", "4",
                  "--ntr-points", "60", "--tile-size", "60"]
_CHIPLET_SWEEP_ROWS = [
    ("feature size [um]", "0.8"),
    ("grid points", "240"),
    ("feasible cells", "182"),
    ("workers", "1"),
    ("tiles (computed/resumed/total)", "4 / 0 / 4"),
    ("crossover k=2 [N_tr]", "2.183e+05"),
    ("crossover k=3 [N_tr]", "2.551e+05"),
    ("crossover k=4 [N_tr]", "2.982e+05"),
]


class TestSweepSummaryRows:
    """Every printed row of ``chiplet`` and ``sweep``, pinned.

    ``seconds`` is left out: it is a wall-clock reading.
    """

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        # An earlier --metrics run leaves metrics on, which appends the
        # metrics table to stdout.
        from repro import obs
        obs.disable()
        yield

    def test_chiplet_single_point(self, capsys):
        assert main(["chiplet", "--transistors", "1e7", "--chiplets", "4",
                     "--packaging", "interposer"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("chiplets", "4"),
            ("transistors per chiplet", "2.5e+06"),
            ("chiplet area [cm^2]", "2.432"),
            ("wafer cost [$]", "617.2"),
            ("chiplet dies per wafer", "57"),
            ("die yield", "3.126e-05"),
            ("assembly yield", "0.1231"),
            ("effective yield", "6.464e-06"),
            ("packaging cost [$]", "51.11"),
            ("silicon cost per transistor [$1e-6]", "6.7e+05"),
            ("overhead cost per transistor [$1e-6]", "3.614e+04"),
            ("cost per transistor [$1e-6]", "7.062e+05"),
            ("system cost [$]", "7.062e+06"),
            ("feasible", "1"),
        ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_chiplet_crossover_sweep(self, workers, capsys):
        assert main(_CHIPLET_SWEEP + ["--workers", workers]) == 0
        want = [("workers", workers) if row[0] == "workers" else row
                for row in _CHIPLET_SWEEP_ROWS]
        assert _summary_rows(capsys.readouterr().out) == want

    def test_chiplet_crossover_sweep_model_flags(self, capsys):
        assert main(_CHIPLET_SWEEP + [
            "--feature-size", "0.5", "--packaging", "interposer",
            "--probe-coverage", "0.5"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("feature size [um]", "0.5"),
            ("grid points", "240"),
            ("feasible cells", "170"),
            ("workers", "1"),
            ("tiles (computed/resumed/total)", "4 / 0 / 4"),
            ("crossover k=2 [N_tr]", "2.551e+05"),
            ("crossover k=3 [N_tr]", "2.982e+05"),
            ("crossover k=4 [N_tr]", "3.486e+05"),
        ]

    def test_chiplet_crossover_never_reached_prints_nan(self, capsys):
        assert main(["chiplet", "--sweep", "--k-max", "3", "--ntr-lo", "1e5",
                     "--ntr-hi", "2e5", "--ntr-points", "5"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("feature size [um]", "0.8"),
            ("grid points", "15"),
            ("feasible cells", "15"),
            ("workers", "1"),
            ("tiles (computed/resumed/total)", "1 / 0 / 1"),
            ("crossover k=2 [N_tr]", "nan"),
            ("crossover k=3 [N_tr]", "nan"),
        ]

    def test_chiplet_crossover_resume_and_output(self, tmp_path, capsys):
        import numpy as np
        ckpt, grid = str(tmp_path / "run"), tmp_path / "grid.npy"
        assert main(_CHIPLET_SWEEP + ["--checkpoint", ckpt]) == 0
        assert _summary_rows(capsys.readouterr().out) == _CHIPLET_SWEEP_ROWS
        assert main(_CHIPLET_SWEEP + ["--checkpoint", ckpt, "--resume",
                                      "--output", str(grid)]) == 0
        want = [("tiles (computed/resumed/total)", "0 / 4 / 4")
                if row[0].startswith("tiles") else row
                for row in _CHIPLET_SWEEP_ROWS]
        assert _summary_rows(capsys.readouterr().out) == want + [
            ("saved grid", str(grid))]
        assert np.load(grid).shape == (4, 60)

    @pytest.mark.parametrize("argv, message", [
        (["chiplet", "--sweep", "--k-max", "1"],
         "--k-max must be >= 2 for a crossover sweep"),
        (["chiplet", "--sweep", "--ntr-points", "1"],
         "--ntr-points must be >= 2"),
        (["sweep", "--spec", "chiplet", "--k-max", "0"],
         "--k-max must be >= 1"),
    ])
    def test_bad_sweep_flags_exit_2(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_sweep_spec_chiplet(self, capsys):
        assert main(["sweep", "--spec", "chiplet", "--k-max", "4",
                     "--ntr-points", "60", "--tile-size", "60"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "240"),
            ("feasible cells", "240"),
            ("tiles (computed/resumed/total)", "4 / 0 / 4"),
            ("tile shape", "1 x 60"),
            ("workers", "1"),
            ("min cost per transistor [$1e-6]", "61.15"),
            ("optimal chiplet count", "4"),
            ("optimal transistor count", "1.727e+05"),
            ("crossover k=2 [N_tr]", "1e+05"),
            ("crossover k=3 [N_tr]", "1e+05"),
            ("crossover k=4 [N_tr]", "1e+05"),
        ]

    def test_sweep_spec_chiplet_at_lam_lo(self, capsys):
        assert main(["sweep", "--spec", "chiplet", "--k-max", "3",
                     "--ntr-points", "20", "--lam-lo", "0.8",
                     "--ntr-hi", "1e9", "--tile-size", "25"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "60"),
            ("feasible cells", "44"),
            ("tiles (computed/resumed/total)", "3 / 0 / 3"),
            ("tile shape", "1 x 20"),
            ("workers", "1"),
            ("min cost per transistor [$1e-6]", "21.59"),
            ("optimal chiplet count", "3"),
            ("optimal transistor count", "4.281e+05"),
            ("crossover k=2 [N_tr]", "2.637e+05"),
            ("crossover k=3 [N_tr]", "2.637e+05"),
        ]

    def test_sweep_spec_chiplet_one_row_has_no_crossover(self, capsys):
        assert main(["sweep", "--spec", "chiplet", "--k-max", "1",
                     "--ntr-points", "60", "--tile-size", "60"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "60"),
            ("feasible cells", "60"),
            ("tiles (computed/resumed/total)", "1 / 0 / 1"),
            ("tile shape", "1 x 60"),
            ("workers", "1"),
            ("min cost per transistor [$1e-6]", "107.8"),
            ("optimal chiplet count", "1"),
            ("optimal transistor count", "1e+05"),
        ]

    def test_sweep_spec_chiplet_all_infeasible(self, capsys):
        assert main(["sweep", "--spec", "chiplet", "--k-max", "2",
                     "--ntr-lo", "1e12", "--ntr-hi", "1e13",
                     "--ntr-points", "2", "--lam-lo", "2.0"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "4"),
            ("feasible cells", "0"),
            ("tiles (computed/resumed/total)", "1 / 0 / 1"),
            ("tile shape", "2 x 2"),
            ("workers", "1"),
            ("crossover k=2 [N_tr]", "nan"),
        ]

    def test_sweep_fab(self, tmp_path, capsys):
        grid = tmp_path / "grid.npy"
        assert main(["sweep", "--ntr-points", "12", "--lam-points", "15",
                     "--tile-size", "40", "--output", str(grid)]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "180"),
            ("feasible cells", "178"),
            ("tiles (computed/resumed/total)", "6 / 0 / 6"),
            ("tile shape", "2 x 15"),
            ("workers", "1"),
            ("min cost per transistor [$1e-6]", "5.323"),
            ("optimal feature size [um]", "0.6643"),
            ("optimal transistor count", "1e+05"),
            ("saved grid", str(grid)),
        ]

    def test_sweep_fab_all_infeasible(self, capsys):
        assert main(["sweep", "--ntr-lo", "1e12", "--ntr-hi", "1e12",
                     "--ntr-points", "1", "--lam-points", "2"]) == 0
        assert _summary_rows(capsys.readouterr().out) == [
            ("grid points", "2"),
            ("feasible cells", "0"),
            ("tiles (computed/resumed/total)", "1 / 0 / 1"),
            ("tile shape", "1 x 2"),
            ("workers", "1"),
        ]


class TestFitYield:
    _SMALL = ["fit-yield", "--lots", "2", "--wafers", "2", "--seed", "7",
              "--wafer-radius", "5.0"]

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        # --metrics/--trace on a previous main() call leave the global
        # observability switch on, which would append the metrics table
        # after this test's stdout (breaking e.g. JSON parsing).
        from repro import obs
        obs.disable()
        yield
        obs.disable()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fit-yield"])
        assert args.lots == 8
        assert args.wafers == 5
        assert args.defect_density == 0.8
        assert args.wafer_alpha == 1.5
        assert args.lot_alpha == 2.0
        assert args.format == "table"
        assert args.workers is None

    def test_table_output_ranks_all_laws(self, capsys):
        assert main(self._SMALL) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "AIC" in out
        for law in ("poisson", "murphy", "seeds", "bose_einstein",
                    "negative_binomial", "compound_poisson_gamma",
                    "hierarchical", "mixture"):
            assert law in out
        assert "best by AIC" in out

    def test_law_subset_and_json_format(self, capsys):
        import json
        assert main(self._SMALL + ["--laws", "poisson,seeds",
                                   "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert {fit["name"] for fit in blob["ranking"]} \
            == {"poisson", "seeds"}
        assert blob["n_lots"] == 2
        assert blob["ranking"][0]["aic"] <= blob["ranking"][1]["aic"]

    def test_deterministic_for_fixed_seed(self, capsys):
        assert main(self._SMALL) == 0
        first = capsys.readouterr().out
        assert main(self._SMALL) == 0
        assert capsys.readouterr().out == first

    def test_unknown_law_exit_2(self, capsys):
        rc = main(self._SMALL + ["--laws", "weibull"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_flag_reports_fit_counters(self, capsys):
        assert main(self._SMALL + ["--laws", "poisson,murphy",
                                   "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "yield.fit.calls" in out
        assert "yield.fit.laws" in out

    def test_trace_flag_writes_fit_spans(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        assert main(self._SMALL + ["--laws", "poisson,seeds",
                                   "--trace", str(trace)]) == 0
        assert "wrote" in capsys.readouterr().err
        text = trace.read_text()
        assert "yield.fit" in text
        assert "yield.fit.poisson" in text
        assert "yield.fit.seeds" in text


class TestServeAndLoadgenCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.record is None
        assert args.density == 150.0

    def test_loadgen_parser_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])
        args = build_parser().parse_args(["loadgen", "--port", "8123"])
        assert args.rps == 200.0
        assert args.requests == 200
        assert args.connections == 8
        assert not args.no_verify

    def test_loadgen_against_live_server(self, capsys):
        from repro.serve.http import ServerThread
        with ServerThread() as srv:
            rc = main(["loadgen", "--port", str(srv.port),
                       "--requests", "20", "--rps", "400",
                       "--connections", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 bitwise mismatches" in out
        assert "p99=" in out

    def test_loadgen_bad_mix_exit_2(self, capsys):
        rc = main(["loadgen", "--port", "1", "--mix", "cost"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
