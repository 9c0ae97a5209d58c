"""Command-line interface: reproduce figures/tables and price designs.

Usage::

    python -m repro figure fig7                # any of fig1..fig8
    python -m repro table table3               # table1..table3
    python -m repro cost --transistors 3.1e6 --feature-size 0.8 \\
        --density 150 --yield0 0.7 --c0 700 --x 1.8
    python -m repro cost --input points.csv --density 150 --format json
    python -m repro optimize --die-area 1.0
    python -m repro optimize --input areas.csv --format csv
    python -m repro scenarios --lam-lo 0.25 --lam-hi 1.0
    python -m repro simulate --lot-size 25 --workers 4 --seed 7
    python -m repro fit-yield --lots 8 --wafers 6 --lot-alpha 2.0 \\
        --wafer-alpha 1.2 --seed 7 --format table
    python -m repro sweep --ntr-points 1000 --lam-points 1000 \\
        --workers 4 --backend process --tile-size 65536 \\
        --checkpoint runs/fig8 --output landscape.npy
    python -m repro sweep --checkpoint runs/fig8 --resume ...
    python -m repro chiplet --transistors 1e7 --chiplets 4 \\
        --packaging interposer
    python -m repro chiplet --sweep --k-max 8 --ntr-points 400 \\
        --workers 2 --backend process --checkpoint runs/chiplet
    python -m repro cost --input points.csv --density 150 \\
        --record traffic.jsonl
    python -m repro replay --log traffic.jsonl --run-dir runs/replay

Everything prints plain text (ASCII charts/tables); exit code 0 on
success, 2 on bad arguments.

Batch mode: ``cost`` and ``optimize`` accept ``--input points.csv`` /
``points.json`` (see :mod:`repro.serve.io` for the accepted fields)
and then emit one result row per point as ``--format csv`` (default)
or ``--format json`` columnar arrays — the
:class:`~repro.batch.engine.BatchCostResult` convention.  ``cost``
batches are priced through :class:`repro.serve.CostService`, so a
10,000-point file costs a handful of vectorized evaluations, not
10,000 scalar ones; ``optimize`` batches run one tiled sweep through
:func:`repro.core.optimization.optimal_feature_size_for_die_areas`.

``sweep`` evaluates a full (λ, N_tr) Fig.-8 landscape through
:class:`repro.batch.sweep.TiledSweepRunner` — tiled, optionally on
the shared-memory process pool (``--workers/--backend/--tile-size``),
optionally checkpointed and resumable (``--checkpoint DIR``,
``--resume``); see ``docs/performance.md`` ("Mega-sweeps").

``cost --record FILE`` appends every query the batch service prices
to a JSONL traffic log; ``replay`` re-drives such a log through the
serve scheduler, asserts bitwise result parity, and writes a run dir
(``raw/replay.json`` → ``results.csv`` → ``report.md``) — the full
record → replay → report loop is ``docs/replay.md``.

Every command also accepts the observability flags from
``docs/observability.md``: ``--trace FILE`` writes the run's span tree
as JSON lines, ``--metrics`` prints the metrics table after the
command's own output.  ``REPRO_TRACE=1`` / ``REPRO_METRICS=1`` in the
environment enable the same instrumentation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import obs as _obs
from .analysis import (
    ascii_chart,
    ascii_table,
    fig1_feature_size,
    fig2_fab_cost,
    fig3_die_size,
    fig4_steps_and_defects,
    fig5_defect_distribution,
    fig6_scenario1,
    fig7_scenario2,
    fig8_contours,
    render_contour_grid,
    table1,
    table2,
    table3,
)
from .core import TransistorCostModel, WaferCostModel
from .core.optimization import optimal_feature_size_for_die_area
from .errors import (
    BackpressureError,
    ParameterError,
    ReproError,
    ServiceClosedError,
)
from .geometry import Wafer
from .yieldsim import ReferenceAreaYield

_FIGURES = {
    "fig1": fig1_feature_size,
    "fig2": fig2_fab_cost,
    "fig3": fig3_die_size,
    "fig4": fig4_steps_and_defects,
    "fig5": fig5_defect_distribution,
    "fig6": fig6_scenario1,
    "fig7": fig7_scenario2,
}

_TABLES = {"table1": table1, "table2": table2, "table3": table3}


def _print_figure(name: str) -> None:
    if name == "fig8":
        data, landscape = fig8_contours()
        levels = landscape.contour_levels(8, max_decades=2.5)
        print(f"{data.name} — {data.notes}")
        print(render_contour_grid(landscape.grid(), list(levels),
                                  x_values=list(landscape.feature_sizes_um),
                                  y_values=list(landscape.transistor_counts)))
        return
    data = _FIGURES[name]()
    print(f"{data.name} — {data.notes}")
    print(ascii_chart(data.x, data.series, log_y=data.log_y,
                      x_label=data.x_label, y_label=data.y_label))


def _print_table(name: str) -> None:
    data = _TABLES[name]()
    print(f"{data.name} — {data.notes}")
    print(ascii_table(data.headers, list(data.rows)))


def _build_cost_model(args: argparse.Namespace) -> TransistorCostModel:
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=args.c0,
                                  cost_growth_rate=args.x),
        wafer=Wafer(radius_cm=args.wafer_radius))


def _require_flag(value: object, flag: str, why: str) -> None:
    if value is None:
        raise ParameterError(f"{flag} is required {why}")


def _cost_queries_from_file(args: argparse.Namespace, path: str) -> list:
    """Build ModelCostQuery objects from a point file (--input/--prewarm)."""
    from .serve import ModelCostQuery, load_points
    model = _build_cost_model(args)
    queries = []
    for i, point in enumerate(load_points(path)):
        transistors = point.get("transistors", args.transistors)
        feature_size = point.get("feature_size", args.feature_size)
        density = point.get("density", args.density)
        _require_flag(transistors, "--transistors",
                      f"(point {i} has no transistors field)")
        _require_flag(feature_size, "--feature-size",
                      f"(point {i} has no feature_size field)")
        _require_flag(density, "--density",
                      f"(point {i} has no density field)")
        if "die_area" in point:
            raise ParameterError(
                f"point {i}: die_area is an 'optimize --input' field; "
                f"cost points take transistors/feature_size")
        queries.append(ModelCostQuery(
            n_transistors=transistors, feature_size_um=feature_size,
            model=model, design_density=density,
            yield_model=ReferenceAreaYield(
                reference_yield=point.get("yield0", args.yield0),
                reference_area_cm2=1.0)))
    return queries


def _cost_batch(args: argparse.Namespace) -> None:
    import sys as _sys

    from .serve import CostService, format_served_csv, format_served_json
    service = CostService(record=args.record)
    with service:
        if args.prewarm is not None:
            from .obs.recording import (
                is_recorded_log,
                load_recorded_queries,
            )
            cache = service.scheduler.cache
            if is_recorded_log(args.prewarm):
                # A recorder JSONL log carries the full query spec.
                warm_queries = load_recorded_queries(args.prewarm)
            else:
                warm_queries = _cost_queries_from_file(args, args.prewarm)
            if cache is None:
                print(f"prewarm skipped: caching disabled "
                      f"({len(warm_queries)} queries ignored)",
                      file=_sys.stderr)
            else:
                warmed = cache.prewarm(warm_queries)
                print(f"prewarmed {warmed} unique points from "
                      f"{len(warm_queries)} recorded queries",
                      file=_sys.stderr)
        if args.input is None:
            return
        try:
            results = service.map(_cost_queries_from_file(args, args.input))
        except (BackpressureError, ServiceClosedError) as exc:
            # Shell pipelines get the same structured error object as
            # HTTP clients (repro.serve.codec) before the exit-2 prose.
            import json as _json

            from .serve.codec import error_body
            print(_json.dumps(error_body(exc)), file=_sys.stderr)
            raise
    formatter = format_served_json if args.format == "json" \
        else format_served_csv
    print(formatter(results), end="")


def _cmd_cost(args: argparse.Namespace) -> None:
    if args.input is not None or args.prewarm is not None:
        _cost_batch(args)
        return
    _require_flag(args.transistors, "--transistors", "without --input")
    _require_flag(args.feature_size, "--feature-size", "without --input")
    _require_flag(args.density, "--density", "without --input")
    model = _build_cost_model(args)
    breakdown = model.evaluate(
        n_transistors=args.transistors,
        feature_size_um=args.feature_size,
        design_density=args.density,
        yield_model=ReferenceAreaYield(reference_yield=args.yield0,
                                       reference_area_cm2=1.0))
    rows = [
        ("wafer cost [$]", breakdown.wafer_cost_dollars),
        ("die area [cm^2]", breakdown.die_area_cm2),
        ("dies per wafer", float(breakdown.dies_per_wafer)),
        ("yield", breakdown.yield_value),
        ("good dies per wafer", breakdown.good_dies_per_wafer),
        ("cost per good die [$]", breakdown.cost_per_good_die_dollars),
        ("cost per transistor [$1e-6]",
         breakdown.cost_per_transistor_microdollars),
    ]
    print(ascii_table(("quantity", "value"), rows))


_OPTIMIZE_FIELDS = ("die_area_cm2", "optimal_feature_size_um",
                    "cost_per_transistor_dollars",
                    "cost_per_transistor_microdollars")


def _optimize_batch(args: argparse.Namespace) -> None:
    import csv as _csv
    import io as _io
    import json as _json

    from .core.optimization import optimal_feature_size_for_die_areas
    from .serve import load_points
    areas = []
    for i, point in enumerate(load_points(args.input)):
        area = point.get("die_area")
        _require_flag(area, "die_area",
                      f"(point {i} has no die_area field)")
        areas.append(area)
    lams, costs = optimal_feature_size_for_die_areas(
        areas, workers=args.workers, backend=args.backend)
    rows = [(area, float(lam), float(cost), float(cost) * 1e6)
            for area, lam, cost in zip(areas, lams, costs)]
    if args.format == "json":
        columns = {name: [row[i] for row in rows]
                   for i, name in enumerate(_OPTIMIZE_FIELDS)}
        print(_json.dumps(columns, indent=2))
    else:
        out = _io.StringIO()
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(_OPTIMIZE_FIELDS)
        writer.writerows(rows)
        print(out.getvalue(), end="")


def _cmd_optimize(args: argparse.Namespace) -> None:
    if args.input is not None:
        _optimize_batch(args)
        return
    _require_flag(args.die_area, "--die-area", "without --input")
    lam, cost = optimal_feature_size_for_die_area(args.die_area)
    print(ascii_table(("quantity", "value"), [
        ("die area [cm^2]", args.die_area),
        ("optimal feature size [um]", lam),
        ("cost per transistor at optimum [$1e-6]", cost * 1e6),
    ]))


def _cmd_sweep(args: argparse.Namespace) -> None:
    import numpy as np

    from .batch.sweep import (
        ChipletCrossoverSweep,
        FabCostSweep,
        TiledSweepRunner,
    )
    if args.ntr_points < 1 or args.lam_points < 1:
        raise ParameterError("--ntr-points and --lam-points must be >= 1")
    counts = np.geomspace(args.ntr_lo, args.ntr_hi, args.ntr_points)
    if args.spec == "chiplet":
        # Rows are chiplet counts, columns are transistor budgets; the
        # feature size is fixed (--lam-lo) — the crossover framing.
        if args.k_max < 1:
            raise ParameterError("--k-max must be >= 1")
        spec: object = ChipletCrossoverSweep(feature_size_um=args.lam_lo)
        row_values = np.arange(1, args.k_max + 1, dtype=float)
        col_values = counts
    else:
        spec = FabCostSweep()
        row_values = counts
        col_values = np.linspace(args.lam_lo, args.lam_hi, args.lam_points)
    with TiledSweepRunner(backend=args.backend, workers=args.workers,
                          tile_size=args.tile_size,
                          checkpoint_dir=args.checkpoint,
                          resume=args.resume) as runner:
        result = runner.run(spec, row_values, col_values)
    if args.output:
        np.save(args.output, result.values)
    grid = result.values
    finite = np.isfinite(grid)
    stats = result.stats
    rows = [
        ("grid points", float(grid.size)),
        ("feasible cells", float(np.count_nonzero(finite))),
        ("tiles (computed/resumed/total)",
         f"{stats['tiles_computed']} / {stats['tiles_resumed']} / "
         f"{stats['tiles_total']}"),
        ("tile shape", f"{stats['tile_rows']} x {stats['tile_cols']}"),
        ("backend", stats["backend"]),
        ("workers", float(stats["workers"])),
        ("seconds", stats["seconds"]),
    ]
    at = result.argmin()
    if at is not None:
        i, j = at
        rows.append(("min cost per transistor [$1e-6]", grid[i, j] * 1e6))
        if args.spec == "chiplet":
            rows += [
                ("optimal chiplet count", float(row_values[i])),
                ("optimal transistor count", float(col_values[j])),
            ]
        else:
            rows += [
                ("optimal feature size [um]", float(col_values[j])),
                ("optimal transistor count", float(row_values[i])),
            ]
    if args.spec == "chiplet" and args.k_max > 1:
        mono = grid[0]
        for i in range(1, grid.shape[0]):
            wins = finite[i] & (grid[i] < mono)
            first = int(np.argmax(wins)) if wins.any() else None
            rows.append((
                f"crossover k={int(row_values[i])} [N_tr]",
                float(col_values[first]) if first is not None
                else float("nan")))
    if args.output:
        rows.append(("saved grid", args.output))
    print(ascii_table(("quantity", "value"), rows))


def _chiplet_model(args: argparse.Namespace):
    from .system.chiplet import PACKAGING_TECHS, ChipletCostModel
    return ChipletCostModel(packaging=PACKAGING_TECHS[args.packaging],
                            probe_coverage=args.probe_coverage)


def _chiplet_sweep(args: argparse.Namespace) -> None:
    import numpy as np

    from .batch.sweep import ChipletCrossoverSweep, TiledSweepRunner
    if args.k_max < 2:
        raise ParameterError("--k-max must be >= 2 for a crossover sweep")
    if args.ntr_points < 2:
        raise ParameterError("--ntr-points must be >= 2")
    spec = ChipletCrossoverSweep(feature_size_um=args.feature_size,
                                 model=_chiplet_model(args))
    ks = np.arange(1, args.k_max + 1, dtype=float)
    counts = np.geomspace(args.ntr_lo, args.ntr_hi, args.ntr_points)
    with TiledSweepRunner(backend=args.backend, workers=args.workers,
                          tile_size=args.tile_size,
                          checkpoint_dir=args.checkpoint,
                          resume=args.resume) as runner:
        result = runner.run(spec, ks, counts)
    grid = result.values
    if args.output:
        np.save(args.output, grid)
    finite = np.isfinite(grid)
    stats = result.stats
    rows = [
        ("feature size [um]", args.feature_size),
        ("grid points", float(grid.size)),
        ("feasible cells", float(np.count_nonzero(finite))),
        ("backend", stats["backend"]),
        ("workers", float(stats["workers"])),
        ("tiles (computed/resumed/total)",
         f"{stats['tiles_computed']} / {stats['tiles_resumed']} / "
         f"{stats['tiles_total']}"),
        ("seconds", stats["seconds"]),
    ]
    mono = grid[0]
    for i in range(1, grid.shape[0]):
        wins = finite[i] & (grid[i] < mono)
        if wins.any():
            value = float(counts[int(np.argmax(wins))])
        else:
            value = float("nan")
        rows.append((f"crossover k={int(ks[i])} [N_tr]", value))
    if args.output:
        rows.append(("saved grid", args.output))
    print(ascii_table(("quantity", "value"), rows))


def _cmd_chiplet(args: argparse.Namespace) -> None:
    if args.sweep:
        _chiplet_sweep(args)
        return
    breakdown = _chiplet_model(args).system_cost(
        args.chiplets, args.transistors, args.feature_size)
    rows = [
        ("chiplets", float(breakdown.chiplets)),
        ("transistors per chiplet", breakdown.transistors_per_chiplet),
        ("chiplet area [cm^2]", breakdown.chiplet_area_cm2),
        ("wafer cost [$]", breakdown.wafer_cost_dollars),
        ("chiplet dies per wafer", float(breakdown.dies_per_wafer)),
        ("die yield", breakdown.die_yield),
        ("assembly yield", breakdown.assembly_yield),
        ("effective yield", breakdown.effective_yield),
        ("packaging cost [$]", breakdown.packaging_cost_dollars),
        ("silicon cost per transistor [$1e-6]",
         breakdown.silicon_cost_per_transistor_dollars * 1e6),
        ("overhead cost per transistor [$1e-6]",
         breakdown.overhead_cost_per_transistor_dollars * 1e6),
        ("cost per transistor [$1e-6]",
         breakdown.cost_per_transistor_microdollars),
        ("system cost [$]", breakdown.system_cost_dollars),
        ("feasible", float(breakdown.feasible)),
    ]
    print(ascii_table(("quantity", "value"), rows))


def _cmd_scenarios(args: argparse.Namespace) -> None:
    import numpy as np

    from .core import SCENARIO_1, SCENARIO_2
    lams = np.linspace(args.lam_lo, args.lam_hi, 26)
    series = {}
    for x in SCENARIO_1.growth_rates:
        series[f"scen1 X={x}"] = np.array(
            [SCENARIO_1.cost_dollars(l, x) * 1e6 for l in lams])
    for x in SCENARIO_2.growth_rates:
        series[f"scen2 X={x}"] = np.array(
            [SCENARIO_2.cost_dollars(l, x) * 1e6 for l in lams])
    print("Cost per transistor [$1e-6] vs feature size [um]")
    print(ascii_chart(lams, series, log_y=True,
                      x_label="feature size [um]", y_label="C_tr [$1e-6]"))


def _cmd_shrink(args: argparse.Namespace) -> None:
    from .core import ShrinkAnalysis
    analysis = ShrinkAnalysis(
        n_transistors=args.transistors,
        design_density=args.density,
        wafer_cost=WaferCostModel(reference_cost_dollars=args.c0,
                                  cost_growth_rate=args.x),
        mature_density_per_cm2=args.defect_density)
    old = analysis.evaluate_node(args.from_node)
    new = analysis.evaluate_node(args.to_node)
    gain = analysis.shrink_gain_at_maturity(args.from_node, args.to_node) \
        if args.to_node < args.from_node else float("nan")
    rows = [
        ("die area old/new [cm^2]",
         f"{old.die_area_cm2:.3f} / {new.die_area_cm2:.3f}"),
        ("dies per wafer old/new",
         f"{old.dies_per_wafer} / {new.dies_per_wafer}"),
        ("yield old/new",
         f"{old.yield_value:.3f} / {new.yield_value:.3f}"),
        ("wafer cost old/new [$]",
         f"{old.wafer_cost_dollars:.0f} / {new.wafer_cost_dollars:.0f}"),
        ("mature cost gain (old/new)", f"{gain:.2f}x"),
    ]
    print(ascii_table(("quantity", "value"), rows))


def _cmd_wafermap(args: argparse.Namespace) -> None:
    import numpy as np

    from .geometry import Die
    from .yieldsim import SpotDefectSimulator
    from .analysis import render_wafer_map
    sim = SpotDefectSimulator(
        Wafer(radius_cm=args.wafer_radius),
        Die.square(args.die_side),
        defect_density_per_cm2=args.defect_density,
        clustering_alpha=args.alpha)
    wmap = sim.simulate_wafer(np.random.default_rng(args.seed))
    print(render_wafer_map(wmap, show_counts=args.counts))


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .analysis import render_lot_summary
    from .batch import dies_per_wafer_batch
    from .geometry import Die
    from .yieldsim import (
        NegativeBinomialYield,
        PoissonYield,
        SpotDefectSimulator,
    )
    sim = SpotDefectSimulator(
        Wafer(radius_cm=args.wafer_radius),
        Die.square(args.die_side),
        defect_density_per_cm2=args.defect_density,
        clustering_alpha=args.alpha)
    lot = sim.simulate_lot(args.lot_size, seed=args.seed,
                           workers=args.workers)
    print(render_lot_summary(lot))
    model = PoissonYield() if args.alpha is None \
        else NegativeBinomialYield(alpha=args.alpha)
    y_cf = model.yield_for_area(sim.die.area_cm2,
                                sim.expected_killer_density())
    # The eq.-(4) centered-grid count, for comparison against the
    # simulator's phase-optimized placement (runs on the batch engine,
    # so the shared BatchCache sees this lookup).
    n_eq4 = int(dies_per_wafer_batch(sim.wafer, sim.die.width_cm,
                                     sim.die.height_cm)[()])
    print(ascii_table(("quantity", "value"), [
        ("wafers", float(lot.n_wafers)),
        ("workers", float(args.workers if args.workers else 1)),
        ("dies per wafer", float(lot[0].n_dies if len(lot) else 0)),
        ("dies per wafer (eq. 4 grid)", float(n_eq4)),
        ("defects thrown", float(lot.n_defects_total)),
        ("lot yield (Monte Carlo)", lot.yield_fraction),
        ("closed-form yield", y_cf),
        ("abs difference", abs(lot.yield_fraction - y_cf)),
    ]))


def _cmd_fit_yield(args: argparse.Namespace) -> None:
    import json

    from .geometry import Die
    from .yieldsim import SpotDefectSimulator, fit_yield_models
    die = Die.square(args.die_side)
    sim = SpotDefectSimulator(
        Wafer(radius_cm=args.wafer_radius), die,
        defect_density_per_cm2=args.defect_density,
        clustering_alpha=args.wafer_alpha,
        lot_alpha=args.lot_alpha)
    lots = sim.simulate_lots(args.lots, args.wafers, seed=args.seed,
                             workers=args.workers)
    laws = [v.strip() for v in args.laws.split(",")] if args.laws else None
    report = fit_yield_models(lots, die.area_cm2, laws=laws)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"fit over {report.n_lots} lots / {report.n_wafers} wafers / "
          f"{report.n_dies} dies ({report.n_defects} killer defects)")
    print(ascii_table(
        ("rank", "law", "k", "logL", "AIC", "BIC", "dAIC"),
        [(rank, name, k, f"{ll:.2f}", f"{aic:.2f}", f"{bic:.2f}",
          f"{daic:.2f}")
         for rank, name, k, ll, aic, bic, daic in report.table_rows()]))
    best = report.best
    params = ", ".join(f"{k}={v:.4g}" for k, v in best.params.items())
    print(f"best by AIC: {best.name} ({params})")


def _cmd_replay(args: argparse.Namespace) -> None:
    from .replay import run_all
    summary = run_all(args.log, args.run_dir, mode=args.mode,
                      speed=args.speed, timeout=args.timeout)
    r = summary["result"]
    print(ascii_table(
        ("wall s", "qps", "p50 ms", "p95 ms", "p99 ms", "occupancy",
         "mismatches"),
        [(f"{r.wall_s:.3f}", f"{r.qps:.0f}", f"{r.p50_ms:.2f}",
          f"{r.p95_ms:.2f}", f"{r.p99_ms:.2f}", f"{r.mean_occupancy:.2f}",
          str(r.mismatches))]))
    print(f"run dir: {summary['run_dir']}")
    print(f"  results: {summary['csv']}")
    print(f"  report:  {summary['report']}")
    if summary["mismatches"]:
        raise ReproError(
            f"{summary['mismatches']} replayed cost(s) were not bitwise "
            f"equal to the recording (see {summary['raw']})")
    print("parity: all replayed costs bitwise equal to the recording")


def _cmd_report(args: argparse.Namespace) -> None:
    from .analysis.reproduce import main as report_main
    report_main([args.output] if args.output else [])


def _cmd_serve(args: argparse.Namespace) -> None:
    from .serve.http import run_server
    run_server(host=args.host, port=args.port, record=args.record,
               max_batch_size=args.max_batch_size,
               max_queue_depth=args.max_queue_depth,
               density=args.density, yield0=args.yield0, c0=args.c0,
               x=args.x, wafer_radius=args.wafer_radius)


def _cmd_loadgen(args: argparse.Namespace) -> None:
    from .loadgen import build_workload, format_report, run_load
    mix = None
    if args.mix:
        mix = {}
        for part in args.mix.split(","):
            kind, _, fraction = part.partition("=")
            if not fraction:
                raise ParameterError(
                    f"--mix parts look like kind=fraction, got {part!r}")
            mix[kind.strip()] = float(fraction)
    specs = build_workload(args.requests, mix=mix,
                           bulk_size=args.bulk_size, seed=args.seed)
    result = run_load(args.host, args.port, specs, rps=args.rps,
                      connections=args.connections,
                      timeout_s=args.timeout, seed=args.seed,
                      verify=not args.no_verify)
    print(format_report(result))
    if result.mismatches:
        raise ReproError(
            f"{result.mismatches} HTTP-served cost(s) were not bitwise "
            f"equal to the scalar reference")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maly DAC-1994 silicon cost model — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every subcommand (docs/observability.md).
    obs_args = argparse.ArgumentParser(add_help=False)
    obs_args.add_argument("--trace", metavar="FILE", default=None,
                          help="write the run's span trace as JSON lines")
    obs_args.add_argument("--metrics", action="store_true",
                          help="print the metrics table after the command")

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[obs_args], **kwargs)

    fig = add_parser("figure", help="print a reproduced figure")
    fig.add_argument("name", choices=sorted(_FIGURES) + ["fig8"])

    tab = add_parser("table", help="print a reproduced table")
    tab.add_argument("name", choices=sorted(_TABLES))

    cost = add_parser("cost", help="price a design with eq. (1)")
    cost.add_argument("--transistors", type=float, default=None,
                      help="N_tr (required unless --input provides it)")
    cost.add_argument("--feature-size", type=float, default=None,
                      help="lambda in microns (required unless --input "
                           "provides it)")
    cost.add_argument("--density", type=float, default=None,
                      help="d_d in lambda^2 per transistor (required "
                           "unless --input provides it)")
    cost.add_argument("--yield0", type=float, default=0.7,
                      help="reference yield for a 1 cm^2 die")
    cost.add_argument("--c0", type=float, default=500.0,
                      help="cost of the 1 um reference wafer [$]")
    cost.add_argument("--x", type=float, default=1.8,
                      help="wafer cost growth per generation")
    cost.add_argument("--wafer-radius", type=float, default=7.5,
                      help="wafer radius [cm]")
    cost.add_argument("--input", metavar="FILE", default=None,
                      help="price every point in FILE (.csv or .json; "
                           "fields transistors/feature_size and optional "
                           "density/yield0 overrides) through the "
                           "micro-batching service")
    cost.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="batch output format (with --input)")
    cost.add_argument("--prewarm", metavar="FILE", default=None,
                      help="replay recorded queries into the batch cache "
                           "before serving: a recorder JSONL traffic log "
                           "(auto-detected) or a points file (CSV/JSON, "
                           "same fields as --input); may be used without "
                           "--input")
    cost.add_argument("--record", metavar="FILE", default=None,
                      help="append every served query to FILE as a JSONL "
                           "traffic log (replayable via 'repro replay')")

    opt = add_parser("optimize",
                         help="cost-optimal feature size for a die area")
    opt.add_argument("--die-area", type=float, default=None,
                     help="die area [cm^2] (required unless --input)")
    opt.add_argument("--input", metavar="FILE", default=None,
                     help="optimize every die_area in FILE (.csv or .json)")
    opt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="batch output format (with --input)")
    opt.add_argument("--workers", type=int, default=None,
                     help="worker count for the batch coarse-scan sweep "
                          "(with --input; results are identical for any "
                          "value)")
    opt.add_argument("--backend", default="auto",
                     choices=("auto", "thread", "process"),
                     help="sweep backend for the batch coarse scan")

    sweep = add_parser(
        "sweep",
        help="tiled (lambda, N_tr) cost landscape, optionally on the "
             "shared-memory process pool")
    sweep.add_argument("--ntr-lo", type=float, default=1e5,
                       help="smallest transistor count (geometric axis)")
    sweep.add_argument("--ntr-hi", type=float, default=1e7,
                       help="largest transistor count")
    sweep.add_argument("--ntr-points", type=int, default=200,
                       help="points along the N_tr axis")
    sweep.add_argument("--lam-lo", type=float, default=0.3,
                       help="smallest feature size [um]")
    sweep.add_argument("--lam-hi", type=float, default=2.0,
                       help="largest feature size [um]")
    sweep.add_argument("--lam-points", type=int, default=200,
                       help="points along the lambda axis")
    sweep.add_argument("--tile-size", type=int, default=65536,
                       help="target points per tile")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker count (results are identical for any "
                            "value)")
    sweep.add_argument("--backend", default="auto",
                       choices=("auto", "thread", "process"),
                       help="tile execution backend")
    sweep.add_argument("--checkpoint", metavar="DIR", default=None,
                       help="flush each finished tile to DIR so a killed "
                            "sweep can resume")
    sweep.add_argument("--resume", action="store_true",
                       help="continue from the tiles already in "
                            "--checkpoint DIR")
    sweep.add_argument("--output", metavar="FILE", default=None,
                       help="save the cost grid as a .npy array")
    sweep.add_argument("--spec", default="fab",
                       choices=("fab", "chiplet"),
                       help="sweep specification: 'fab' is the (N_tr, "
                            "lambda) Fig.-8 landscape; 'chiplet' is the "
                            "(k, N_tr) crossover grid at fixed lambda "
                            "(--lam-lo)")
    sweep.add_argument("--k-max", type=int, default=8,
                       help="largest chiplet count (with --spec chiplet)")

    chiplet = add_parser(
        "chiplet",
        help="price a k-chiplet assembly, or sweep the "
             "monolithic-vs-chiplet crossover (see docs/chiplet.md)")
    chiplet.add_argument("--transistors", type=float, default=1e7,
                         help="system transistor budget N_tr")
    chiplet.add_argument("--feature-size", type=float, default=0.8,
                         help="lambda in microns")
    chiplet.add_argument("--chiplets", type=int, default=4,
                         help="number of chiplets the budget is split "
                              "across")
    chiplet.add_argument("--packaging", default="organic",
                         choices=("organic", "interposer", "bare"),
                         help="packaging technology (docs/chiplet.md)")
    chiplet.add_argument("--probe-coverage", type=float, default=0.95,
                         help="wafer-probe fault coverage in [0, 1]")
    chiplet.add_argument("--sweep", action="store_true",
                         help="sweep the (k, N_tr) crossover grid instead "
                              "of pricing one assembly")
    chiplet.add_argument("--k-max", type=int, default=8,
                         help="largest chiplet count (with --sweep)")
    chiplet.add_argument("--ntr-lo", type=float, default=1e5,
                         help="smallest transistor budget (with --sweep)")
    chiplet.add_argument("--ntr-hi", type=float, default=1e9,
                         help="largest transistor budget (with --sweep)")
    chiplet.add_argument("--ntr-points", type=int, default=200,
                         help="points along the budget axis (with --sweep)")
    chiplet.add_argument("--tile-size", type=int, default=65536,
                         help="target points per sweep tile")
    chiplet.add_argument("--workers", type=int, default=None,
                         help="worker count (results are identical for "
                              "any value)")
    chiplet.add_argument("--backend", default="auto",
                         choices=("auto", "thread", "process"),
                         help="tile execution backend (with --sweep)")
    chiplet.add_argument("--checkpoint", metavar="DIR", default=None,
                         help="flush each finished tile to DIR so a "
                              "killed sweep can resume")
    chiplet.add_argument("--resume", action="store_true",
                         help="continue from the tiles already in "
                              "--checkpoint DIR")
    chiplet.add_argument("--output", metavar="FILE", default=None,
                         help="save the sweep cost grid as a .npy array")

    scen = add_parser("scenarios",
                          help="Scenario #1 vs #2 cost sweep")
    scen.add_argument("--lam-lo", type=float, default=0.25)
    scen.add_argument("--lam-hi", type=float, default=1.0)

    shrink = add_parser("shrink",
                            help="evaluate moving a product between nodes")
    shrink.add_argument("--transistors", type=float, required=True)
    shrink.add_argument("--density", type=float, required=True)
    shrink.add_argument("--from-node", type=float, required=True,
                        help="current lambda [um]")
    shrink.add_argument("--to-node", type=float, required=True,
                        help="target lambda [um]")
    shrink.add_argument("--defect-density", type=float, default=0.05,
                        help="mature killer density at 1 um [1/cm^2]")
    shrink.add_argument("--c0", type=float, default=500.0)
    shrink.add_argument("--x", type=float, default=1.4)

    wmap = add_parser("wafermap",
                          help="simulate and draw one wafer map")
    wmap.add_argument("--die-side", type=float, default=1.0,
                      help="square die side [cm]")
    wmap.add_argument("--defect-density", type=float, default=0.8,
                      help="killer defects per cm^2")
    wmap.add_argument("--wafer-radius", type=float, default=7.5)
    wmap.add_argument("--alpha", type=float, default=None,
                      help="gamma clustering parameter (omit = Poisson)")
    wmap.add_argument("--seed", type=int, default=0)
    wmap.add_argument("--counts", action="store_true",
                      help="print defect counts instead of pass/fail")

    simulate = add_parser(
        "simulate",
        help="Monte Carlo a whole lot, optionally sharded across processes")
    simulate.add_argument("--lot-size", type=int, default=10,
                          help="number of wafers in the lot")
    simulate.add_argument("--die-side", type=float, default=1.0,
                          help="square die side [cm]")
    simulate.add_argument("--defect-density", type=float, default=0.8,
                          help="killer defects per cm^2")
    simulate.add_argument("--wafer-radius", type=float, default=7.5)
    simulate.add_argument("--alpha", type=float, default=None,
                          help="gamma clustering parameter (omit = Poisson)")
    simulate.add_argument("--seed", type=int, default=0,
                          help="root seed; wafers get spawned child streams")
    simulate.add_argument("--workers", type=int, default=None,
                          help="process count for lot sharding (results are "
                               "identical for any value)")

    fit = add_parser(
        "fit-yield",
        help="simulate clustered lots and rank yield laws by AIC/BIC")
    fit.add_argument("--lots", type=int, default=8,
                     help="number of independent lots to simulate")
    fit.add_argument("--wafers", type=int, default=5,
                     help="wafers per lot")
    fit.add_argument("--die-side", type=float, default=1.0,
                     help="square die side [cm]")
    fit.add_argument("--defect-density", type=float, default=0.8,
                     help="mean killer defects per cm^2")
    fit.add_argument("--wafer-radius", type=float, default=7.5)
    fit.add_argument("--wafer-alpha", type=float, default=1.5,
                     help="wafer-level gamma clustering shape "
                          "(omit-able: pass nothing for the default, "
                          "use a large value to approach Poisson)")
    fit.add_argument("--lot-alpha", type=float, default=2.0,
                     help="lot-level gamma hyper-distribution shape")
    fit.add_argument("--seed", type=int, default=0,
                     help="root seed; lots and wafers get spawned "
                          "child streams")
    fit.add_argument("--workers", type=int, default=None,
                     help="process count for lot sharding (results "
                          "are identical for any value)")
    fit.add_argument("--laws", default=None,
                     help="comma-separated subset of laws to fit "
                          "(default: all)")
    fit.add_argument("--format", choices=("table", "json"),
                     default="table", help="output format")

    replay = add_parser(
        "replay",
        help="replay a recorded traffic log through the scheduler "
             "and write a run-dir report")
    replay.add_argument("--log", metavar="FILE", required=True,
                        help="recorder JSONL traffic log (from "
                             "'cost --record' or CostService(record=...))")
    replay.add_argument("--run-dir", metavar="DIR", required=True,
                        help="output directory: raw/replay.json, "
                             "results.csv, report.md")
    replay.add_argument("--mode", choices=("open", "closed"),
                        default="closed",
                        help="closed: submit as fast as accepted; open: "
                             "honor recorded arrival times")
    replay.add_argument("--speed", type=float, default=1.0,
                        help="time-scale for open-loop arrivals "
                             "(2.0 = replay twice as fast)")
    replay.add_argument("--timeout", type=float, default=300.0,
                        help="drain deadline [s]")

    serve = add_parser(
        "serve",
        help="serve cost queries over HTTP (see docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--record", metavar="FILE", default=None,
                       help="append every served query to FILE as a JSONL "
                            "traffic log (replayable via 'repro replay')")
    serve.add_argument("--max-batch-size", type=int, default=256,
                       help="scheduler flush threshold")
    serve.add_argument("--max-queue-depth", type=int, default=10_000,
                       help="queue bound; beyond it requests get 429")
    serve.add_argument("--density", type=float, default=150.0,
                       help="default d_d for bare point-field bodies")
    serve.add_argument("--yield0", type=float, default=0.7,
                       help="default 1 cm^2 reference yield")
    serve.add_argument("--c0", type=float, default=500.0,
                       help="cost of the 1 um reference wafer [$]")
    serve.add_argument("--x", type=float, default=1.8,
                       help="wafer cost growth per generation")
    serve.add_argument("--wafer-radius", type=float, default=7.5,
                       help="wafer radius [cm]")

    loadgen = add_parser(
        "loadgen",
        help="open-loop load generator against a running 'repro serve'")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True,
                         help="port of the server under test")
    loadgen.add_argument("--rps", type=float, default=200.0,
                         help="target Poisson arrival rate [req/s]")
    loadgen.add_argument("--requests", type=int, default=200,
                         help="number of requests to issue")
    loadgen.add_argument("--connections", type=int, default=8,
                         help="keep-alive client connection pool size")
    loadgen.add_argument("--mix", default=None,
                         help="endpoint mix, e.g. 'cost=0.6,bulk=0.2,"
                              "optimize=0.1,chiplet=0.1'")
    loadgen.add_argument("--bulk-size", type=int, default=32,
                         help="points per /v1/cost/bulk request")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request timeout [s]")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="workload + arrival-process seed")
    loadgen.add_argument("--no-verify", action="store_true",
                         help="skip the bitwise parity check against the "
                              "scalar reference")

    report = add_parser("report",
                        help="write the full reproduction report")
    report.add_argument("output", nargs="?", default=None,
                        help="output file (default: stdout)")
    return parser


def _emit_observability(args: argparse.Namespace) -> None:
    # Trace file and metrics table, after the command's own output.
    # Runs even when the command errored — a partial trace of a failed
    # run is exactly when you want one.
    if args.trace and _obs.tracing_enabled():
        n = _obs.write_trace_jsonl(args.trace)
        print(f"wrote {n} spans to {args.trace}", file=sys.stderr)
    if _obs.metrics_enabled():
        rows = [(name, float(value)) for name, value in _obs.metrics.rows()]
        print()
        if rows:
            print(ascii_table(("metric", "value"), rows))
        else:
            print("(no metrics recorded)")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace or args.metrics:
        _obs.enable(trace=_obs.tracing_enabled() or bool(args.trace),
                    metrics=_obs.metrics_enabled() or args.metrics)
    status = 0
    try:
        with _obs.span(f"cli.{args.command}"):
            if args.command == "figure":
                _print_figure(args.name)
            elif args.command == "table":
                _print_table(args.name)
            elif args.command == "cost":
                _cmd_cost(args)
            elif args.command == "optimize":
                _cmd_optimize(args)
            elif args.command == "sweep":
                _cmd_sweep(args)
            elif args.command == "chiplet":
                _cmd_chiplet(args)
            elif args.command == "scenarios":
                _cmd_scenarios(args)
            elif args.command == "shrink":
                _cmd_shrink(args)
            elif args.command == "wafermap":
                _cmd_wafermap(args)
            elif args.command == "simulate":
                _cmd_simulate(args)
            elif args.command == "fit-yield":
                _cmd_fit_yield(args)
            elif args.command == "replay":
                _cmd_replay(args)
            elif args.command == "serve":
                _cmd_serve(args)
            elif args.command == "loadgen":
                _cmd_loadgen(args)
            elif args.command == "report":
                _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    _emit_observability(args)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
