"""The ``offline`` workload's process: sweeps and a Monte Carlo lot.

``python perfbench/offline_job.py --seed S --seconds T --workers W
[--trace] [--setup-only]``

Prints ``READY`` once the sweep runner and its pool have finished a
first task (the parent times launch-to-READY as set-up), then runs the
analysis job in a closed loop for ``T`` seconds: a Fig.-8
``FabCostSweep`` landscape and a k = 1..8 ``ChipletCrossoverSweep`` on
fresh seeded axes, then a sharded ``SpotDefectSimulator`` lot.  Every
job's outputs are checked outside the timed calls.  The last stdout
line is a JSON object with the totals.

With ``--trace`` it instead times the same jobs with ``workers=1``
(the pool-speedup base), then installs the layer wrappers and repeats
both legs traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import procs  # noqa: E402
import workloads as wl  # noqa: E402

from repro.batch.sweep import (  # noqa: E402
    ChipletCrossoverSweep,
    FabCostSweep,
    TiledSweepRunner,
)
from repro.core.optimization import transistor_cost_full  # noqa: E402
from repro.geometry import Die, Wafer  # noqa: E402
from repro.system.chiplet import ChipletCostModel  # noqa: E402
from repro.yieldsim import (  # noqa: E402
    DefectSizeDistribution,
    SpotDefectSimulator,
)

SIM = SpotDefectSimulator(
    Wafer(radius_cm=7.5), Die.square(0.35),
    defect_density_per_cm2=200.0,
    size_distribution=DefectSizeDistribution(r0_um=0.3, p=4.07),
    kill_radius_um=0.5)
CHIPLET_MODEL = ChipletCostModel()
#: Jobs per leg of the traced run.
TRACE_JOBS = 4


def run_job(runner: TiledSweepRunner, seed: int, job: int,
            workers: int) -> dict:
    """One timed job; returns its outputs and the time of each call."""
    fab_rows, fab_cols, chip_cols, chip_lam, lot_seed = \
        wl.offline_axes(seed, job)
    rows_k = np.asarray(wl.CHIPLET_K)
    t0 = time.perf_counter()
    fab = runner.run(FabCostSweep(), fab_rows, fab_cols)
    chip = runner.run(ChipletCrossoverSweep(feature_size_um=chip_lam),
                      rows_k, chip_cols)
    t2 = time.perf_counter()
    lot = SIM.simulate_lot(wl.LOT_WAFERS, seed=lot_seed, workers=workers)
    t3 = time.perf_counter()
    return {"fab": fab, "chip": chip, "lot": lot, "chip_lam": chip_lam,
            "lot_seed": lot_seed, "sweep_s": t2 - t0, "lot_s": t3 - t2,
            "job_s": t3 - t0,
            "points": fab.n_points + chip.n_points,
            "wafers": len(lot)}


def check_job(out: dict, seed: int, job: int) -> tuple[int, int]:
    """(checks made, checks failed) for one job's outputs."""
    rng = np.random.default_rng([seed, job, 1])
    attempted = failed = 0
    fab = out["fab"]
    for _ in range(wl.CHECK_CELLS):
        i = int(rng.integers(fab.shape[0]))
        j = int(rng.integers(fab.shape[1]))
        want = transistor_cost_full(float(fab.row_values[i]),
                                    float(fab.col_values[j]))
        got = float(fab.values[i, j])
        attempted += 1
        if not (got == want or abs(got - want) <= 1e-12 * abs(want)):
            failed += 1
    chip = out["chip"]
    for _ in range(wl.CHECK_CELLS):
        i = int(rng.integers(chip.shape[0]))
        j = int(rng.integers(chip.shape[1]))
        want = CHIPLET_MODEL.cost_per_transistor(
            int(chip.row_values[i]), float(chip.col_values[j]),
            out["chip_lam"])
        attempted += 1
        failed += float(chip.values[i, j]) != want
    ref = SIM.simulate_lot(1, seed=out["lot_seed"], workers=1)[0]
    lead = out["lot"][0]
    attempted += 1
    failed += not (np.array_equal(ref.defect_counts, lead.defect_counts)
                   and ref.n_defects_total == lead.n_defects_total
                   and np.array_equal(ref.die_centers_cm,
                                      lead.die_centers_cm))
    return attempted, failed


def closed_loop(runner, seed: int, seconds: float, workers: int) -> dict:
    run_job(runner, seed, wl.WARMUP_JOB, workers)  # imports, caches, pools
    jobs, sweep_s, lot_s, points, wafers = [], 0.0, 0.0, 0, 0
    attempted = failed = 0
    cpu_s = 0.0
    deadline = time.perf_counter() + seconds
    job = 0
    while not jobs or time.perf_counter() < deadline:
        # Between jobs the sweep pool is idle and the lot pool is gone,
        # so no process exits while the CPU readings are taken.
        cpu0 = procs.tree_cpu_s(os.getpid())
        out = run_job(runner, seed, job, workers)
        cpu_s += procs.tree_cpu_s(os.getpid()) - cpu0
        a, f = check_job(out, seed, job)
        attempted, failed = attempted + a, failed + f
        jobs.append(out["job_s"] * 1e3)
        sweep_s += out["sweep_s"]
        lot_s += out["lot_s"]
        points += out["points"]
        wafers += out["wafers"]
        job += 1
    return {"jobs_ms": jobs, "sweep_points_per_s": points / sweep_s,
            "mc_wafers_per_s": wafers / lot_s,
            "cpu_us_per_cost": cpu_s / points * 1e6,
            "attempted": attempted, "failed": failed}


def traced(runner, seed: int, workers: int) -> dict:
    """Untimed-by-trace legs first (pool speedups), then traced legs."""
    import tracing

    checks = [0, 0]

    def leg(r, w, first):
        jobs = range(first, first + TRACE_JOBS)
        outs = [run_job(r, seed, j, w) for j in jobs]
        for j, out in zip(jobs, outs):
            a, f = check_job(out, seed, j)
            checks[0] += a
            checks[1] += f
        return outs

    def total(outs, key):
        return sum(o[key] for o in outs)

    with TiledSweepRunner(workers=1) as seq_runner:
        run_job(runner, seed, wl.WARMUP_JOB, workers)
        run_job(seq_runner, seed, wl.WARMUP_JOB, 1)
        # Same axes on both untraced legs, fresh axes once traced.
        par, seq = leg(runner, workers, 0), leg(seq_runner, 1, 0)
        rec = tracing.Recorder()
        tracing.install(rec)
        traced_par = leg(runner, workers, TRACE_JOBS)
        t_mid = time.monotonic()
        leg(seq_runner, 1, 2 * TRACE_JOBS)
    # Engine kernels run in this process only on the sequential leg.
    m, bases = tracing.offline_metrics(
        [s for s in rec.spans if s[1] >= t_mid],
        [e for e in rec.events if e[1] >= t_mid])
    par_spans = [s for s in rec.spans if s[1] < t_mid]
    runs = [s for s in par_spans if s[0] == "batch.sweep.run"]
    lots = [s for s in par_spans if s[0] == "yieldsim.lot"]
    m["batch.sweep.run_s"] = sum(s[2] - s[1] for s in runs) / len(runs)
    m["batch.sweep.tiles"] = sum(s[6] for s in runs)
    m["batch.sweep.pool_speedup"] = total(seq, "sweep_s") \
        / total(par, "sweep_s")
    m["yieldsim.lot_s"] = sum(s[2] - s[1] for s in lots) / len(lots)
    m["yieldsim.defects_thrown"] = sum(s[6] for s in lots)
    m["yieldsim.pool_speedup"] = total(seq, "lot_s") / total(par, "lot_s")
    m["yieldsim.wafers_per_s"] = total(par, "wafers") / total(par, "lot_s")
    m["bench.trace_overhead"] = total(traced_par, "job_s") \
        / total(par, "job_s") - 1.0
    bases.update({
        "batch.sweep.run_s": f"{len(runs)} traced runs",
        "batch.sweep.pool_speedup":
            f"workers=1 {total(seq, 'sweep_s'):.3f} s / workers={workers} "
            f"{total(par, 'sweep_s'):.3f} s",
        "yieldsim.lot_s": f"{len(lots)} traced lots",
        "yieldsim.pool_speedup":
            f"workers=1 {total(seq, 'lot_s'):.3f} s / workers={workers} "
            f"{total(par, 'lot_s'):.3f} s",
        "yieldsim.wafers_per_s": f"{total(par, 'wafers')} wafers",
        "bench.trace_overhead":
            f"traced {total(traced_par, 'job_s'):.3f} s / untraced "
            f"{total(par, 'job_s'):.3f} s over {TRACE_JOBS} jobs",
    })
    return {"metrics": m, "bases": bases, "attempted": checks[0],
            "failed": checks[1],
            "missing": tracing.missing("offline", rec.spans, rec.events)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM (also sent when the benchmark dies) leave through the
    # runner's context manager, so its pool workers are shut down too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with TiledSweepRunner(workers=args.workers) as runner:
        # Set-up ends when the pool has finished its first task.
        runner.run(FabCostSweep(), [1.0e6, 2.0e6], [0.8, 1.0])
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced(runner, args.seed, args.workers)
        else:
            result = closed_loop(runner, args.seed, args.seconds,
                                 args.workers)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
