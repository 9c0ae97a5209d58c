"""Serving throughput — micro-batching vs the per-request scalar loop.

The acceptance claim: 1,000 mixed single-point cost queries answered
through :class:`~repro.serve.CostService` run at least **5x** faster
than the same 1,000 queries priced one at a time through the scalar
reference path, bitwise identically.  The pass also records the
service's operational shape: a per-flush batch-size histogram (from
``flush_history``) and p50/p95/p99 queue latency from raw per-ticket
timestamps.

The record lands in ``benchmarks/BENCH_serve.json`` (one JSON object,
one key per claim) and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from conftest import emit, emit_json
from repro.batch import default_cache
from repro.core import TransistorCostModel, WaferCostModel
from repro.core.optimization import (
    FIG8_FAB,
    FabCharacterization,
    transistor_cost_full,
)
from repro.errors import ParameterError
from repro.geometry import Wafer
from repro.obs.registry import nearest_rank
from repro.serve import CostService, FabCostQuery, ModelCostQuery
from repro.yieldsim import ReferenceAreaYield

N_QUERIES = 1_000
MIN_SPEEDUP = 5.0
REPS = 5

_BENCH_SERVE_JSON = Path(__file__).resolve().parent / "BENCH_serve.json"

_DERATED_FAB = FabCharacterization(
    cost_growth_rate=FIG8_FAB.cost_growth_rate,
    reference_cost_dollars=1.25 * FIG8_FAB.reference_cost_dollars,
    wafer_radius_cm=FIG8_FAB.wafer_radius_cm,
    design_density=FIG8_FAB.design_density,
    defect_coefficient=FIG8_FAB.defect_coefficient,
    size_exponent_p=FIG8_FAB.size_exponent_p)

_MODEL = TransistorCostModel(
    wafer_cost=WaferCostModel(reference_cost_dollars=700.0,
                              cost_growth_rate=1.8),
    wafer=Wafer(radius_cm=7.5))
_YIELD_LAW = ReferenceAreaYield(reference_yield=0.7,
                                reference_area_cm2=1.0)


def _grid(n_lams, n_counts):
    lams = [round(0.4 + 1.0 * i / (n_lams - 1), 12)
            for i in range(n_lams)]
    counts = [10 ** (5 + 2.0 * j / (n_counts - 1))
              for j in range(n_counts)]
    return [(n, lam) for lam in lams for n in counts]


def _mixed_workload():
    """1,000 queries: explorers over two fabs + a model, interleaved.

    Three explorers revisit the same Fig.-8 grid (duplicate traffic a
    per-request loop prices three times), one sweeps a derated fab,
    one prices the grid through the general evaluate() form.
    """
    grid = _grid(20, 10)  # 200 unique (λ, N_tr) points
    streams = [
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam, fab=_DERATED_FAB) for n, lam in grid],
        [ModelCostQuery(n, lam, model=_MODEL, design_density=150.0,
                        yield_model=_YIELD_LAW) for n, lam in grid],
    ]
    queries = [q for batch in zip(*streams) for q in batch]
    assert len(queries) == N_QUERIES
    return queries


def _scalar_answer(query):
    if isinstance(query, FabCostQuery):
        return transistor_cost_full(query.n_transistors,
                                    query.feature_size_um, query.fab)
    try:
        breakdown = query.model.evaluate(
            n_transistors=query.n_transistors,
            feature_size_um=query.feature_size_um,
            design_density=query.design_density,
            yield_model=query.yield_model,
            defect_density_per_cm2=query.defect_density_per_cm2)
    except ParameterError:
        return math.inf  # the service masks unfittable dies to inf
    return breakdown.cost_per_transistor_dollars


def _latency_percentiles(svc, queries):
    """One served pass with raw per-ticket queue latencies."""
    done = []
    t0 = time.perf_counter()
    tickets = svc.submit_many(queries)
    for ticket in tickets:
        ticket.add_done_callback(
            lambda _t: done.append(time.perf_counter() - t0))
    for ticket in tickets:
        ticket.cost(timeout=30.0)
    done.sort()
    return {f"p{q}_ms": nearest_rank(done, q / 100) * 1e3
            for q in (50, 95, 99)}


def _flush_size_histogram(records):
    """Power-of-two buckets over per-flush request counts."""
    buckets = {}
    for rec in records:
        width = 1 << max(0, (rec.requests - 1).bit_length())
        label = f"<={width}"
        buckets[label] = buckets.get(label, 0) + 1
    return dict(sorted(buckets.items(), key=lambda kv: int(kv[0][2:])))


def _update_bench_json(key, record):
    """Read-modify-write one claim's record into BENCH_serve.json."""
    data = {}
    if _BENCH_SERVE_JSON.exists():
        try:
            data = json.loads(_BENCH_SERVE_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    if not isinstance(data, dict) or "kind" in data:
        data = {}  # legacy single-record layout: start fresh
    data[key] = record
    _BENCH_SERVE_JSON.write_text(json.dumps(data, indent=2) + "\n")


def test_serve_throughput_vs_scalar_loop():
    queries = _mixed_workload()

    # Per-request scalar baseline: best of REPS identical passes.
    t_scalar = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        want = [_scalar_answer(q) for q in queries]
        t_scalar = min(t_scalar, time.perf_counter() - t0)

    # Served: one long-lived service; the first pass is the cold
    # number (emptied cache), later passes the steady state.
    t_serve = []
    default_cache().clear()
    with CostService(max_batch_size=256, flush_history=4096) as svc:
        for _ in range(REPS):
            t0 = time.perf_counter()
            got = svc.costs(queries)
            t_serve.append(time.perf_counter() - t0)
        latency = _latency_percentiles(svc, queries)
        histogram = _flush_size_histogram(svc.scheduler.recent_flushes)
    t_cold, t_steady = t_serve[0], min(t_serve[1:])

    mismatches = sum(a != b for a, b in zip(got, want))
    speedup_cold = t_scalar / t_cold
    speedup_steady = t_scalar / t_steady

    record = {
        "kind": "serve_throughput",
        "queries": N_QUERIES,
        "unique_points_per_signature": 200,
        "signatures": 3,
        "reps": REPS,
        "scalar_best_s": t_scalar,
        "serve_cold_s": t_cold,
        "serve_steady_s": t_steady,
        "speedup_cold": speedup_cold,
        "speedup_steady": speedup_steady,
        "min_speedup_required": MIN_SPEEDUP,
        "bitwise_mismatches": mismatches,
        "flush_size_histogram": histogram,
        "queue_latency": latency,
    }
    _update_bench_json("throughput", record)
    emit_json(record)
    hist_text = "  ".join(f"{k}:{v}" for k, v in histogram.items())
    emit("Serving throughput — repro.serve vs per-request scalar loop",
         f"workload      : {N_QUERIES} mixed queries "
         f"(3 signatures, 200 unique points each, explorers overlap)\n"
         f"scalar loop   : {t_scalar * 1e3:8.2f} ms (best of {REPS})\n"
         f"serve (cold)  : {t_cold * 1e3:8.2f} ms  "
         f"-> {speedup_cold:5.1f}x\n"
         f"serve (steady): {t_steady * 1e3:8.2f} ms  "
         f"-> {speedup_steady:5.1f}x\n"
         f"flush sizes   : {hist_text}\n"
         f"queue latency : p50 {latency['p50_ms']:.2f} ms  "
         f"p95 {latency['p95_ms']:.2f} ms  "
         f"p99 {latency['p99_ms']:.2f} ms\n"
         f"contract      : steady-state >= {MIN_SPEEDUP}x, "
         f"bitwise parity on every query\n"
         f"mismatches    : {mismatches}")

    assert mismatches == 0, \
        f"{mismatches} served answers differ from the scalar reference"
    assert speedup_steady >= MIN_SPEEDUP, \
        f"steady-state speedup {speedup_steady:.1f}x is below the " \
        f"{MIN_SPEEDUP}x contract (scalar {t_scalar * 1e3:.2f} ms, " \
        f"serve {t_steady * 1e3:.2f} ms)"

