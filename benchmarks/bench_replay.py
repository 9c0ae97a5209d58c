"""Record → replay → report: the traffic-replay acceptance bench.

The acceptance claim: a **1,000-query mixed workload** recorded from a
live :class:`~repro.serve.CostService` replays through the scheduler
with **zero bitwise mismatches** against the recording, and the run
dir carries the full artifact chain (``raw/replay.json`` →
``results.csv`` → ``report.md``).

Parity, artifact and latency-sanity asserts (replay percentiles are
finite and ordered) always run; the timings are *recorded* in
``BENCH_replay.json`` but not gated.  ``REPRO_BENCH_PARITY_ONLY=1``
shrinks the workload to a smoke size for CI legs that only need the
parity signal.

The record lands in ``benchmarks/BENCH_replay.json`` (one JSON object,
one key per claim) and the shared ``BENCH_repro.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from conftest import emit, emit_json
from repro.core import TransistorCostModel, WaferCostModel
from repro.core.optimization import FIG8_FAB, FabCharacterization
from repro.geometry import Wafer
from repro.obs.recording import load_recorded_log
from repro.replay.rundir import run_all
from repro.serve import CostService, FabCostQuery, ModelCostQuery
from repro.yieldsim import ReferenceAreaYield

PARITY_ONLY = bool(os.environ.get("REPRO_BENCH_PARITY_ONLY"))
N_QUERIES = 200 if PARITY_ONLY else 1_000

_BENCH_REPLAY_JSON = Path(__file__).resolve().parent / "BENCH_replay.json"

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


def _mixed_workload(n_queries):
    """Mixed traffic: two fab signatures + a model, with duplicates.

    Five interleaved explorer streams over the same grid — the same
    shape the serving bench uses, so the recorded log carries the
    coalescing and dedup behaviour replay must reproduce bitwise.
    """
    per_stream = n_queries // 5
    grid = _grid(max(per_stream // 10, 2), 10)[:per_stream]
    streams = [
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam) for n, lam in grid],
        [FabCostQuery(n, lam, fab=_DERATED_FAB) for n, lam in grid],
        [ModelCostQuery(n, lam, model=_MODEL, design_density=150.0,
                        yield_model=_YIELD_LAW) for n, lam in grid],
    ]
    queries = [q for batch in zip(*streams) for q in batch]
    assert len(queries) == n_queries
    return queries


def _update_bench_json(key, record):
    """Read-modify-write one claim's record into BENCH_replay.json."""
    data = {}
    if _BENCH_REPLAY_JSON.exists():
        try:
            data = json.loads(_BENCH_REPLAY_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    if not isinstance(data, dict) or "kind" in data:
        data = {}
    data[key] = record
    _BENCH_REPLAY_JSON.write_text(json.dumps(data, indent=2) + "\n")


def test_recorded_workload_replays_bitwise():
    queries = _mixed_workload(N_QUERIES)
    with tempfile.TemporaryDirectory(prefix="bench_replay_") as tmp:
        tmp = Path(tmp)
        log_path = tmp / "traffic.jsonl"

        # Record the live pass.
        with CostService(max_batch_size=256, max_wait_s=0.002,
                         record=log_path) as svc:
            svc.costs(queries)
        log = load_recorded_log(log_path)
        assert len(log) == N_QUERIES
        assert log.unreplayable == 0

        run_dir = tmp / "run"
        summary = run_all(log, run_dir, mode="closed")
        artifacts = ["raw/replay.json", "results.csv", "report.md"]
        missing = [a for a in artifacts if not (run_dir / a).exists()]
        r = summary["result"]

    stats = {
        "wall_s": r.wall_s,
        "qps": r.qps,
        "p50_ms": r.p50_ms,
        "p95_ms": r.p95_ms,
        "p99_ms": r.p99_ms,
        "mean_occupancy": r.mean_occupancy,
        "dedup_rate": r.dedup_rate,
        "mismatches": r.mismatches,
    }
    record = {
        "kind": "replay_parity",
        "queries": N_QUERIES,
        "parity_only": PARITY_ONLY,
        "replay": stats,
        "mismatches": r.mismatches,
        "missing_artifacts": missing,
    }
    _update_bench_json("replay_parity", record)
    emit_json(record)
    emit("Traffic replay — recorded workload through the scheduler",
         f"workload      : {N_QUERIES} recorded mixed queries "
         f"(3 signatures, duplicate explorer traffic)\n"
         f"replay        : wall {stats['wall_s'] * 1e3:8.1f} ms  "
         f"qps {stats['qps']:7.0f}  p50 {stats['p50_ms']:7.2f} ms  "
         f"p99 {stats['p99_ms']:7.2f} ms  "
         f"occ {stats['mean_occupancy']:.2f}\n"
         f"contract      : zero bitwise mismatches, full artifact chain\n"
         f"mismatches    : {r.mismatches}")

    assert not missing, f"run dir is missing artifacts: {missing}"
    assert r.mismatches == 0, \
        f"{r.mismatches} replayed costs differ bitwise from the recording"
    assert 0.0 <= stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"], \
        "latency percentiles unordered"
    assert stats["qps"] > 0.0, "no throughput measured"
