"""Extension bench — transistor cost over calendar time.

Temporal restatement of Figs. 6/7: the Scenario-#1 trajectory keeps
falling through the 1990s while the Scenario-#2 trajectory reverses
right around the paper's publication ("Recently the situation has
changed ... the cost per transistor may no longer decrease" — Sec. III,
written 1994).

This file also hosts the *performance* trajectory: an aggregation over
the committed ``BENCH_*.json`` records that stacks every tier of the
stack — batch engine, micro-batch serving, sweep process pool,
Monte-Carlo sharding, replay parity, obs overhead, and the HTTP network
tier — into
one ``perf_trajectory`` record, so the per-tier speedups and the
end-to-end network latency live side by side in ``BENCH_repro.json``.
"""

import json
from pathlib import Path

import numpy as np

from conftest import emit, emit_json
from repro.analysis import ascii_chart, ascii_table
from repro.core import divergence_year, optimistic_trajectory, realistic_trajectory


def _compute():
    opt = optimistic_trajectory(1.2)
    real = realistic_trajectory(1.8)
    years = np.linspace(1985.0, 2004.0, 39)
    return (
        years,
        np.array([opt.cost_at_year(y) * 1e6 for y in years]),
        np.array([real.cost_at_year(y) * 1e6 for y in years]),
        real.reversal_year(1985.0, 2005.0),
        divergence_year(ratio=4.0),
    )


def test_cost_per_transistor_over_time(benchmark):
    years, opt_costs, real_costs, reversal, diverge = benchmark(_compute)
    emit("Extension — C_tr vs year (Scenario #1 X=1.2 vs Scenario #2 X=1.8)",
         ascii_chart(years, {"optimistic": opt_costs,
                             "realistic": real_costs},
                     log_y=True, x_label="year", y_label="C_tr [$1e-6]")
         + f"\n\nrealistic-trajectory cost reversal year: {reversal}"
         + f"\noptimistic/realistic 4x divergence year: {diverge}")

    # Optimistic: monotone decline through the whole span.
    assert np.all(np.diff(opt_costs) < 0)
    # Realistic: reverses in the paper's era.
    assert reversal is not None and 1988.0 <= reversal <= 1996.0
    assert real_costs[-1] > real_costs[0]  # net rise over the span
    # Divergence precedes the paper: planning on memory economics was
    # already misleading non-memory products by 4x before 1994.
    assert diverge is not None and diverge <= 1994.0


# --------------------------------------------------------------------
# Performance trajectory — aggregate the committed BENCH_*.json files.
# --------------------------------------------------------------------

_BENCH_DIR = Path(__file__).resolve().parent


def _load_bench(name: str):
    path = _BENCH_DIR / name
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _tier_engine(d):
    return {"speedup_vs_scalar": d["speedup"],
            "warm_speedup": d["warm_speedup"]}


def _tier_serve(d):
    t = d["throughput"]
    return {"speedup_steady": t["speedup_steady"],
            "bitwise_mismatches": t["bitwise_mismatches"]}


def _tier_sweep(d):
    m = d["mega_sweep"]
    return {"points": m["points"],
            "speedup_pool_over_single": m["speedup_pool_over_single"],
            "bitwise_mismatches": m["bitwise_mismatches"]}


def _tier_mc(d):
    return {"speedup": d["speedup"],
            "bitwise_identical": d["bitwise_identical"]}


def _tier_replay(d):
    r = d["replay_parity"]
    return {"queries": r["queries"], "mismatches": r["mismatches"]}


def _tier_obs(d):
    return {"serve_overhead_ratio": d["serve"]["ratio"],
            "max_allowed_overhead": d["max_allowed_overhead"]}


def _tier_chiplet(d):
    b = d["chiplet_batch"]
    return {"points": b["points"],
            "speedup_batch_over_scalar": b["speedup_batch_over_scalar"],
            "bitwise_mismatches": b["bitwise_mismatches"]}


def _tier_http(d):
    o = d["open_loop"]
    return {"requests": o["requests"],
            "achieved_rps": o["achieved_rps"],
            "p50_ms": o["latency_ms"]["p50"],
            "p95_ms": o["latency_ms"]["p95"],
            "p99_ms": o["latency_ms"]["p99"],
            "error_budget": o["error_budget"],
            "bitwise_mismatches": o["bitwise_mismatches"],
            "replay_exit_code": o["replay_exit_code"]}


# Bottom of the stack to the network edge, in order.
_TIERS = [
    ("engine", "BENCH_engine.json", _tier_engine),
    ("serve", "BENCH_serve.json", _tier_serve),
    ("sweep", "BENCH_sweep.json", _tier_sweep),
    ("chiplet", "BENCH_chiplet.json", _tier_chiplet),
    ("mc", "BENCH_mc.json", _tier_mc),
    ("replay", "BENCH_replay.json", _tier_replay),
    ("obs", "BENCH_obs.json", _tier_obs),
    ("http", "BENCH_http.json", _tier_http),
]


def collect_perf_trajectory() -> dict:
    """One record per tier of the stack, from whatever BENCH files exist.

    Tiers whose JSON is missing or malformed are simply absent — the
    committed files always yield at least engine/serve/http.
    """
    tiers = {}
    for name, filename, extract in _TIERS:
        data = _load_bench(filename)
        if data is None:
            continue
        try:
            tiers[name] = extract(data)
        except (KeyError, TypeError):
            continue
    return {"kind": "perf_trajectory", "tiers": tiers}


def test_perf_trajectory_includes_network_tier():
    record = collect_perf_trajectory()
    tiers = record["tiers"]

    # The committed BENCH files cover the whole ladder; the network
    # tier (BENCH_http.json, written by bench_http.py and committed
    # alongside it) must be part of the trajectory.
    for required in ("engine", "serve", "http"):
        assert required in tiers, f"missing {required} tier"

    http = tiers["http"]
    assert http["requests"] >= 1000
    assert http["bitwise_mismatches"] == 0
    assert http["replay_exit_code"] == 0
    assert http["p50_ms"] <= http["p95_ms"] <= http["p99_ms"]

    rows = [(name, json.dumps(stats, sort_keys=True))
            for name, stats in tiers.items()]
    emit("Performance trajectory — per-tier BENCH aggregation",
         ascii_table(("tier", "summary"), rows))
    emit_json(record)
