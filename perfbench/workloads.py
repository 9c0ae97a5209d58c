"""Seeded inputs, rates, ladders and SLOs of the three workloads.

Everything a run sends to the program is drawn here from the run's
``--seed``; the program only ever sees the generated request bodies
or sweep axes.  Each HTTP request carries its expected answers,
computed with the scalar reference, so the client can check every
served cost bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from repro.loadgen import build_workload
from repro.obs.recording import query_to_record
from repro.serve.http import chiplet_point_to_query, point_to_query
from repro.serve.query import FabCostQuery, scalar_reference_cost


#: Ladder steps last at least this long (s).
STEP_SECONDS = 1.5
#: Ratio between neighbouring rates of a ladder.
LADDER_RATIO = 1.1


@dataclass(frozen=True)
class HttpShape:
    """Rates, ladder and SLO of one HTTP workload."""

    nominal_rps: float
    slo_p99_ms: float
    #: Windows of a ladder step; each holds >= P99_SAMPLES requests.
    probe_windows: int = 3
    span: float = 4.0               # ladder covers nominal/span..nominal*span
    #: "ramp": step up from the nominal rate until the first miss — for
    #: latency that is not monotone in the rate.  "bisect": halve the
    #: ladder — for monotone latency and steps too long to ramp.
    search: str = "ramp"

    @property
    def ladder_rps(self) -> tuple[float, ...]:
        """The fixed rate ladder, ascending, with the nominal rate in it."""
        k = int(math.floor(math.log(self.span) / math.log(LADDER_RATIO)))
        return tuple(round(self.nominal_rps * LADDER_RATIO ** i, 3)
                     for i in range(-k, k + 1))


#: ``http_single``: the loadgen mix on its 8x6 (N_tr, lambda) grid.  At
#: 1,000 req/s the server is about 60% busy.  Nearer its first knee
#: (2,000 req/s: ~85% busy) latency follows CPU steal from other
#: tenants of the host and swung 3x between runs.  Latency is not
#: monotone in the rate (above the first knee the server sometimes
#: keeps up again with larger flushes), so a ramp reports the first knee.
SINGLE = HttpShape(nominal_rps=1000.0, slo_p99_ms=50.0)
#: ``http_bulk``: 32 unique points per body, ~3.7 ms of server CPU each,
#: so 60 req/s keeps the server about a quarter busy.  128-point bodies
#: (~10 ms) made every p99-certified ladder step last 20-30 s, too long
#: to bisect within one run.  Steps are one window; the ladder reaches
#: 6x the nominal rate, above the ~300 req/s the server saturates at.
BULK = HttpShape(nominal_rps=60.0, slo_p99_ms=150.0, probe_windows=1,
                 span=6.0, search="bisect")
SHAPES = {"http_single": SINGLE, "http_bulk": BULK}

SINGLE_MIX = {"cost": 0.7, "chiplet": 0.2, "optimize": 0.1}
BULK_POINTS = 32
#: Distinct bulk bodies per seed.  Bodies are reused round-robin; 256
#: of them put far more than the server's 128 cache entries between
#: two uses of one body, so a repeat still misses the cache.
BULK_POOL = 256
CHIPLET_COUNTS = (2, 3, 4, 8)
PACKAGINGS = ("organic", "interposer")


@dataclass(frozen=True)
class Request:
    """One request: target, encoded bytes, what a correct answer holds."""

    kind: str                      # cost | chiplet | optimize | bulk
    wire: bytes                    # the full HTTP/1.1 request
    expected: tuple                # costs in served order
    die_areas: tuple = ()          # optimize only

    @property
    def costs(self) -> int:
        return len(self.die_areas) if self.kind == "optimize" \
            else len(self.expected)


def _wire(target: str, body: str) -> bytes:
    raw = body.encode()
    return (f"POST {target} HTTP/1.1\r\nhost: bench\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(raw)}\r\n\r\n").encode() + raw


def single_requests(n: int, seed: int) -> list[Request]:
    """``n`` single-point requests drawn by :func:`repro.loadgen.build_workload`."""
    out = []
    for spec in build_workload(n, mix=SINGLE_MIX, seed=seed):
        out.append(Request(spec.kind, _wire(spec.target, spec.body),
                           spec.expected or (), spec.die_areas or ()))
    return out


def _bulk_body(rng: random.Random, form: int) -> Request:
    pts = [(10.0 ** rng.uniform(5.0, math.log10(3.0e7)),
            rng.uniform(0.35, 1.4)) for _ in range(BULK_POINTS)]
    if form == 0:      # recorded fab queries
        queries = [FabCostQuery(n, lam) for n, lam in pts]
        body = {"queries": [query_to_record(q) for q in queries]}
    elif form == 1:    # columnar bare points: the server-default model
        queries = [point_to_query({"transistors": n, "feature_size": lam})
                   for n, lam in pts]
        body = {"points": {"transistors": [n for n, _ in pts],
                           "feature_size": [lam for _, lam in pts]}}
    else:              # recorded chiplet queries, one assembly per body
        fields = {"chiplets": rng.choice(CHIPLET_COUNTS),
                  "packaging": rng.choice(PACKAGINGS)}
        queries = [chiplet_point_to_query(
            {"transistors": n, "feature_size": lam, **fields})
            for n, lam in pts]
        body = {"queries": [query_to_record(q) for q in queries]}
    expected = tuple(scalar_reference_cost(q) for q in queries)
    return Request("bulk", _wire("/v1/cost/bulk", json.dumps(body)),
                   expected)


def bulk_pool(seed: int) -> list[Request]:
    """The seed's distinct bulk bodies, rotating fab/points/chiplet."""
    rng = random.Random(seed)
    return [_bulk_body(rng, j % 3) for j in range(BULK_POOL)]


def bulk_requests(pool: list[Request], n: int, start: int) -> list[Request]:
    return [pool[(start + i) % len(pool)] for i in range(n)]


def arrivals(n: int, rps: float, seed: int) -> list[float]:
    """Poisson arrival offsets (s) for ``n`` requests at ``rps``."""
    rng = random.Random(seed)
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rps)
        out.append(t)
    return out


#: A p99 needs 1000 samples to have 10 beyond it.
P99_SAMPLES = 1000
#: The nominal phase is cut into this many consecutive windows.  The
#: report prints each window's p50, which shows CPU steal from other
#: tenants of the host as bursts; as a ladder step, the nominal phase
#: is judged on the median p99 of its windows that hold P99_SAMPLES.
NOMINAL_WINDOWS = 10


def phase_size(rps: float, seconds: float, windows: int = 1) -> int:
    """Requests in a phase: ``seconds`` of traffic, and enough for a p99
    in each of ``windows`` windows."""
    return max(windows * P99_SAMPLES, int(round(rps * seconds)))


# -- offline ---------------------------------------------------------------

#: Fig.-8 landscape: 512 N_tr rows x 512 lambda columns and crossover
#: plane: k = 1..8 rows x 32,768 N_tr columns, four 65,536-point tiles
#: each.  Lot: 4 wafers of bench_mc_shard's wafer (0.35 cm dies, 200
#: defects/cm^2).  Smaller sweeps and lots run slower on the pools than
#: without them (pool start-up and per-tile set-up dominate), which is
#: not the regime the pools are for.
FAB_ROWS, FAB_COLS = 512, 512
CHIPLET_K = tuple(float(k) for k in range(1, 9))
CHIPLET_COLS = 32768
LOT_WAFERS = 4
CHECK_CELLS = 32
#: Job index of the untimed warm-up job (its own seed stream).
WARMUP_JOB = 1_000_000


def offline_axes(seed: int, job: int):
    """Fresh sweep axes, crossover lambda and lot seed for one job."""
    import numpy as np

    rng = np.random.default_rng([seed, job])
    fab_rows = np.sort(10.0 ** rng.uniform(5.0, 7.5, FAB_ROWS))
    fab_cols = np.sort(rng.uniform(0.35, 1.4, FAB_COLS))
    chip_cols = np.sort(10.0 ** rng.uniform(5.0, 8.0, CHIPLET_COLS))
    chip_lam = float(rng.uniform(0.5, 1.2))
    lot_seed = int(rng.integers(0, 2 ** 31))
    return fab_rows, fab_cols, chip_cols, chip_lam, lot_seed
