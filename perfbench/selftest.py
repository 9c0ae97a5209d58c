"""Self-test of the benchmark's output checks.

``python3 perfbench/selftest.py``

At tiny sizes it drives a live ``python -m repro serve`` with single
and bulk requests twice: once as served, where the error rate must be
0, and once with one served cost per response moved by one ulp
before the check, where every response must count as failed.  It then
does the same for the offline checks (a Fig.-8 cell, a crossover
cell and the leading Monte Carlo wafer).  Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import asyncio
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import client  # noqa: E402
import procs  # noqa: E402
import workloads as wl  # noqa: E402


def nudge(i, req, payload):
    """Move the first served cost of a response by one ulp."""
    costs = payload["cost_per_transistor_dollars"]
    if isinstance(costs, list):
        costs[0] = math.nextafter(costs[0], math.inf)
    else:
        payload["cost_per_transistor_dollars"] = \
            math.nextafter(costs, math.inf)
    return payload


def http_rates(port: int) -> list[tuple[str, float, float]]:
    out = []
    cases = [("http_single", wl.single_requests(200, seed=7), 400.0),
             ("http_bulk", wl.bulk_pool(7)[:6], 20.0)]
    for name, reqs, rps in cases:
        offsets = wl.arrivals(len(reqs), rps, seed=7)
        rates = []
        for tamper in (None, nudge):
            ph = asyncio.run(client.run_phase(
                port, reqs, offsets, rps, connections=2, tamper=tamper))
            rates.append(ph.failures / ph.attempted)
        out.append((name, *rates))
    return out


def offline_rates() -> tuple[float, float]:
    import numpy as np

    import offline_job as job
    from repro.batch.sweep import TiledSweepRunner

    with TiledSweepRunner(workers=1) as runner:
        out = job.run_job(runner, 7, 0, 1)
        a, f = job.check_job(out, 7, 0)
        clean = f / a
        out["fab"].values[...] *= 1.0 + 1e-9
        out["chip"].values[...] = np.nextafter(out["chip"].values, np.inf)
        out["lot"] = job.SIM.simulate_lot(1, seed=out["lot_seed"] + 1,
                                          workers=1)
        a, f = job.check_job(out, 7, 0)
    return clean, f / a


def main() -> int:
    server = procs.Server(procs.serve_cli())
    try:
        results = http_rates(server.port)
    finally:
        server.stop()
    results.append(("offline", *offline_rates()))
    ok = True
    for name, clean, corrupted in results:
        good = clean == 0.0 and corrupted > 0.0
        ok &= good
        print(f"{name:12s} error_rate clean {clean:.4f}, corrupted "
              f"{corrupted:.4f}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
