"""The repository benchmark: one command, three workloads.

``python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1``

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``http_single``  open-loop single-point traffic against ``python -m
                 repro serve`` on its CLI defaults;
``http_bulk``    open-loop 32-point ``/v1/cost/bulk`` bodies, same server;
``offline``      a closed loop of Fig.-8 + crossover sweeps and a sharded
                 Monte Carlo lot in one process.

With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` a separate traced run carries the
per-layer metrics.  Every output is checked; ``failed`` counts what
was wrong.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from client import percentile, run_phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("http_single", "http_bulk", "offline")
#: Set-up time is the median over this many launches.
SETUP_LAUNCHES = 5


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _client_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# -- HTTP workloads ---------------------------------------------------------

class HttpRun:
    """Inputs and phases of one HTTP workload run."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        import workloads as wl

        self.wl = wl
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.shape = wl.SHAPES[name]
        self.conns = nproc()
        self.phases: list = []
        self._pool = wl.bulk_pool(seed) if name == "http_bulk" else None
        self._drawn = 0

    def requests(self, n: int, key: int):
        if self._pool is None:
            return self.wl.single_requests(n, self.seed * 1000 + key)
        reqs = self.wl.bulk_requests(self._pool, n, self._drawn)
        self._drawn += n
        return reqs

    def phase(self, port: int, rps: float, n: int, key: int, *,
              slo: bool = False, windows: int = 1):
        reqs = self.requests(n, key)
        offsets = self.wl.arrivals(n, rps, self.seed * 1000 + key + 500)
        ph = asyncio.run(run_phase(
            port, reqs, offsets, rps, connections=self.conns,
            windows=windows,
            slo_ms=self.shape.slo_p99_ms if slo else None))
        ph.costs_offered = sum(r.costs for r in reqs[:ph.attempted])
        self.phases.append(ph)
        return ph

    def warm_up(self, port: int) -> None:
        rps = self.shape.nominal_rps / 2
        self.phase(port, rps, max(20, int(rps)), key=999)

    def nominal(self, port: int):
        n = self.wl.phase_size(self.shape.nominal_rps, self.seconds)
        return self.phase(port, self.shape.nominal_rps, n, key=0,
                          windows=self.wl.NOMINAL_WINDOWS)

    def nominal_slo_windows(self, nominal) -> int:
        """Windows of the nominal phase that each hold a p99."""
        return max(1, min(nominal.windows,
                          nominal.planned // self.wl.P99_SAMPLES))

    def capacity(self, port: int, nominal) -> tuple[float, list]:
        """Highest ladder rate meeting the SLO below the first that misses.

        The nominal phase stands for the ladder step at the nominal
        rate.  A ramp steps up from it until a step misses (or down
        until one meets, if the nominal rate missed); a bisection
        halves the ladder between the nominal rate and the top.  A
        step that cannot meet the SLO any more stops early.
        """
        ladder = self.shape.ladder_rps
        slo = self.shape.slo_p99_ms
        at = ladder.index(self.shape.nominal_rps)
        probes = []

        def meets(idx: int) -> bool:
            # A miss counts only if a second probe at the step misses
            # too: a burst of CPU steal on the host can sink one probe.
            windows = self.shape.probe_windows
            n = self.wl.phase_size(ladder[idx], self.wl.STEP_SECONDS,
                                   windows)
            for attempt in (0, 1):
                ph = self.phase(port, ladder[idx], n,
                                key=1 + idx + 100 * attempt, slo=True,
                                windows=windows)
                probes.append((ladder[idx], ph.meets(slo), ph))
                if probes[-1][1]:
                    return True
            return False

        if not nominal.meets(slo, self.nominal_slo_windows(nominal)):
            lo = at - 1
            while lo >= 0 and not meets(lo):
                lo -= 1
        elif self.shape.search == "ramp":
            lo = at
            while lo + 1 < len(ladder) and meets(lo + 1):
                lo += 1
        else:
            lo, hi = at, len(ladder)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if meets(mid) else (lo, mid)
        return (ladder[lo] if lo >= 0 else 0.0), probes


def launch(argv: list[str], n_setup: int):
    """Launch the server ``n_setup`` times; keep the last one running."""
    import procs

    setups = []
    for i in range(n_setup):
        server = procs.Server(argv)
        setups.append(server.setup_s)
        if i < n_setup - 1:
            server.stop()
    return server, setups


def http_e2e(name: str, seed: int, seconds: float) -> dict:
    import procs

    run = HttpRun(name, seed, seconds)
    server, setups = launch(procs.serve_cli(), SETUP_LAUNCHES)
    try:
        run.warm_up(server.port)
        cpu0 = procs.tree_cpu_s(server.pid)
        nominal = run.nominal(server.port)
        cpu = procs.tree_cpu_s(server.pid) - cpu0
        cap_rps, probes = run.capacity(server.port, nominal)
        rss = procs.hwm_mb(server.pid) + sum(
            procs.hwm_mb(p) for p in procs.descendants(server.pid))
    finally:
        server.stop()
    costs_per_req = nominal.costs_offered / max(nominal.attempted, 1)
    attempted = sum(p.attempted for p in run.phases)
    failed = sum(p.failures for p in run.phases)
    beyond = nominal.attempted - math.ceil(0.99 * nominal.attempted)
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_us_per_cost": cpu / nominal.costs * 1e6,
        "peak_rss_mb": rss,
    }
    lines = [f"{name}: seed {seed}, {run.conns} connections, "
             f"nominal {run.shape.nominal_rps:g} req/s, "
             f"SLO p99 <= {run.shape.slo_p99_ms:g} ms",
             f"  set-up launches (s): "
             + ", ".join(f"{s:.3f}" for s in setups),
             f"  nominal phase: {nominal.attempted} requests, "
             f"{nominal.failures} failed, {nominal.costs} costs, send lag "
             f"p99 {percentile(nominal.lateness_ms, 0.99):.2f} ms",
             f"  p50 per window of {nominal.planned // nominal.windows} "
             f"(ms): " + ", ".join(f"{v:.2f}" for v in nominal.window_p(0.5)),
             f"  p50_ms: {percentile(nominal.latencies_ms, 0.5):.3f} ms, "
             f"p99_ms: {percentile(nominal.latencies_ms, 0.99):.3f} ms over "
             f"the whole phase ({beyond} samples beyond its p99)",
             f"  server CPU: {cpu:.2f} s for {nominal.costs} costs"]
    for rps, ok, ph in probes:
        early = ", stopped early" if ph.aborted else ""
        lines.append(f"  ladder {rps:9.1f} req/s: "
                     f"{'meets' if ok else 'misses'} SLO ({ph.attempted} "
                     f"sent in {ph.windows} windows{early}, p50 "
                     f"{ph.p(0.5):.1f} ms, p99 {ph.p(0.99):.1f} ms, "
                     f"{ph.failures} failed)")
    lines.append(f"  capacity_costs_per_s: {cap_rps * costs_per_req:.1f} "
                 f"costs/s ({cap_rps:g} req/s x {costs_per_req:.3f} "
                 f"costs/request)")
    lines.append(f"  error_rate: {failed}/{attempted} = "
                 f"{failed / max(attempted, 1):.6f} fraction")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "report": lines}


def http_trace(name: str, seed: int, seconds: float) -> dict:
    """Untraced then traced server on the same inputs; per-layer table."""
    import procs
    import tracing

    run = HttpRun(name, seed, seconds)
    n = run.wl.phase_size(run.shape.nominal_rps, min(seconds, 5.0))
    legs = {}
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    spans_file = runs_dir / f"spans-{name}-{seed}-{os.getpid()}.json"
    for leg, argv in (("untraced", procs.serve_cli()),
                      ("traced", [sys.executable,
                                  str(HERE / "traced_server.py"),
                                  "--spans", str(spans_file),
                                  "--port", "0"])):
        server, _ = launch(argv, 1)
        try:
            run.warm_up(server.port)
            run._drawn = 0
            cpu0, ccpu0 = procs.tree_cpu_s(server.pid), _client_cpu()
            ph = run.phase(server.port, run.shape.nominal_rps, n, key=0)
            legs[leg] = (ph, procs.tree_cpu_s(server.pid) - cpu0,
                         _client_cpu() - ccpu0)
        finally:
            server.stop()
    spans, events = tracing.load(spans_file)
    spans_file.unlink()
    ph_t, cpu_t, _ = legs["traced"]
    ph_u, cpu_u, ccpu_u = legs["untraced"]
    window = (ph_t.t_start, ph_t.t_end)
    m, bases = tracing.layer_metrics(spans, events, window)
    m = tracing.drop_unused(name, m)
    stages, parts = tracing.stage_sum_ms(spans, events, window)
    m["serve.cpu_us_per_cost"] = cpu_u / ph_u.costs * 1e6
    m["serve.unattributed_ms"] = ph_t.mean_ms() - stages
    m["loadgen.lag_p99_ms"] = percentile(ph_u.lateness_ms, 0.99)
    m["loadgen.cpu_us_per_cost"] = ccpu_u / ph_u.costs * 1e6
    m["bench.trace_overhead"] = (cpu_t / ph_t.costs) / (cpu_u / ph_u.costs) \
        - 1.0
    bases.update({
        "serve.cpu_us_per_cost": f"{ph_u.costs} costs, untraced",
        "serve.unattributed_ms":
            f"traced mean {ph_t.mean_ms():.3f} ms - stages "
            f"{stages:.3f} ms",
        "loadgen.lag_p99_ms": f"{ph_u.attempted} sends",
        "loadgen.cpu_us_per_cost": f"{ph_u.costs} costs",
        "bench.trace_overhead": "server CPU per cost, traced / untraced",
    })
    report = [f"{name} traced run: {n} requests per leg at "
              f"{run.shape.nominal_rps:g} req/s",
              "  mean stage time per request (ms): " + ", ".join(
                  f"{k}={v:.3f}" for k, v in parts.items())]
    attempted = sum(p.attempted for p in run.phases)
    failed = sum(p.failures for p in run.phases)
    return {"metrics": m, "bases": bases, "attempted": attempted,
            "failed": failed, "report": report,
            "missing": tracing.missing(
                name, [s for s in spans if window[0] <= s[1] <= window[1]],
                [e for e in events if window[0] <= e[1] <= window[1]])}


# -- offline ---------------------------------------------------------------

def _offline_proc(seed: int, seconds: float, *extra: str):
    import procs

    argv = [sys.executable, str(HERE / "offline_job.py"), "--seed",
            str(seed), "--seconds", str(seconds), "--workers",
            str(nproc()), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=procs.env(),
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=procs.die_with_parent)
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"offline job did not start: {line!r}")
    return proc, time.monotonic() - t0


def _wait(proc, timeout: float) -> str:
    """The job's output; if waiting is cut short, stop the job first."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    return out


def _finish(proc) -> dict:
    out = _wait(proc, 170)
    if proc.returncode != 0:
        raise RuntimeError(f"offline job exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def offline_e2e(seed: int, seconds: float) -> dict:
    import procs

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, s = _offline_proc(seed, seconds, "--setup-only")
        setups.append(s)
        _wait(proc, 60)
    proc, s = _offline_proc(seed, seconds)
    setups.append(s)
    sampler = procs.RssSampler(proc.pid)
    try:
        res = _finish(proc)
    finally:
        rss = sampler.stop()
    jobs = res["jobs_ms"]
    beyond = len(jobs) - math.ceil(0.99 * len(jobs))
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_us_per_cost": res["cpu_us_per_cost"],
        "peak_rss_mb": rss,
    }
    lines = [f"offline: seed {seed}, workers {nproc()}, "
             f"{len(jobs)} jobs in a closed loop",
             "  set-up launches (s): " + ", ".join(f"{x:.3f}" for x in setups),
             f"  p50_ms: {percentile(jobs, 0.5):.1f} ms, p99_ms: "
             f"{percentile(jobs, 0.99):.1f} ms job latency ({beyond} "
             f"samples beyond its p99)",
             f"  CPU (job process and pool workers): "
             f"{res['cpu_us_per_cost']:.4f} us per grid cost priced",
             f"  sweep_points_per_s: {res['sweep_points_per_s']:.1f} points/s",
             f"  mc_wafers_per_s: {res['mc_wafers_per_s']:.3f} wafers/s",
             f"  error_rate: {res['failed']}/{res['attempted']} checked "
             f"values = {res['failed'] / max(res['attempted'], 1):.6f} "
             f"fraction"]
    return {"metrics": metrics, "attempted": res["attempted"],
            "failed": res["failed"], "report": lines}


def offline_trace(seed: int, seconds: float) -> dict:
    proc, _ = _offline_proc(seed, seconds, "--trace")
    res = _finish(proc)
    return {"metrics": res["metrics"], "bases": res["bases"],
            "attempted": res["attempted"], "failed": res["failed"],
            "missing": res["missing"],
            "report": [f"offline traced run: seed {seed}, workers "
                       f"{nproc()}; engine kernels timed on the "
                       f"workers=1 leg"]}


# -- entry point -----------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    if not spec_file.is_file():
        return _fail("BENCHMARK.json is missing")
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "offline":
        res = offline_trace(args.seed, args.seconds) if args.trace \
            else offline_e2e(args.seed, args.seconds)
    else:
        res = http_trace(args.workload, args.seed, args.seconds) \
            if args.trace else http_e2e(args.workload, args.seed,
                                        args.seconds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    bases = res.get("bases", {})
    for line in res["report"]:
        print(line)
    if res.get("missing"):
        return _fail("the traced run recorded no " + ", ".join(
            res["missing"]) + ": a layer wrapper no longer matches")
    unused = ()
    if args.trace:
        import tracing
        unused = tracing.UNUSED[args.workload]
    metrics = {}
    for item in wanted:
        name = item["name"]
        if name in res["metrics"]:
            value = float(res["metrics"][name])
            note = f"  (base: {bases[name]})" if name in bases else ""
        elif name.startswith(unused):
            value, note = 0.0, "  (layer not used by this workload)"
        else:
            return _fail(f"metric {name} was not measured")
        if not math.isfinite(value):
            return _fail(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": item["unit"]}
        print(f"  {name:48s} {value:16.6g} {item['unit']}{note}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
