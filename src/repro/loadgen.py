"""Open-loop load generator for the HTTP serving front-end.

Closed-loop drivers (issue, wait, issue) hide queueing delay: when the
server slows down, the driver slows with it and the measured latency
flatters the system.  This generator is *open-loop*: request arrival
instants are drawn up front from a Poisson process at the target RPS
and every request's latency is measured **from its scheduled arrival
instant** — time spent waiting for a free connection counts against
the server, exactly as a real user would experience it
(coordinated-omission-free, the Jain/Wilkes convention).

The workload mixes the POST endpoints of :mod:`repro.serve.http` —
single ``/v1/cost`` bodies (alternating the recorded-query
``{"q": ...}`` form and bare point fields), ``/v1/cost/bulk``
batches, ``/v1/optimize``, and (opt-in via ``mix``) ``/v1/chiplet``
assemblies — drawn from the same Fig.-8 design-point grid as
``benchmarks/bench_serve.py``.  With
``verify=True`` (the default) every returned cost is compared
**bitwise** against :func:`~repro.serve.query.scalar_reference_cost`;
the scalar references are computed once per unique grid point, so
verification stays cheap even at thousands of requests.

Use it from the CLI (``python -m repro loadgen --port ...``), from
``benchmarks/bench_parallel.py`` (the HTTP SLO leg), or
programmatically::

    from repro.loadgen import build_workload, run_load

    specs = build_workload(1000, seed=7)
    result = run_load("127.0.0.1", port, specs, rps=2000.0)
    assert result.mismatches == 0
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from .errors import ParameterError
from .obs.recording import query_to_record
from .obs.registry import nearest_rank
from .serve.http import chiplet_point_to_query, point_to_query
from .serve.query import ChipletCostQuery, FabCostQuery, scalar_reference_cost

__all__ = [
    "LoadResult",
    "RequestSpec",
    "build_workload",
    "format_report",
    "run_load",
]

#: Default endpoint mix (fractions of requests); bulk requests carry
#: ``bulk_size`` points each, so the *point* mix skews heavily bulk.
#: ``chiplet`` ships at weight 0 — opt in with ``--mix chiplet=0.2``.
DEFAULT_MIX = {"cost": 0.7, "bulk": 0.2, "optimize": 0.1, "chiplet": 0.0}

#: λ grid (µm) and N_tr grid shared with bench_serve's design points.
_LAMS = [0.4 + 0.125 * i for i in range(8)]
_COUNTS = [1.0e5 * 4.0 ** j for j in range(6)]
_DIE_AREAS = [0.25, 0.5, 1.0, 2.0]
#: Chiplet-count and packaging grids for the ``chiplet`` workload kind.
_CHIPLET_COUNTS = [2, 3, 4, 8]
_PACKAGINGS = ["organic", "interposer"]


@dataclass(frozen=True)
class RequestSpec:
    """One request to issue: target, encoded body, expected answers.

    ``expected`` holds the scalar-reference costs in served order
    (``None`` entries skip the bitwise check — used for optimize,
    whose reference is attached lazily by :func:`run_load` only when
    verification is on).
    """

    kind: str                     # "cost" | "bulk" | "optimize"
    target: str
    body: str
    expected: tuple[float, ...] | None = None
    die_areas: tuple[float, ...] | None = None  # optimize only


def _reference_costs(points: Sequence[tuple[float, float]],
                     memo: dict[tuple[float, float], float]) -> tuple:
    out = []
    for n, lam in points:
        key = (n, lam)
        if key not in memo:
            memo[key] = scalar_reference_cost(FabCostQuery(n, lam))
        out.append(memo[key])
    return tuple(out)


def _point_reference(n: float, lam: float,
                     memo: dict[tuple[float, float], float]) -> float:
    """Scalar reference for a bare point-field body (server defaults)."""
    key = ("point", n, lam)
    if key not in memo:
        memo[key] = scalar_reference_cost(point_to_query(
            {"transistors": n, "feature_size": lam}))
    return memo[key]


def _chiplet_reference(query: ChipletCostQuery,
                       memo: dict[Any, float]) -> float:
    """Scalar reference for one chiplet assembly query."""
    key = ("chiplet", query.n_transistors, query.feature_size_um,
           query.signature())
    if key not in memo:
        memo[key] = scalar_reference_cost(query)
    return memo[key]


def build_workload(n_requests: int, *,
                   mix: dict[str, float] | None = None,
                   bulk_size: int = 32,
                   seed: int = 0) -> list[RequestSpec]:
    """Draw a reproducible mixed workload of ``n_requests`` requests.

    ``mix`` maps endpoint kind (``cost`` / ``bulk`` / ``optimize``) to
    its fraction; fractions are normalized.  Every spec carries its
    expected bitwise answer, computed here once per unique grid point.
    """
    if n_requests < 1:
        raise ParameterError("n_requests must be >= 1")
    if bulk_size < 1:
        raise ParameterError("bulk_size must be >= 1")
    mix = dict(DEFAULT_MIX if mix is None else mix)
    unknown = set(mix) - set(DEFAULT_MIX)
    if unknown:
        raise ParameterError(
            f"unknown workload kinds {sorted(unknown)} "
            f"(expected {sorted(DEFAULT_MIX)})")
    total = sum(mix.values())
    if total <= 0:
        raise ParameterError("workload mix fractions must sum > 0")
    rng = random.Random(seed)
    kinds = sorted(mix)
    weights = [mix[k] / total for k in kinds]
    ref_cache: dict[Any, float] = {}
    specs: list[RequestSpec] = []
    for i in range(n_requests):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "cost":
            n = rng.choice(_COUNTS)
            lam = rng.choice(_LAMS)
            if i % 2:  # bare point fields → server-default model
                body = json.dumps({"transistors": n, "feature_size": lam})
                expected = (_point_reference(n, lam, ref_cache),)
            else:      # full recorded-query payload → Fig.-8 fab
                body = json.dumps(
                    {"q": query_to_record(FabCostQuery(n, lam))})
                expected = _reference_costs([(n, lam)], ref_cache)
            specs.append(RequestSpec("cost", "/v1/cost", body, expected))
        elif kind == "chiplet":
            n = rng.choice(_COUNTS)
            lam = rng.choice(_LAMS)
            k = rng.choice(_CHIPLET_COUNTS)
            packaging = rng.choice(_PACKAGINGS)
            if i % 2:  # bare point fields → server-default chiplet model
                fields = {"transistors": n, "feature_size": lam,
                          "chiplets": k, "packaging": packaging}
                body = json.dumps(fields)
                query = chiplet_point_to_query(fields)
            else:      # full recorded chiplet payload
                query = chiplet_point_to_query(
                    {"transistors": n, "feature_size": lam,
                     "chiplets": k, "packaging": packaging})
                body = json.dumps({"q": query_to_record(query)})
            specs.append(RequestSpec(
                "chiplet", "/v1/chiplet", body,
                (_chiplet_reference(query, ref_cache),)))
        elif kind == "bulk":
            points = [(rng.choice(_COUNTS), rng.choice(_LAMS))
                      for _ in range(bulk_size)]
            body = json.dumps({"queries": [
                query_to_record(FabCostQuery(n, lam))
                for n, lam in points]})
            specs.append(RequestSpec(
                "bulk", "/v1/cost/bulk", body,
                _reference_costs(points, ref_cache)))
        else:
            areas = tuple(rng.sample(_DIE_AREAS, k=2))
            body = json.dumps({"die_areas": list(areas)})
            specs.append(RequestSpec("optimize", "/v1/optimize", body,
                                     die_areas=areas))
    return specs


@dataclass
class LoadResult:
    """What the run measured: latency, throughput, error budget, parity."""

    requests: int
    completed: int
    status_counts: dict[str, int]
    timeouts: int
    connection_errors: int
    mismatches: int
    verified_costs: int
    duration_s: float
    offered_rps: float
    achieved_rps: float
    latency_ms: dict[str, float]    # p50 / p95 / p99 / mean / max

    @property
    def error_budget(self) -> dict[str, int]:
        """The non-200 tally the bench records: 429s + timeouts + drops."""
        return {
            "http_429": self.status_counts.get("429", 0),
            "timeouts": self.timeouts,
            "connection_errors": self.connection_errors,
            "other_non_200": sum(
                count for status, count in self.status_counts.items()
                if status not in ("200", "429")),
        }


class _Connection:
    """One pooled keep-alive client connection (lazily established)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, target: str, body: str) -> tuple[int, Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        raw = body.encode()
        self.writer.write(
            (f"POST {target} HTTP/1.1\r\n"
             f"host: {self.host}:{self.port}\r\n"
             f"content-type: application/json\r\n"
             f"content-length: {len(raw)}\r\n\r\n").encode() + raw)
        await self.writer.drain()
        assert self.reader is not None
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            key = name.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and "close" in value.lower():
                closing = True
        payload = json.loads(await self.reader.readexactly(length)) \
            if length else None
        if closing:
            self.close()
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


def _served_costs(spec: RequestSpec, payload: Any) -> list[float]:
    if spec.kind in ("cost", "chiplet"):
        return [payload["cost_per_transistor_dollars"]]
    if spec.kind == "bulk":
        return list(payload["cost_per_transistor_dollars"])
    return []


def _optimize_mismatches(spec: RequestSpec, payload: Any,
                         memo: dict[Any, Any]) -> tuple[int, int]:
    """(checked, mismatched) for one optimize response, bitwise."""
    from .core.optimization import optimal_feature_size_for_die_area

    checked = mismatched = 0
    lams = payload["optimal_feature_size_um"]
    costs = payload["cost_per_transistor_dollars"]
    for area, lam, cost in zip(spec.die_areas or (), lams, costs):
        key = ("opt", area)
        if key not in memo:
            memo[key] = optimal_feature_size_for_die_area(area)
        ref_lam, ref_cost = memo[key]
        checked += 1
        if lam != ref_lam or cost != ref_cost:
            mismatched += 1
    return checked, mismatched


def run_load(host: str, port: int, specs: Sequence[RequestSpec], *,
             rps: float, connections: int = 8,
             timeout_s: float = 30.0, seed: int = 0,
             verify: bool = True) -> LoadResult:
    """Drive ``specs`` at Poisson-arrival ``rps``; measure and verify.

    Arrival instants are pre-drawn (seeded, exponential gaps), each
    request waits for a pooled connection *after* its arrival instant,
    and latency runs from that instant to the parsed response — the
    open-loop clock.  Responses are classified into status counts,
    timeouts (``timeout_s`` per request), and connection errors;
    ``verify=True`` bitwise-compares every served cost against its
    spec's scalar reference.
    """
    if rps <= 0:
        raise ParameterError("rps must be > 0")
    if connections < 1:
        raise ParameterError("connections must be >= 1")
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    for _ in specs:
        t += rng.expovariate(rps)
        arrivals.append(t)

    status_counts: dict[str, int] = {}
    latencies: list[float] = []
    timeouts = connection_errors = mismatches = verified = 0
    opt_cache: dict[Any, Any] = {}

    async def _drive() -> float:
        nonlocal timeouts, connection_errors, mismatches, verified
        loop = asyncio.get_running_loop()
        pool: asyncio.Queue[_Connection] = asyncio.Queue()
        for _ in range(connections):
            pool.put_nowait(_Connection(host, port))
        start = loop.time()

        async def _issue(spec: RequestSpec, arrival: float) -> None:
            nonlocal timeouts, connection_errors, mismatches, verified
            due = start + arrival
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = await pool.get()
            try:
                status, payload = await asyncio.wait_for(
                    conn.request(spec.target, spec.body),
                    timeout=timeout_s)
            except asyncio.TimeoutError:
                timeouts += 1
                conn.close()
                return
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                connection_errors += 1
                conn.close()
                return
            finally:
                pool.put_nowait(conn)
            latencies.append((loop.time() - due) * 1e3)
            status_counts[str(status)] = \
                status_counts.get(str(status), 0) + 1
            if not verify or status != 200:
                return
            if spec.expected is not None:
                served = _served_costs(spec, payload)
                verified += len(served)
                mismatches += sum(
                    1 for got, want in zip(served, spec.expected)
                    if got != want)
                if len(served) != len(spec.expected):
                    mismatches += abs(len(served) - len(spec.expected))
            elif spec.kind == "optimize":
                checked, bad = _optimize_mismatches(spec, payload,
                                                    opt_cache)
                verified += checked
                mismatches += bad
        await asyncio.gather(*(_issue(s, a)
                               for s, a in zip(specs, arrivals)))
        duration = loop.time() - start
        while not pool.empty():
            pool.get_nowait().close()
        return duration

    duration = asyncio.run(_drive())
    latencies.sort()
    completed = len(latencies)
    return LoadResult(
        requests=len(specs),
        completed=completed,
        status_counts=dict(sorted(status_counts.items())),
        timeouts=timeouts,
        connection_errors=connection_errors,
        mismatches=mismatches,
        verified_costs=verified,
        duration_s=duration,
        offered_rps=rps,
        achieved_rps=completed / duration if duration > 0 else 0.0,
        latency_ms={
            "p50": nearest_rank(latencies, 0.50),
            "p95": nearest_rank(latencies, 0.95),
            "p99": nearest_rank(latencies, 0.99),
            "mean": (sum(latencies) / completed) if completed else
                    float("nan"),
            "max": latencies[-1] if latencies else float("nan"),
        })


def format_report(result: LoadResult) -> str:
    """Human-readable summary for the CLI."""
    lat = result.latency_ms
    lines = [
        f"requests:        {result.requests} issued, "
        f"{result.completed} completed",
        f"throughput:      {result.achieved_rps:.1f} achieved rps "
        f"(offered {result.offered_rps:.1f}) over {result.duration_s:.2f} s",
        f"latency [ms]:    p50={lat['p50']:.2f} p95={lat['p95']:.2f} "
        f"p99={lat['p99']:.2f} mean={lat['mean']:.2f} max={lat['max']:.2f}",
        f"status counts:   {result.status_counts}",
        f"error budget:    {result.error_budget}",
        f"parity:          {result.verified_costs} costs verified, "
        f"{result.mismatches} bitwise mismatches",
    ]
    return "\n".join(lines)
