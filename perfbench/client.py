"""Open-loop, pipelined HTTP/1.1 client for the benchmark.

One asyncio process drives at most ``nproc`` keep-alive connections.
A single sender writes every request at its due time (Poisson
offsets fixed before the phase starts), pipelining behind whatever is
still in flight on the connection, and each connection's reader
matches responses to requests in order.  Latency runs from the due
time, so a stall in the server also delays the requests queued
behind it — unlike :func:`repro.loadgen.run_load`, which holds each
connection until its response arrives and therefore can never offer
more than ``connections / latency``.

Every 200 response is decoded and checked bit for bit against the
request's expected answers; anything else (non-200, timeout, lost
connection, wrong value) is a failure and counts as an SLO miss.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from workloads import Request

#: Optimize answers are checked against the scalar search, once per area.
_OPT_REFS: dict[float, tuple[float, float]] = {}
#: A request unanswered this long (s) after the last send is a timeout.
TIMEOUT_S = 20.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted list (nan when empty)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check(req: Request, payload) -> tuple[int, int]:
    """(costs checked, costs wrong) for one decoded 200 payload."""
    if req.kind == "optimize":
        from repro.core.optimization import optimal_feature_size_for_die_area

        bad = 0
        lams = payload["optimal_feature_size_um"]
        costs = payload["cost_per_transistor_dollars"]
        for area, lam, cost in zip(req.die_areas, lams, costs):
            if area not in _OPT_REFS:
                _OPT_REFS[area] = optimal_feature_size_for_die_area(area)
            bad += (lam, cost) != _OPT_REFS[area]
        return len(req.die_areas), bad + abs(len(lams) - len(req.die_areas))
    got = payload["cost_per_transistor_dollars"]
    if req.kind != "bulk":
        got = [got]
    bad = sum(1 for g, w in zip(got, req.expected) if g != w)
    return len(req.expected), bad + abs(len(got) - len(req.expected))


def _bounds(n: int, k: int) -> list[int]:
    return [i * n // k for i in range(k + 1)]


def allowed_misses(size: int) -> int:
    """SLO misses a window of ``size`` can hold with its p99 still met."""
    return size - math.ceil(0.99 * size)


@dataclass
class Phase:
    """What one phase measured; a request fails on any wrong value.

    The phase is cut into ``windows`` consecutive windows of requests
    (in due order); its percentiles are the median over the windows, so
    a single burst of CPU steal on the host moves one window only.
    """

    rps: float
    windows: int = 1
    planned: int = 0
    attempted: int = 0
    latencies_ms: list = field(default_factory=list)  # failures are inf
    lateness_ms: list = field(default_factory=list)
    non_200: int = 0
    timeouts: int = 0
    conn_errors: int = 0
    mismatched_requests: int = 0
    costs: int = 0
    costs_offered: int = 0
    aborted: bool = False
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def failures(self) -> int:
        return self.non_200 + self.timeouts + self.conn_errors \
            + self.mismatched_requests

    def window_p(self, q: float, windows: int | None = None) -> list[float]:
        """Each window's ``q`` percentile (windows cut from the plan)."""
        k = windows or self.windows
        lat = self.latencies_ms
        b = _bounds(self.planned, k)
        return [percentile(lat[b[i]:b[i + 1]], q)
                for i in range(k) if b[i] < len(lat)]

    def p(self, q: float, windows: int | None = None) -> float:
        """Median over the windows of each window's ``q`` percentile."""
        return statistics.median(self.window_p(q, windows))

    def mean_ms(self) -> float:
        ok = [v for v in self.latencies_ms if v != math.inf]
        return sum(ok) / len(ok) if ok else math.nan

    def backlog_grew(self, slo_ms: float) -> bool:
        """Median of the second half above that of the first by SLO/2.

        A backlog that grows over a whole step raises the median of its
        second half; a burst of CPU steal near its end does not.
        """
        n = len(self.latencies_ms)
        if n < 4:
            return False
        head = percentile(self.latencies_ms[:n // 2], 0.5)
        tail = percentile(self.latencies_ms[n // 2:], 0.5)
        return tail > head + slo_ms / 2

    def meets(self, slo_ms: float, windows: int | None = None) -> bool:
        """No failure, no growing backlog, median window p99 <= SLO."""
        return (not self.aborted and self.failures == 0
                and self.p(0.99, windows) <= slo_ms
                and not self.backlog_grew(slo_ms))


class _Conn:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.fifo: deque = deque()   # (index, due) in send order
        self.dead = False


async def _read_loop(conn: _Conn, reqs: list[Request], out: list,
                     on_done: Callable[[int, float], None],
                     tamper: Callable | None, loop) -> None:
    reader = conn.reader
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            low = head.lower()
            at = low.find(b"content-length:")
            end = low.find(b"\r\n", at)
            length = int(low[at + 15:end]) if at >= 0 else 0
            body = await reader.readexactly(length)
            now = loop.time()
            i, due = conn.fifo.popleft()
            lat = (now - due) * 1e3
            if status != 200:
                out[i] = ("status", lat)
            else:
                payload = json.loads(body)
                if tamper is not None:
                    payload = tamper(i, reqs[i], payload)
                checked, bad = check(reqs[i], payload)
                out[i] = ("ok" if not bad else "mismatch", lat, checked, bad)
            on_done(i, lat)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        conn.dead = True


async def run_phase(port: int, reqs: list[Request], offsets: list[float],
                    rps: float, *, connections: int, windows: int = 1,
                    slo_ms: float | None = None,
                    tamper: Callable | None = None) -> Phase:
    """Send ``reqs`` at ``offsets`` (s from phase start); measure all.

    With ``slo_ms`` the phase is a ladder step: it stops sending as
    soon as more than half its windows missed the SLO on more requests
    than a passing p99 allows, then waits for what is in flight so the
    next step starts on an idle server.
    """
    loop = asyncio.get_running_loop()
    n = len(reqs)
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conns.append(_Conn(reader, writer))
    out: list = [None] * n
    bounds = _bounds(n, windows)
    allowed = [allowed_misses(bounds[w + 1] - bounds[w])
               for w in range(windows)]
    window_of = [w for w in range(windows)
                 for _ in range(bounds[w + 1] - bounds[w])]
    bad = [0] * windows
    state = {"pending": 0}
    all_done = asyncio.Event()

    def on_done(i: int, lat: float) -> None:
        if slo_ms is not None and (lat > slo_ms or out[i][0] != "ok"):
            bad[window_of[i]] += 1
        state["pending"] -= 1
        if state["pending"] == 0 and state.get("sent_all"):
            all_done.set()

    readers = [asyncio.ensure_future(
        _read_loop(c, reqs, out, on_done, tamper, loop)) for c in conns]
    phase = Phase(rps=rps, windows=windows, planned=n)
    lateness = [0.0] * n
    t0 = loop.time() + 0.02
    phase.t_start = t0
    i = 0
    rr = 0
    last_check = t0
    while i < n:
        now = loop.time()
        due = t0 + offsets[i]
        if due > now:
            await asyncio.sleep(due - now)
            continue
        while i < n and t0 + offsets[i] <= now:
            for _ in range(len(conns)):
                conn = conns[rr % len(conns)]
                rr += 1
                if not conn.dead:
                    break
            else:
                break
            due = t0 + offsets[i]
            conn.writer.write(reqs[i].wire)
            conn.fifo.append((i, due))
            state["pending"] += 1
            lateness[i] = (now - due) * 1e3
            i += 1
        if all(c.dead for c in conns):
            break
        for c in conns:
            if c.writer.transport.get_write_buffer_size() > 1 << 20:
                await c.writer.drain()
        if slo_ms is not None and now - last_check > 0.01:
            last_check = now
            late = list(bad)
            for c in conns:
                for j, d in c.fifo:
                    if (now - d) * 1e3 <= slo_ms:
                        break
                    late[window_of[j]] += 1
            missed = sum(late[w] > allowed[w] for w in range(windows))
            if 2 * missed > windows:
                phase.aborted = True
                break
        await asyncio.sleep(0)
    sent = i
    state["sent_all"] = True
    if state["pending"] == 0:
        all_done.set()
    last_due = t0 + (offsets[sent - 1] if sent else 0.0)
    wait = max(0.1, last_due + TIMEOUT_S - loop.time())
    if phase.aborted:
        wait = max(wait, 30.0)
    try:
        await asyncio.wait_for(all_done.wait(), wait)
    except asyncio.TimeoutError:
        pass
    phase.t_end = loop.time()
    for r in readers:
        r.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for c in conns:
        c.writer.close()
    for c in conns:
        try:
            await c.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    phase.attempted = sent
    phase.lateness_ms = lateness[:sent]
    any_dead = any(c.dead for c in conns)
    for idx in range(sent):
        rec = out[idx]
        if rec is None:
            if any_dead:
                phase.conn_errors += 1
            else:
                phase.timeouts += 1
            phase.latencies_ms.append(math.inf)
            continue
        if rec[0] == "status":
            phase.non_200 += 1
            phase.latencies_ms.append(math.inf)
            continue
        phase.costs += rec[2]
        phase.mismatched_requests += rec[3] > 0
        phase.latencies_ms.append(rec[1] if rec[0] == "ok" else math.inf)
    return phase
