"""Spans recorded from outside the program, around each layer's calls.

:func:`install` replaces the public functions (and the few private
boundaries named below) of each layer with wrappers that record a
span — name, start, end, parent span, request id, work count — into
an in-memory :class:`Recorder`.  Nothing in ``src/`` is edited: the
wrappers are installed by the benchmark's own entry points
(``traced_server.py`` for HTTP, ``offline_job.py`` for the offline
job) before the program runs, and the spans are written out once it
ends.  :func:`layer_metrics` turns them into the per-layer table.

Private boundaries wrapped, because no public call marks them:
``CostHttpServer._handle`` (one HTTP request; sets the request id),
``MicroBatchScheduler._flush`` (flush start = end of queue wait) and
the event loop's ``call_soon_threadsafe`` for the ticket callback
``_land`` (the flusher-to-asyncio bridge).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from client import percentile

_now = time.monotonic
_parent = contextvars.ContextVar("perfbench_parent", default=0)
_request = contextvars.ContextVar("perfbench_request", default=0)


class Recorder:
    """Spans ``(name, t0, t1, id, parent, request, count)`` and events."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self.ticket_request: dict[int, tuple[float, int]] = {}
        self.landing: dict[int, int] = {}

    def wrap(self, name, fn, count=None):
        """Wrap a sync callable; ``count(args, result)`` sizes the work.

        ``name`` may be a callable of the call's args (per-kind names).
        """
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _parent.get()
            token = _parent.set(sid)
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                _parent.reset(token)
                label = name(args) if callable(name) else name
                n = count(args, result) if count is not None else 1
                spans.append((label, t0, t1, sid, parent, _request.get(), n))
        return wrapper

    def wrap_request(self, fn):
        """Wrap the async per-request handler; it owns a request id."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _parent.get()
            tok_p, tok_r = _parent.set(sid), _request.set(sid)
            t0 = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _now()
                _parent.reset(tok_p)
                _request.reset(tok_r)
                spans.append(("http.request", t0, t1, sid, parent, sid, 1))
        return wrapper


def _patch_everywhere(fn, wrapper) -> None:
    # Replace every module-level reference to ``fn`` inside repro, so
    # names imported with ``from x import fn`` are wrapped too.
    replaced = 0
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"nothing to wrap: {fn.__module__}."
                           f"{fn.__qualname__} is not referenced in repro")


def _size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


class _JsonProxy:
    """Stands in for ``json`` inside repro.serve.http: times loads/dumps."""

    def __init__(self, rec: Recorder) -> None:
        self.loads = rec.wrap("serve.http.json_decode", json.loads)
        self.dumps = rec.wrap("serve.io.dumps", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


def install(rec: Recorder) -> None:
    """Wrap every traced layer of the program, in this process."""
    import repro.batch.engine as engine
    import repro.batch.sweep  # noqa: F401 - imported so its names are patched
    import repro.core.optimization as opt
    import repro.obs.recording as recording
    import repro.serve.executor  # noqa: F401
    import repro.serve.http as http
    import repro.serve.io as sio
    from repro.batch.cache import BatchCache
    from repro.batch.sweep import TiledSweepRunner
    from repro.serve.backend import ThreadBackend
    from repro.serve.query import ChipletCostQuery, FabCostQuery
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.yieldsim.monte_carlo import SpotDefectSimulator

    # serve.http -------------------------------------------------------
    http.RequestParser.feed = rec.wrap(
        "serve.http.parse", http.RequestParser.feed,
        lambda a, r: len(r or ()))
    http.CostHttpServer._handle = rec.wrap_request(
        http.CostHttpServer._handle)
    http.json = _JsonProxy(rec)
    for fn in (http.point_to_query, http.chiplet_point_to_query):
        _patch_everywhere(fn, rec.wrap("serve.http.build", fn))
    _patch_everywhere(sio.normalize_point,
                      rec.wrap("serve.http.normalize", sio.normalize_point))
    # obs.recording ----------------------------------------------------
    _patch_everywhere(recording.record_to_query, rec.wrap(
        "obs.recording.decode", recording.record_to_query))
    # serve.scheduler --------------------------------------------------
    tickets = rec.ticket_request

    def enqueue(fn, many):
        wrapped = rec.wrap("serve.scheduler.enqueue", fn,
                           lambda a, r: len(r) if many else 1)

        @functools.wraps(fn)
        def submit(self, *args, **kwargs):
            t = _now()
            result = wrapped(self, *args, **kwargs)
            rid = _request.get()
            for ticket in (result if many else (result,)):
                tickets[id(ticket)] = (t, rid)
            return result
        return submit

    MicroBatchScheduler.submit = enqueue(MicroBatchScheduler.submit, False)
    MicroBatchScheduler.submit_many = enqueue(
        MicroBatchScheduler.submit_many, True)
    flush = rec.wrap("serve.scheduler.flush", MicroBatchScheduler._flush,
                     lambda a, r: len(a[1]))
    events, landing = rec.events, rec.landing

    @functools.wraps(MicroBatchScheduler._flush)
    def traced_flush(self, batch):
        t = _now()
        for ticket in batch:
            t_sub, rid = tickets.pop(id(ticket), (t, 0))
            events.append(("wait", t, t - t_sub, rid))
            landing[id(ticket)] = rid
        return flush(self, batch)

    MicroBatchScheduler._flush = traced_flush
    # serve.executor ---------------------------------------------------

    def group_kind(args):
        q = args[1]
        kind = "chiplet" if isinstance(q, ChipletCostQuery) else \
            "fab" if isinstance(q, FabCostQuery) else "model"
        return f"serve.executor.{kind}"

    ThreadBackend.run_group = rec.wrap(
        group_kind, ThreadBackend.run_group, lambda a, r: len(a[2]))
    # serve.aio: the bridge is timed by TracedLoop below ----------------
    # serve.io ---------------------------------------------------------
    _patch_everywhere(sio.served_row, rec.wrap(
        "serve.io.encode", sio.served_row))
    _patch_everywhere(sio.format_served_json, rec.wrap(
        "serve.io.encode", sio.format_served_json,
        lambda a, r: len(a[0])))
    # core.optimization ------------------------------------------------
    _patch_everywhere(opt.optimal_feature_size_for_die_area, rec.wrap(
        "core.optimization.optimize", opt.optimal_feature_size_for_die_area))
    _patch_everywhere(opt.optimal_feature_size_for_die_areas, rec.wrap(
        "core.optimization.optimize", opt.optimal_feature_size_for_die_areas,
        lambda a, r: len(a[0])))
    # batch.cache ------------------------------------------------------
    get = BatchCache.get_or_compute

    @functools.wraps(get)
    def get_or_compute(self, key, compute):
        missed = []

        def counted():
            missed.append(1)
            return compute()
        value = get(self, key, counted)
        events.append(("cache", _now(), 0 if missed else 1, 0))
        return value

    BatchCache.get_or_compute = get_or_compute
    # batch.engine -----------------------------------------------------
    _patch_everywhere(engine.dies_per_wafer_batch, rec.wrap(
        "batch.engine.dies_per_wafer_batch", engine.dies_per_wafer_batch,
        lambda a, r: _size(a[1], a[2])))
    _patch_everywhere(engine.transistor_cost_batch, rec.wrap(
        "batch.engine.transistor_cost_batch", engine.transistor_cost_batch,
        lambda a, r: _size(a[0], a[1])))
    _patch_everywhere(engine.chiplet_cost_batch, rec.wrap(
        "batch.engine.chiplet_cost_batch", engine.chiplet_cost_batch,
        lambda a, r: _size(a[0], a[1], a[2])))
    # batch.sweep / yieldsim -------------------------------------------
    TiledSweepRunner.run = rec.wrap(
        "batch.sweep.run", TiledSweepRunner.run,
        lambda a, r: r.stats["tiles_total"] if r is not None else 0)
    SpotDefectSimulator.simulate_lot = rec.wrap(
        "yieldsim.lot", SpotDefectSimulator.simulate_lot,
        lambda a, r: r.n_defects_total if r is not None else 0)


def traced_loop_policy(rec: Recorder) -> asyncio.AbstractEventLoopPolicy:
    """An event-loop policy whose loops time every ticket landing.

    The flusher thread hands each finished ticket to the loop with
    ``call_soon_threadsafe(_land, ticket)``; the gap until ``_land``
    runs on the loop is one bridge crossing.
    """
    events, landing = rec.events, rec.landing

    class TracedLoop(asyncio.SelectorEventLoop):
        def call_soon_threadsafe(self, callback, *args, context=None):
            if getattr(callback, "__name__", "") != "_land":
                return super().call_soon_threadsafe(
                    callback, *args, context=context)
            t = _now()
            rid = landing.pop(id(args[0]), 0)

            def land(*a):
                now = _now()
                events.append(("bridge", now, now - t, rid))
                return callback(*a)
            return super().call_soon_threadsafe(land, *args,
                                                context=context)

    class Policy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            return TracedLoop()

    return Policy()


def dump(rec: Recorder, path) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": rec.spans, "events": rec.events}, fh)


def load(path) -> tuple[list, list]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["events"]


# -- reduction -------------------------------------------------------------

_SERVE = ("http.request", "serve.http.parse", "serve.http.json_decode",
          "serve.http.build", "serve.http.normalize", "obs.recording.decode",
          "serve.scheduler.enqueue", "serve.scheduler.flush",
          "serve.executor.fab", "serve.executor.model",
          "serve.executor.chiplet", "serve.io.encode", "wait", "bridge",
          "cache", "batch.engine.chiplet_cost_batch",
          "batch.engine.dies_per_wafer_batch")
#: Span names and event kinds each workload's traced run must record,
#: one or more per layer it is documented to use.  A wrapper that stops
#: matching (a function renamed, moved or no longer called) records
#: nothing; the run fails instead of reading that layer as free.
REQUIRED = {
    "http_single": _SERVE + ("serve.io.dumps", "core.optimization.optimize",
                             "batch.engine.transistor_cost_batch"),
    "http_bulk": _SERVE,
    "offline": ("batch.sweep.run", "yieldsim.lot", "cache",
                "batch.engine.transistor_cost_batch",
                "batch.engine.chiplet_cost_batch",
                "batch.engine.dies_per_wafer_batch"),
}
#: Per-layer metrics of layers a workload is documented not to use, by
#: name prefix.  They read 0 with a note; every other metric must have
#: been measured.
UNUSED = {
    "http_single": ("batch.sweep.", "yieldsim."),
    "http_bulk": ("core.optimization.", "batch.sweep.", "yieldsim.",
                  "batch.engine.transistor_cost_batch_"),
    "offline": ("serve.", "obs.recording.", "core.optimization.",
                "loadgen."),
}


def missing(workload: str, spans: list, events: list) -> list[str]:
    """Required span names and event kinds that were never recorded."""
    seen = {s[0] for s in spans} | {e[0] for e in events}
    return [name for name in REQUIRED[workload] if name not in seen]


def drop_unused(workload: str, metrics: dict) -> dict:
    """``metrics`` without those of layers ``workload`` does not use."""
    return {k: v for k, v in metrics.items()
            if not k.startswith(UNUSED[workload])}


def self_times(spans: list) -> dict[str, list[float]]:
    """Per span name: [self seconds total, count total, calls]."""
    child = {}
    for s in spans:
        child[s[4]] = child.get(s[4], 0.0) + (s[2] - s[1])
    out: dict[str, list[float]] = {}
    for name, t0, t1, sid, _p, _r, n in spans:
        acc = out.setdefault(name, [0.0, 0, 0])
        acc[0] += (t1 - t0) - child.get(sid, 0.0)
        acc[1] += n
        acc[2] += 1
    return out


def layer_metrics(spans: list, events: list, window: tuple[float, float]
                  ) -> tuple[dict, dict]:
    """Per-layer metrics over spans that started inside ``window``.

    Returns ``(metrics, bases)``: each ratio's numerator is a time or a
    count, and ``bases[name]`` is the count it was divided by.
    """
    lo, hi = window
    spans = [s for s in spans if lo <= s[1] <= hi]
    events = [e for e in events if lo <= e[1] <= hi]
    st = self_times(spans)
    incl: dict[str, list[float]] = {}
    for name, t0, t1, _s, _p, _r, n in spans:
        acc = incl.setdefault(name, [0.0, 0])
        acc[0] += t1 - t0
        acc[1] += n

    def tot(name, idx=0):
        return st.get(name, [0.0, 0, 0])[idx]

    m: dict[str, float] = {}
    b: dict[str, float] = {}

    def per(key, seconds, base, scale):
        # nan on a zero base: a metric nothing was recorded for must
        # fail the run unless its layer is documented as unused.
        m[key] = seconds / base * scale if base else math.nan
        b[key] = base

    requests = tot("http.request", 2)
    m["serve.http.requests"] = requests
    per("serve.http.parse_us", tot("serve.http.parse"),
        tot("serve.http.parse", 1), 1e6)
    per("serve.http.decode_us", tot("serve.http.json_decode"),
        tot("serve.http.json_decode", 2), 1e6)
    per("serve.http.build_us",
        tot("serve.http.build") + tot("serve.http.normalize"),
        tot("serve.http.build", 2), 1e6)
    per("obs.recording.decode_us", tot("obs.recording.decode"),
        tot("obs.recording.decode", 2), 1e6)
    per("serve.scheduler.enqueue_us", tot("serve.scheduler.enqueue"),
        tot("serve.scheduler.enqueue", 1), 1e6)
    waits = [e[2] * 1e3 for e in events if e[0] == "wait"]
    m["serve.scheduler.queue_wait_ms.p50"] = percentile(waits, 0.5)
    m["serve.scheduler.queue_wait_ms.p99"] = percentile(waits, 0.99)
    b["serve.scheduler.queue_wait_ms.p50"] = len(waits)
    b["serve.scheduler.queue_wait_ms.p99"] = len(waits)
    flushes = tot("serve.scheduler.flush", 2)
    tickets = tot("serve.scheduler.flush", 1)
    m["serve.scheduler.flushes"] = flushes
    per("serve.scheduler.requests_per_flush", tickets, flushes, 1)
    points = sum(incl.get(f"serve.executor.{k}", [0, 0])[1]
                 for k in ("fab", "model", "chiplet"))
    per("serve.scheduler.unique_per_request", points, tickets, 1)
    for kind in ("fab", "model", "chiplet"):
        secs, n = incl.get(f"serve.executor.{kind}", [0.0, 0])
        per(f"serve.executor.{kind}_us_per_point", secs, n, 1e6)
    m["serve.executor.points"] = points
    bridge = [e[2] * 1e3 for e in events if e[0] == "bridge"]
    m["serve.aio.bridge_ms.p50"] = percentile(bridge, 0.5)
    m["serve.aio.bridge_ms.p99"] = percentile(bridge, 0.99)
    b["serve.aio.bridge_ms.p50"] = b["serve.aio.bridge_ms.p99"] = len(bridge)
    per("serve.io.encode_us_per_cost",
        tot("serve.io.encode") + tot("serve.io.dumps"),
        tot("serve.io.encode", 1), 1e6)
    # Inclusive: the optimizer's own kernel calls are its work.
    per("core.optimization.optimize_ms",
        incl.get("core.optimization.optimize", [0.0])[0],
        tot("core.optimization.optimize", 2), 1e3)
    hits = sum(e[2] for e in events if e[0] == "cache")
    misses = sum(1 for e in events if e[0] == "cache") - hits
    m["batch.cache.hits"], m["batch.cache.misses"] = hits, misses
    per("batch.cache.hit_rate", hits, hits + misses, 1)
    for fn in ("transistor_cost_batch", "chiplet_cost_batch",
               "dies_per_wafer_batch"):
        per(f"batch.engine.{fn}_ns_per_point", tot(f"batch.engine.{fn}"),
            tot(f"batch.engine.{fn}", 1), 1e9)
    return m, b


def stage_sum_ms(spans: list, events: list, window) -> tuple[float, dict]:
    """Mean per-request time spent in named stages, and the parts.

    Per-request work stages (parse, decode, build, enqueue, encode,
    optimize) are summed over the window and divided by the request
    count.  Queue wait, flush and bridge are per ticket, so each
    request is charged its slowest ticket — the one it waits for.
    """
    lo, hi = window
    spans = [s for s in spans if lo <= s[1] <= hi]
    requests = {s[3] for s in spans if s[0] == "http.request"}
    n = len(requests)
    if not n:
        return 0.0, {}
    st = self_times(spans)
    parts = {}
    for stage in ("serve.http.parse", "serve.http.json_decode",
                  "serve.http.build", "serve.http.normalize",
                  "obs.recording.decode", "serve.scheduler.enqueue",
                  "serve.io.encode", "serve.io.dumps"):
        parts[stage] = st.get(stage, [0.0])[0] / n * 1e3
    parts["core.optimization.optimize"] = sum(
        s[2] - s[1] for s in spans
        if s[0] == "core.optimization.optimize") / n * 1e3
    per_req: dict[str, dict[int, float]] = {"wait": {}, "bridge": {}}
    for kind, t, value, rid in events:
        if kind in per_req and rid in requests and lo <= t <= hi:
            d = per_req[kind]
            d[rid] = max(d.get(rid, 0.0), value)
    parts["serve.scheduler.queue_wait"] = \
        sum(per_req["wait"].values()) / n * 1e3
    parts["serve.aio.bridge"] = sum(per_req["bridge"].values()) / n * 1e3
    flush = [s for s in spans if s[0] == "serve.scheduler.flush"]
    # Every request waits for its whole flush; charge the mean flush
    # once per request that had tickets in one.
    if flush:
        mean_flush = sum(s[2] - s[1] for s in flush) / len(flush)
        parts["serve.scheduler.flush"] = \
            mean_flush * len(per_req["wait"]) / n * 1e3
    return sum(parts.values()), parts


def offline_metrics(spans: list, events: list) -> tuple[dict, dict]:
    """Engine and cache metrics of the offline job's sequential leg,
    and their bases."""
    m, b = layer_metrics(spans, events, (-math.inf, math.inf))
    keep = ("batch.engine.", "batch.cache.")
    return ({k: v for k, v in m.items() if k.startswith(keep)},
            {k: v for k, v in b.items() if k.startswith(keep)})
