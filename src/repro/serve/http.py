"""HTTP/1.1 front-end over :class:`~repro.serve.aio.AsyncCostService`.

The network tier of the serving stack: a stdlib-only asyncio server
(``asyncio.start_server`` plus a small incremental request parser)
that prices JSON cost queries through the same micro-batch scheduler
as in-process callers — so concurrent HTTP requests coalesce into the
same few vectorized flushes, and every served cost stays bitwise
equal to the scalar reference (:func:`~repro.serve.query
.scalar_reference_cost`).

Endpoints
---------
``POST /v1/cost``
    One point per request.  Body is either a full recorded-query
    payload ``{"q": {...}}`` (the :mod:`repro.obs.recording` format —
    what ``repro.loadgen`` and replayed clients send) or bare point
    fields ``{"transistors": ..., "feature_size": ..., "density"?,
    "yield0"?}`` priced with the server's default model (same
    defaults as the ``python -m repro cost`` flags).  Response: one
    object keyed by :data:`~repro.serve.io.RESULT_FIELDS`.
``POST /v1/cost/bulk``
    Many points in one request, routed through
    :meth:`~repro.serve.aio.AsyncCostService.submit_bulk` so the
    whole request enters the queue as **one** pre-coalesced flush.
    Body: ``{"queries": [q-payload, ...]}`` or ``{"points": [...]}``
    (list of field objects or a columnar dict of equal-length
    arrays).  Response: the columnar served-array document of
    :func:`~repro.serve.io.format_served_json`.
``POST /v1/chiplet``
    Price one ``k``-chiplet assembly per request.  Body is either a
    recorded chiplet payload ``{"q": {...}}`` (the
    :mod:`repro.obs.recording` format) or bare fields
    ``{"transistors": ..., "feature_size": ..., "chiplets"?,
    "packaging"?, "probe_coverage"?}`` priced with the library-default
    :class:`~repro.system.chiplet.ChipletCostModel` (``packaging``
    names an entry of
    :data:`~repro.system.chiplet.PACKAGING_TECHS`).  Chiplet queries
    also ride in ``POST /v1/cost/bulk`` ``"queries"`` payloads.
``POST /v1/optimize``
    Fixed-die-size λ optimization (paper Fig. 8 framing): ``
    {"die_area": x}`` or ``{"die_areas": [...]}`` (a flat list of at
    most :data:`MAX_OPTIMIZE_AREAS` numbers) with optional ``lam_lo``
    / ``lam_hi`` bounds (finite, above 0, low below high); anything
    else is a 400.  The scan runs inline on the event loop, and the
    cap bounds how long one request can hold the other connections.
``GET /healthz``
    ``200 {"status": "ok", "queue_depth": n}`` — ``503`` once
    draining.
``GET /metrics``
    The :data:`repro.obs.metrics` registry snapshot (populate it by
    running the server with ``REPRO_METRICS=1`` or ``obs.enable``).

Protocol behavior
-----------------
Keep-alive is the HTTP/1.1 default; pipelined requests on one
connection are parsed as a batch, dispatched **concurrently** (so a
pipelined burst of singles coalesces into one flush exactly like a
bulk body), and answered strictly in order.  Everything runs on the
event loop's thread: the scheduler is flushed by a loop callback (see
:mod:`repro.serve.aio`), and the server starts no thread and no
executor.  Backpressure surfaces as
``429`` with a ``Retry-After`` header and the structured body of
:mod:`repro.serve.codec`; all error bodies use that codec.  ``inf``
costs serialize as JSON ``Infinity`` (the Python ``json`` dialect —
every client in this repo parses it back to ``float("inf")``).

Graceful drain: on SIGTERM/SIGINT (or :meth:`CostHttpServer.drain`)
the server marks itself draining — new requests and connections get
``503 {"error": "service_closed"}`` — waits for in-flight requests to
complete (their costs land in the ``record=`` log), then closes the
listener and the owned service (flushing the recorder) and lets
:meth:`~CostHttpServer.wait_closed` return.  A log recorded here
replays byte-for-byte through ``python -m repro replay``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import Any, Awaitable, Callable

from ..core.transistor_cost import TransistorCostModel
from ..core.wafer_cost import WaferCostModel
from ..errors import (
    ParameterError,
    ReproError,
    ServiceClosedError,
)
from ..geometry.wafer import Wafer
from ..obs import metrics as _metrics, span as _span
from ..obs.recording import record_to_query, shared_model
from ..obs.state import enabled as _obs_enabled
from ..yieldsim.models import ReferenceAreaYield
from .aio import AsyncCostService
from .codec import error_body, retry_after_s, status_for
from .io import RESULT_FIELDS, format_served_json, normalize_point, served_row
from .query import ChipletCostQuery, CostQuery, ModelCostQuery, ServedCost

__all__ = [
    "DEFAULT_MODEL_PARAMS",
    "MAX_OPTIMIZE_AREAS",
    "CostHttpServer",
    "HttpParseError",
    "HttpRequest",
    "RequestParser",
    "ServerThread",
    "chiplet_point_to_query",
    "point_to_query",
    "run_server",
]

#: Server-default model parameters for bare point-field bodies —
#: identical to the ``python -m repro cost`` flag defaults except that
#: ``density`` gets a serving default instead of being required.
DEFAULT_MODEL_PARAMS = {
    "density": 150.0,    # kTr/cm² at λ=1µm   (--density)
    "yield0": 0.7,       # 1 cm² reference yield (--yield0)
    "c0": 500.0,         # reference wafer cost  (--c0)
    "x": 1.8,            # wafer-cost growth rate (--x)
    "wafer_radius": 7.5,  # cm                   (--wafer-radius)
}

#: Most die areas one ``POST /v1/optimize`` body may ask for.  The scan
#: runs inline on the event loop: warm, on a 2-vCPU Xeon VM (Python
#: 3.11), 64 areas take ~2.3 ms, 256 take ~19 ms and 1,024 ~80 ms,
#: which would stall every other connection past perfbench
#: ``http_single``'s 50 ms p99 SLO.
MAX_OPTIMIZE_AREAS = 64

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_READ_CHUNK = 65536

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HttpParseError(ReproError):
    """A malformed or unsupported request; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class HttpRequest:
    """One parsed request: method, target, lower-cased headers, body."""

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(self, method: str, target: str, version: str,
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        """Persistent-connection default per version + Connection header."""
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in conn
        return "close" not in conn

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HttpRequest({self.method} {self.target} {self.version}, "
                f"{len(self.body)} body bytes)")


class RequestParser:
    """Incremental HTTP/1.1 request parser for one connection.

    Feed it whatever the socket produced — a torn request line, one
    byte at a time, or six pipelined requests in one read — and it
    returns every request that *completed* with that feed, keeping
    the tail buffered for the next one.  Bodies are ``Content-Length``
    delimited only (``Transfer-Encoding`` is rejected with 501; the
    clients this serves never chunk).  Oversized headers (64 KiB) and
    bodies (8 MiB) fail loudly rather than buffering without bound.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[HttpRequest]:
        """Buffer ``data``; return the requests it completed (maybe [])."""
        self._buf += data
        requests: list[HttpRequest] = []
        while True:
            request = self._parse_one()
            if request is None:
                return requests
            requests.append(request)

    def _parse_one(self) -> HttpRequest | None:
        head_end = self._buf.find(b"\r\n\r\n")
        if head_end < 0:
            if len(self._buf) > _MAX_HEADER_BYTES:
                raise HttpParseError(
                    f"header block exceeds {_MAX_HEADER_BYTES} bytes",
                    status=431)
            return None
        lines = bytes(self._buf[:head_end]).split(b"\r\n")
        parts = lines[0].decode("latin-1").split(" ")
        if len(parts) != 3 or not all(parts):
            raise HttpParseError(
                f"malformed request line {lines[0]!r}")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise HttpParseError(
                f"unsupported protocol version {version!r}", status=505)
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(b":")
            if not sep or not name.strip():
                raise HttpParseError(f"malformed header line {line!r}")
            headers[name.decode("latin-1").strip().lower()] = \
                value.decode("latin-1").strip()
        if "transfer-encoding" in headers:
            raise HttpParseError(
                "Transfer-Encoding is not supported; send Content-Length",
                status=501)
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise HttpParseError(
                f"bad Content-Length {raw_length!r}") from None
        if length > _MAX_BODY_BYTES:
            raise HttpParseError(
                f"body of {length} bytes exceeds {_MAX_BODY_BYTES}",
                status=413)
        body_start = head_end + 4
        if len(self._buf) < body_start + length:
            return None  # body still in flight; wait for the next feed
        body = bytes(self._buf[body_start:body_start + length])
        del self._buf[:body_start + length]
        return HttpRequest(method, target, version, headers, body)


def _default_model(c0: float, x: float,
                   wafer_radius: float) -> TransistorCostModel:
    return TransistorCostModel(
        wafer_cost=WaferCostModel(reference_cost_dollars=c0,
                                  cost_growth_rate=x),
        wafer=Wafer(radius_cm=wafer_radius))


def _reference_yield(yield0: float) -> ReferenceAreaYield:
    return ReferenceAreaYield(reference_yield=yield0,
                              reference_area_cm2=1.0)


def point_to_query(point: dict[str, float], *,
                   density: float = DEFAULT_MODEL_PARAMS["density"],
                   yield0: float = DEFAULT_MODEL_PARAMS["yield0"],
                   c0: float = DEFAULT_MODEL_PARAMS["c0"],
                   x: float = DEFAULT_MODEL_PARAMS["x"],
                   wafer_radius: float = DEFAULT_MODEL_PARAMS["wafer_radius"],
                   ) -> ModelCostQuery:
    """Build the server-default query for one *normalized* point.

    ``point`` uses the canonical field names of
    :func:`~repro.serve.io.normalize_point` (``transistors``,
    ``feature_size``, optional ``density`` / ``yield0`` per-point
    overrides).  The model mirrors the CLI's ``_build_cost_model``
    defaults, so a bare-field HTTP body prices exactly like ``python
    -m repro cost`` with the same flags — the load generator leans on
    this to compute expected costs for verification.  Points with the
    same model parameters share one model object
    (:func:`~repro.obs.recording.shared_model`).
    """
    if "die_area" in point:
        raise ParameterError(
            "die_area is a /v1/optimize field; cost points take "
            "transistors/feature_size")
    transistors = point.get("transistors")
    feature_size = point.get("feature_size")
    if transistors is None or feature_size is None:
        raise ParameterError(
            "point needs transistors and feature_size fields")
    return ModelCostQuery(
        n_transistors=transistors, feature_size_um=feature_size,
        model=shared_model(_default_model, c0, x, wafer_radius),
        design_density=point.get("density", density),
        yield_model=shared_model(_reference_yield,
                                 point.get("yield0", yield0)))


#: Bare-body fields ``POST /v1/chiplet`` accepts (everything else 400s).
_CHIPLET_POINT_FIELDS = {"transistors", "feature_size", "chiplets",
                         "packaging", "probe_coverage"}


def chiplet_point_to_query(body: dict[str, Any],
                           where: str = "POST /v1/chiplet"
                           ) -> ChipletCostQuery:
    """Build a chiplet query from bare HTTP point fields.

    ``transistors`` and ``feature_size`` are required; ``chiplets``
    defaults to the query default (4), ``packaging`` names an entry of
    :data:`~repro.system.chiplet.PACKAGING_TECHS`, and
    ``probe_coverage`` overrides the model default — everything else
    about the model stays at library defaults, so a bare body prices
    exactly like ``python -m repro chiplet`` with the same flags.
    """
    import dataclasses

    from ..system.chiplet import PACKAGING_TECHS, ChipletCostModel

    unknown = set(body) - _CHIPLET_POINT_FIELDS
    if unknown:
        raise ParameterError(f"{where}: unknown fields {sorted(unknown)}")
    transistors = body.get("transistors")
    feature_size = body.get("feature_size")
    if transistors is None or feature_size is None:
        raise ParameterError(
            f"{where}: body needs transistors and feature_size fields")
    model = ChipletCostModel()
    if "packaging" in body:
        name = body["packaging"]
        tech = PACKAGING_TECHS.get(name)
        if tech is None:
            raise ParameterError(
                f"{where}: unknown packaging {name!r} (choices: "
                f"{sorted(PACKAGING_TECHS)})")
        model = dataclasses.replace(model, packaging=tech)
    if "probe_coverage" in body:
        model = dataclasses.replace(
            model, probe_coverage=body["probe_coverage"])
    kwargs: dict[str, Any] = {}
    if "chiplets" in body:
        kwargs["chiplets"] = body["chiplets"]
    return ChipletCostQuery(
        n_transistors=transistors, feature_size_um=feature_size,
        model=model, **kwargs)


def _result_object(result: ServedCost) -> dict[str, Any]:
    return dict(zip(RESULT_FIELDS, served_row(result)))


class CostHttpServer:
    """The asyncio HTTP server over one (possibly shared) cost service.

    Standalone construction owns an :class:`AsyncCostService` (keyword
    arguments beyond the ones below go to its scheduler —
    ``max_batch_size``, ``record``, ...); pass ``service=`` to share an
    existing one, which drain then leaves open.  ``port=0`` binds an
    ephemeral port, readable from :attr:`port` after :meth:`start`.

    ``submit_timeout`` is the backpressure bound handed to every
    submit: the default ``0`` turns a full queue into an immediate
    ``429`` (the open-loop contract — the server never queues hidden
    latency on the socket); ``None`` would price pending work on the
    loop to make room instead.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 service: AsyncCostService | None = None,
                 submit_timeout: float | None = 0,
                 density: float = DEFAULT_MODEL_PARAMS["density"],
                 yield0: float = DEFAULT_MODEL_PARAMS["yield0"],
                 c0: float = DEFAULT_MODEL_PARAMS["c0"],
                 x: float = DEFAULT_MODEL_PARAMS["x"],
                 wafer_radius: float = DEFAULT_MODEL_PARAMS["wafer_radius"],
                 **scheduler_kwargs: Any) -> None:
        if service is not None:
            if scheduler_kwargs:
                raise ParameterError(
                    f"scheduler kwargs {sorted(scheduler_kwargs)} conflict "
                    f"with an explicit service")
            self.service = service
            self._owns_service = False
        else:
            self.service = AsyncCostService(**scheduler_kwargs)
            self._owns_service = True
        self.host = host
        self._requested_port = port
        self._submit_timeout = submit_timeout
        self._model_params = {"density": density, "yield0": yield0,
                              "c0": c0, "x": x,
                              "wafer_radius": wafer_radius}
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._draining = False
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._done: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a drain has fully completed."""
        if self._done is None:
            raise ServiceClosedError("server was never started")
        await self._done.wait()

    async def drain(self) -> None:
        """Graceful shutdown: 503 new work, finish in-flight, close.

        Idempotent and safe to call concurrently (signal handler +
        ``async with`` exit): the first caller drives the drain, later
        ones just await completion.  The listener stays open while
        in-flight requests finish so that late arrivals get a clean
        ``503`` + ``Connection: close`` instead of a TCP reset; only
        then does it close, followed by the owned service (which
        flushes any pending queries and the traffic recorder).
        """
        if self._done is None:
            raise ServiceClosedError("server was never started")
        if self._draining:
            await self._done.wait()
            return
        self._draining = True
        assert self._idle is not None and self._server is not None
        await self._idle.wait()
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        if self._owns_service:
            await self.service.close()
        self._done.set()

    async def __aenter__(self) -> "CostHttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.drain()

    # -- connection handling ---------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        parser = RequestParser()
        self._writers.add(writer)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return
                try:
                    requests = parser.feed(data)
                except HttpParseError as exc:
                    await self._write_response(
                        writer, exc.status,
                        {"error": "bad_request", "message": str(exc)},
                        keep_alive=False)
                    return
                if not requests:
                    continue
                if self._draining:
                    body = error_body(
                        ServiceClosedError("server is draining"))
                    for _ in requests:
                        await self._write_response(writer, 503, body,
                                                   keep_alive=False)
                    return
                # Pipelined requests dispatch concurrently — a burst of
                # singles on one connection coalesces into one flush
                # just like a bulk body — but respond strictly in order.
                if len(requests) == 1:
                    responses = [await self._handle(requests[0])]
                else:
                    responses = await asyncio.gather(
                        *(self._handle(r) for r in requests))
                for request, (status, body, headers) in zip(requests,
                                                            responses):
                    keep = request.keep_alive and not self._draining
                    await self._write_response(writer, status, body,
                                               keep_alive=keep,
                                               extra_headers=headers)
                    if not keep:
                        return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, body: Any, *,
                              keep_alive: bool,
                              extra_headers: dict[str, str] | None = None,
                              ) -> None:
        payload = body if isinstance(body, str) else json.dumps(body)
        raw = payload.encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "content-type: application/json",
            f"content-length: {len(raw)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + raw)
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # -- request dispatch ------------------------------------------------

    async def _handle(self, request: HttpRequest
                      ) -> tuple[int, Any, dict[str, str]]:
        """Route one request; returns ``(status, body, extra_headers)``."""
        if self._idle is not None:
            self._inflight += 1
            self._idle.clear()
        try:
            with _span("http.request", method=request.method,
                       target=request.target):
                status, body, headers = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 - boundary: render, don't die
            status, headers = status_for(exc), {}
            body = error_body(exc)
            retry = retry_after_s(exc)
            if retry is not None:
                headers["retry-after"] = f"{retry:.3f}"
        finally:
            if self._idle is not None:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()
        if _obs_enabled():
            _metrics.inc("http.requests")
            _metrics.inc(f"http.status.{status}")
        return status, body, headers

    async def _dispatch(self, request: HttpRequest
                        ) -> tuple[int, Any, dict[str, str]]:
        route = (request.method, request.target)
        handler: Callable[[HttpRequest],
                          Awaitable[tuple[int, Any, dict[str, str]]]] | None
        handler = {
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/metrics"): self._get_metrics,
            ("POST", "/v1/cost"): self._post_cost,
            ("POST", "/v1/cost/bulk"): self._post_cost_bulk,
            ("POST", "/v1/chiplet"): self._post_chiplet,
            ("POST", "/v1/optimize"): self._post_optimize,
        }.get(route)
        if handler is None:
            known = {"/healthz", "/metrics", "/v1/cost", "/v1/cost/bulk",
                     "/v1/chiplet", "/v1/optimize"}
            if request.target in known:
                return 405, {"error": "bad_request",
                             "message": f"{request.method} not allowed "
                                        f"on {request.target}"}, {}
            return 404, {"error": "bad_request",
                         "message": f"no route {request.target}"}, {}
        return await handler(request)

    def _json_body(self, request: HttpRequest) -> Any:
        try:
            return json.loads(request.body)
        except ValueError as exc:
            raise ParameterError(f"invalid JSON body: {exc}") from None

    def _query_from_body(self, body: Any, where: str) -> CostQuery:
        if not isinstance(body, dict):
            raise ParameterError(f"{where}: body must be a JSON object")
        if "q" in body:
            return record_to_query(body["q"])
        point = normalize_point(body, where)
        return point_to_query(point, **self._model_params)

    async def _get_healthz(self, request: HttpRequest
                           ) -> tuple[int, Any, dict[str, str]]:
        status = 503 if self._draining else 200
        return status, {
            "status": "draining" if self._draining else "ok",
            "queue_depth": self.service.scheduler.queue_depth,
        }, {}

    async def _get_metrics(self, request: HttpRequest
                           ) -> tuple[int, Any, dict[str, str]]:
        return 200, _metrics.snapshot(), {}

    async def _post_cost(self, request: HttpRequest
                         ) -> tuple[int, Any, dict[str, str]]:
        with _span("http.parse"):
            query = self._query_from_body(self._json_body(request),
                                          "POST /v1/cost")
        result = await self.service.evaluate(
            query, timeout=self._submit_timeout)
        return 200, _result_object(result), {}

    async def _post_chiplet(self, request: HttpRequest
                            ) -> tuple[int, Any, dict[str, str]]:
        with _span("http.parse"):
            body = self._json_body(request)
            if not isinstance(body, dict):
                raise ParameterError(
                    "POST /v1/chiplet: body must be a JSON object")
            if "q" in body:
                query = record_to_query(body["q"])
                if not isinstance(query, ChipletCostQuery):
                    raise ParameterError(
                        "POST /v1/chiplet: recorded payload is not a "
                        "chiplet query (use POST /v1/cost)")
            else:
                query = chiplet_point_to_query(body)
        result = await self.service.evaluate(
            query, timeout=self._submit_timeout)
        return 200, _result_object(result), {}

    async def _post_cost_bulk(self, request: HttpRequest
                              ) -> tuple[int, Any, dict[str, str]]:
        with _span("http.parse"):
            queries = self._bulk_queries(self._json_body(request))
        results = await self.service.map_bulk(
            queries, timeout=self._submit_timeout)
        if _obs_enabled():
            _metrics.inc("http.bulk.points", len(results))
        return 200, format_served_json(results), {}

    def _bulk_queries(self, body: Any) -> list[CostQuery]:
        where = "POST /v1/cost/bulk"
        if not isinstance(body, dict):
            raise ParameterError(f"{where}: body must be a JSON object")
        if ("queries" in body) == ("points" in body):
            raise ParameterError(
                f"{where}: body needs exactly one of 'queries' or 'points'")
        if "queries" in body:
            payloads = body["queries"]
            if not isinstance(payloads, list):
                raise ParameterError(f"{where}: 'queries' must be a list")
            return [record_to_query(p) for p in payloads]
        points = body["points"]
        if isinstance(points, dict):  # columnar: {"transistors": [...]}
            lengths = {len(v) for v in points.values()
                       if isinstance(v, (list, tuple))}
            if len(lengths) != 1 or not all(
                    isinstance(v, (list, tuple)) for v in points.values()):
                raise ParameterError(
                    f"{where}: columnar points need equal-length arrays")
            n = lengths.pop()
            points = [{k: v[i] for k, v in points.items()}
                      for i in range(n)]
        if not isinstance(points, list):
            raise ParameterError(
                f"{where}: 'points' must be a list of objects or a "
                f"columnar dict of arrays")
        return [point_to_query(normalize_point(p, f"{where}[{i}]"),
                               **self._model_params)
                for i, p in enumerate(points)]

    async def _post_optimize(self, request: HttpRequest
                             ) -> tuple[int, Any, dict[str, str]]:
        from ..core.optimization import (
            optimal_feature_size_for_die_area,
            optimal_feature_size_for_die_areas,
        )

        body = self._json_body(request)
        if not isinstance(body, dict):
            raise ParameterError("POST /v1/optimize: body must be an object")
        if ("die_area" in body) == ("die_areas" in body):
            raise ParameterError(
                "POST /v1/optimize: body needs exactly one of 'die_area' "
                "or 'die_areas'")
        unknown = set(body) - {"die_area", "die_areas", "lam_lo", "lam_hi"}
        if unknown:
            raise ParameterError(
                f"POST /v1/optimize: unknown fields {sorted(unknown)}")
        bounds = {}
        if "lam_lo" in body:
            bounds["lam_lo_um"] = _optimize_number(body["lam_lo"], "lam_lo")
        if "lam_hi" in body:
            bounds["lam_hi_um"] = _optimize_number(body["lam_hi"], "lam_hi")
        # The scans below run inline on the loop (bounded by the cap).
        if "die_area" in body:
            area = body["die_area"]
            lam, cost = optimal_feature_size_for_die_area(
                _optimize_number(area, "die_area"), **bounds)
            return 200, {"die_area_cm2": area,
                         "optimal_feature_size_um": lam,
                         "cost_per_transistor_dollars": cost}, {}
        areas = body["die_areas"]
        if not isinstance(areas, list) or not areas:
            raise ParameterError(
                "POST /v1/optimize: 'die_areas' must be a non-empty list")
        if len(areas) > MAX_OPTIMIZE_AREAS:
            raise ParameterError(
                f"POST /v1/optimize: 'die_areas' holds {len(areas)} areas; "
                f"at most {MAX_OPTIMIZE_AREAS} per request")
        lams, costs = optimal_feature_size_for_die_areas(
            [_optimize_number(a, "die_areas[]") for a in areas], **bounds)
        return 200, {"die_area_cm2": areas,
                     "optimal_feature_size_um": lams.tolist(),
                     "cost_per_transistor_dollars": costs.tolist()}, {}


def _optimize_number(value: Any, field: str) -> float:
    """One number of a ``POST /v1/optimize`` body, as a float.

    Only JSON numbers pass (``true`` is an ``int`` to Python): a
    string, ``null`` or nested list would otherwise fail inside the
    scan as a ``TypeError`` or ``ValueError`` and answer 500.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(
            f"POST /v1/optimize: {field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"POST /v1/optimize: {field} is out of range") from None


def run_server(*, host: str = "127.0.0.1", port: int = 8787,
               quiet: bool = False,
               **server_kwargs: Any) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    Binds, prints ``serving on http://host:port`` (the CLI smoke tests
    and the CI e2e chain wait for that line), installs SIGTERM/SIGINT
    handlers that trigger a graceful drain where the platform supports
    them (KeyboardInterrupt drains too, for the rest), and blocks
    until the drain completes.  Returns the process exit code.
    """
    async def _main() -> None:
        server = CostHttpServer(host=host, port=port, **server_kwargs)
        await server.start()
        loop = asyncio.get_running_loop()

        def _begin_drain() -> None:
            loop.create_task(server.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, _begin_drain)
        if not quiet:
            print(f"serving on http://{server.host}:{server.port}",
                  flush=True)
        try:
            await server.wait_closed()
        except asyncio.CancelledError:  # loop torn down without a signal
            await server.drain()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


class ServerThread:
    """A live server on a background thread, for tests and benches.

    ``with ServerThread(record=log) as srv:`` starts a
    :class:`CostHttpServer` on its own event loop thread, exposes the
    bound :attr:`port`, and drains it (flushing the recorder) on
    exit.  :meth:`drain` can also be called early to exercise the
    drain path while the context is still open.  The thread runs until
    :meth:`drain` asks it to stop, even when the server was drained
    directly on its loop.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self.server: CostHttpServer | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-http-server")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise TimeoutError("HTTP server failed to start in 30 s")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to foreground
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = CostHttpServer(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._stop = asyncio.Event()
        self.port = self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()  # idempotent: joins a drain under way

    def drain(self, timeout: float = 60.0) -> None:
        """Drain the server from the foreground thread (idempotent).

        Asks the loop to drain and returns once the server thread has
        exited, re-raising any error the drain raised there.  Waiting
        on the thread rather than on a future scheduled onto the loop
        keeps a repeated call from blocking on a loop that is already
        closing.
        """
        thread, loop, stop = self._thread, self._loop, self._stop
        if thread is None or loop is None or stop is None:
            return  # never entered, or the server failed to start
        with contextlib.suppress(RuntimeError):  # loop closed: thread done
            loop.call_soon_threadsafe(stop.set)
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(f"HTTP server did not drain in {timeout} s")
        if self._error is not None:
            raise self._error

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.drain()
        finally:
            if self._thread is not None:
                self._thread.join(timeout=30)
