"""The HTTP front-end: parser, endpoints, backpressure, drain."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import ParameterError
from repro.obs.recording import load_recorded_log, query_to_record
from repro.serve import (
    AsyncCostService,
    CostService,
    FabCostQuery,
    scalar_reference_cost,
)
from repro.serve.http import (
    CostHttpServer,
    HttpParseError,
    HttpRequest,
    RequestParser,
    ServerThread,
    point_to_query,
)


def _request_bytes(method: str, target: str, body: str = "", *,
                   headers: dict[str, str] | None = None) -> bytes:
    raw = body.encode()
    lines = [f"{method} {target} HTTP/1.1", "host: t"]
    if raw or method == "POST":
        lines.append(f"content-length: {len(raw)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + raw


def _read_response(sock: socket.socket,
                   buf: bytearray | None = None
                   ) -> tuple[int, dict[str, str], bytes]:
    """Parse one response; ``buf`` carries pipelined leftovers between
    calls on the same socket (pass the same bytearray each time)."""
    if buf is None:
        buf = bytearray()
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"EOF mid-headers: {bytes(buf)!r}")
        buf += chunk
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("EOF mid-body")
        rest += chunk
    buf[:] = rest[length:]
    return status, headers, rest[:length]


def _http(port: int, method: str, target: str, body: str = ""
          ) -> tuple[int, dict[str, str], bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(_request_bytes(method, target, body))
        return _read_response(sock)


class TestRequestParser:
    PIPELINED = (
        _request_bytes("POST", "/v1/cost", '{"a": 1}') +
        _request_bytes("GET", "/healthz") +
        _request_bytes("POST", "/v1/cost/bulk", '{"b": [2, 3]}')
    )

    def test_single_request_roundtrip(self):
        [req] = RequestParser().feed(
            _request_bytes("POST", "/v1/cost", '{"x": 1}'))
        assert (req.method, req.target, req.version) \
            == ("POST", "/v1/cost", "HTTP/1.1")
        assert req.body == b'{"x": 1}'
        assert req.keep_alive

    def test_pipelined_batch_in_one_feed(self):
        requests = RequestParser().feed(self.PIPELINED)
        assert [(r.method, r.target) for r in requests] == [
            ("POST", "/v1/cost"), ("GET", "/healthz"),
            ("POST", "/v1/cost/bulk")]
        assert requests[2].body == b'{"b": [2, 3]}'

    def test_torn_reads_byte_at_a_time(self):
        # The degenerate TCP segmentation: every byte its own read.
        # The parser must produce the same three requests, each
        # completing exactly at its final byte.
        parser = RequestParser()
        requests = []
        for i in range(len(self.PIPELINED)):
            got = parser.feed(self.PIPELINED[i:i + 1])
            requests.extend(got)
        assert [(r.method, r.target, r.body) for r in requests] == [
            ("POST", "/v1/cost", b'{"a": 1}'),
            ("GET", "/healthz", b""),
            ("POST", "/v1/cost/bulk", b'{"b": [2, 3]}')]

    def test_torn_at_every_split_point(self):
        # Cut one request at every possible byte boundary: the first
        # feed never yields, the second always yields exactly it.
        raw = _request_bytes("POST", "/v1/cost", '{"x": 42}')
        for cut in range(1, len(raw)):
            parser = RequestParser()
            first = parser.feed(raw[:cut])
            second = parser.feed(raw[cut:])
            assert first == []
            assert len(second) == 1 and second[0].body == b'{"x": 42}'

    def test_connection_close_header(self):
        [req] = RequestParser().feed(_request_bytes(
            "GET", "/healthz", headers={"connection": "close"}))
        assert not req.keep_alive

    def test_http10_defaults_to_close(self):
        [req] = RequestParser().feed(
            b"GET /healthz HTTP/1.0\r\n\r\n")
        assert not req.keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(HttpParseError):
            RequestParser().feed(b"NONSENSE\r\n\r\n")

    def test_unsupported_version(self):
        with pytest.raises(HttpParseError) as err:
            RequestParser().feed(b"GET / HTTP/2.0\r\n\r\n")
        assert err.value.status == 505

    def test_transfer_encoding_rejected(self):
        with pytest.raises(HttpParseError) as err:
            RequestParser().feed(
                b"POST /v1/cost HTTP/1.1\r\n"
                b"transfer-encoding: chunked\r\n\r\n")
        assert err.value.status == 501

    def test_bad_content_length(self):
        with pytest.raises(HttpParseError):
            RequestParser().feed(
                b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n")

    def test_oversized_header_block(self):
        parser = RequestParser()
        with pytest.raises(HttpParseError) as err:
            parser.feed(b"GET / HTTP/1.1\r\nx: " + b"a" * 70_000)
        assert err.value.status == 431

    def test_oversized_body_rejected_before_buffering(self):
        with pytest.raises(HttpParseError) as err:
            RequestParser().feed(
                b"POST / HTTP/1.1\r\ncontent-length: 9000000\r\n\r\n")
        assert err.value.status == 413


class TestEndpoints:
    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread(cache=None) as srv:
            yield srv

    def test_cost_recorded_query_payload_bitwise(self, server):
        query = FabCostQuery(3.1e6, 0.8)
        status, _, body = _http(
            server.port, "POST", "/v1/cost",
            json.dumps({"q": query_to_record(query)}))
        assert status == 200
        result = json.loads(body)
        assert result["cost_per_transistor_dollars"] \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)
        assert result["feasible"] is True

    def test_cost_point_fields_use_server_defaults(self, server):
        status, _, body = _http(
            server.port, "POST", "/v1/cost",
            json.dumps({"transistors": 2e6, "feature_size": 0.7}))
        assert status == 200
        want = scalar_reference_cost(point_to_query(
            {"transistors": 2e6, "feature_size": 0.7}))
        assert json.loads(body)["cost_per_transistor_dollars"] == want

    def test_bulk_queries_columnar_response(self, server):
        queries = [FabCostQuery(1e5 * (i + 1), 0.4 + 0.1 * i)
                   for i in range(6)]
        status, _, body = _http(
            server.port, "POST", "/v1/cost/bulk",
            json.dumps({"queries": [query_to_record(q) for q in queries]}))
        assert status == 200
        columns = json.loads(body)
        assert columns["cost_per_transistor_dollars"] \
            == [scalar_reference_cost(q) for q in queries]
        assert columns["n_transistors"] \
            == [q.n_transistors for q in queries]

    def test_bulk_points_list_and_columnar(self, server):
        rows = json.dumps({"points": [
            {"transistors": 1e6, "feature_size": 0.8},
            {"transistors": 2e6, "feature_size": 0.6}]})
        cols = json.dumps({"points": {
            "transistors": [1e6, 2e6], "feature_size": [0.8, 0.6]}})
        _, _, body_rows = _http(server.port, "POST", "/v1/cost/bulk", rows)
        _, _, body_cols = _http(server.port, "POST", "/v1/cost/bulk", cols)
        assert json.loads(body_rows) == json.loads(body_cols)

    def test_optimize_single_area(self, server):
        from repro.core.optimization import optimal_feature_size_for_die_area
        status, _, body = _http(server.port, "POST", "/v1/optimize",
                                json.dumps({"die_area": 1.0}))
        assert status == 200
        got = json.loads(body)
        lam, cost = optimal_feature_size_for_die_area(1.0)
        assert got["optimal_feature_size_um"] == lam
        assert got["cost_per_transistor_dollars"] == cost

    def test_healthz(self, server):
        status, _, body = _http(server.port, "GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_metrics_snapshot_shape(self, server):
        status, _, body = _http(server.port, "GET", "/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert set(snapshot) >= {"counters", "gauges", "histograms"}

    def test_unknown_route_404(self, server):
        status, _, body = _http(server.port, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "bad_request"

    def test_wrong_method_405(self, server):
        status, _, _ = _http(server.port, "GET", "/v1/cost")
        assert status == 405

    def test_invalid_json_400(self, server):
        status, _, body = _http(server.port, "POST", "/v1/cost",
                                "{not json")
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"

    def test_unknown_point_field_400(self, server):
        status, _, body = _http(
            server.port, "POST", "/v1/cost",
            json.dumps({"transistors": 1e6, "feature_siez": 0.8}))
        assert status == 400
        assert "feature_siez" in json.loads(body)["message"]

    def test_parse_error_closes_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET / HTTP/2.0\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 505
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""  # server closed its end

    def test_keepalive_serial_requests_on_one_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            for n in (1e6, 2e6, 3e6):
                sock.sendall(_request_bytes(
                    "POST", "/v1/cost",
                    json.dumps({"q": query_to_record(
                        FabCostQuery(n, 0.8))})))
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["cost_per_transistor_dollars"] \
                    == transistor_cost_full(n, 0.8, FIG8_FAB)

    def test_pipelined_requests_answered_in_order(self, server):
        # Three requests written back-to-back before reading anything;
        # responses must come back in request order with the right
        # costs (the server dispatches them concurrently under the
        # hood so they share a flush).
        counts = [1e6, 2e6, 3e6]
        burst = b"".join(_request_bytes(
            "POST", "/v1/cost",
            json.dumps({"q": query_to_record(FabCostQuery(n, 0.8))}))
            for n in counts)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(burst)
            leftovers = bytearray()
            for n in counts:
                status, _, body = _read_response(sock, leftovers)
                assert status == 200
                assert json.loads(body)["n_transistors"] == n


class TestBackpressure:
    def _frozen_server(self) -> CostHttpServer:
        # A queue that is full and never drains: submits with the
        # server's zero timeout must 429 immediately.
        svc = CostService(max_queue_depth=2, max_batch_size=2,
                          max_wait_s=60.0, cache=None)
        svc.scheduler._started = True
        svc.scheduler._pending = [object()] * 2
        return CostHttpServer(service=AsyncCostService(service=svc))

    def test_cost_429_with_retry_after(self):
        server = self._frozen_server()
        request = HttpRequest(
            "POST", "/v1/cost", "HTTP/1.1", {},
            json.dumps({"q": query_to_record(
                FabCostQuery(1e6, 0.8))}).encode())
        status, body, headers = asyncio.run(server._handle(request))
        assert status == 429
        assert body["error"] == "backpressure"
        assert body["queue_depth"] == 2
        assert float(headers["retry-after"]) == body["retry_after_s"]

    def test_bulk_429(self):
        server = self._frozen_server()
        request = HttpRequest(
            "POST", "/v1/cost/bulk", "HTTP/1.1", {},
            json.dumps({"queries": [query_to_record(
                FabCostQuery(1e6, 0.8))]}).encode())
        status, body, _ = asyncio.run(server._handle(request))
        assert status == 429
        assert body["error"] == "backpressure"


class TestGracefulDrain:
    def test_drain_completes_inflight_rejects_new_and_records(self, tmp_path):
        log = tmp_path / "traffic.jsonl"
        # A long tick (no flush for 500 ms) holds the first request
        # in flight while the drain starts around it.
        with ServerThread(record=log, max_wait_s=0.5,
                          max_batch_size=1000, cache=None) as srv:
            slow = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=30)
            slow.sendall(_request_bytes(
                "POST", "/v1/cost",
                json.dumps({"q": query_to_record(
                    FabCostQuery(3.1e6, 0.8))})))
            time.sleep(0.1)  # request is parsed and awaiting its flush

            assert srv.server is not None and srv._loop is not None
            drain_future = asyncio.run_coroutine_threadsafe(
                srv.server.drain(), srv._loop)
            time.sleep(0.05)  # drain is now waiting on in-flight work

            # A request arriving during the drain gets a clean 503.
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=30) as late:
                late.sendall(_request_bytes("GET", "/healthz"))
                status, headers, body = _read_response(late)
                assert status == 503
                assert json.loads(body)["error"] == "service_closed"
                assert headers["connection"] == "close"

            # The in-flight request still completes, bitwise correct.
            status, _, body = _read_response(slow)
            assert status == 200
            assert json.loads(body)["cost_per_transistor_dollars"] \
                == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)
            slow.close()

            drain_future.result(timeout=30)
            # After the drain the listener is gone: connection refused.
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", srv.port),
                                         timeout=5)

        # After a direct drain, the exit still stops the thread.
        assert srv._thread is not None and not srv._thread.is_alive()
        # The in-flight query landed in the recorded log with its cost.
        recorded = load_recorded_log(log)
        assert len(recorded.records) == 1
        assert recorded.records[0].cost \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    def test_drain_is_idempotent_and_server_thread_exits(self):
        # A second drain that lands while asyncio.run is closing the
        # loop after the first must not wait for work that loop will
        # never run.  That window is a few hundred microseconds wide,
        # so the start -> drain -> drain -> exit cycle repeats with the
        # gap between the two drains swept across it.
        for i in range(100):
            srv = ServerThread(cache=None)
            with srv:
                srv.drain(timeout=10)
                time.sleep(i * 1e-5)
                srv.drain(timeout=10)  # second drain: immediate no-op
            assert srv._thread is not None
            assert not srv._thread.is_alive()


class TestServerConstruction:
    def test_service_conflicts_with_scheduler_kwargs(self):
        svc = AsyncCostService(cache=None)
        with pytest.raises(ParameterError):
            CostHttpServer(service=svc, max_batch_size=8)

    def test_point_to_query_rejects_optimize_fields(self):
        with pytest.raises(ParameterError):
            point_to_query({"die_area": 1.0})
        with pytest.raises(ParameterError):
            point_to_query({"transistors": 1e6})  # missing feature_size
