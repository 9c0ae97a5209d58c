"""The HTTP front-end: parser, endpoints, backpressure, drain."""

import asyncio
import json
import math
import socket
import threading
import time

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import ParameterError
from repro.obs.recording import load_recorded_log, query_to_record
from repro.serve import (
    AsyncCostService,
    ChipletCostQuery,
    CostService,
    FabCostQuery,
    scalar_reference_cost,
)
from repro.serve.http import (
    MAX_OPTIMIZE_AREAS,
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


def _poll(predicate, timeout: float = 10.0) -> None:
    """Wait until ``predicate()`` holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


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
        with ServerThread() as srv:
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

    @pytest.mark.parametrize("body", ['{"die_areas": [NaN]}',
                                      '{"die_areas": [Infinity, 1.0]}',
                                      '{"die_area": NaN}'])
    def test_optimize_non_finite_area_400(self, server, body):
        status, _, reply = _http(server.port, "POST", "/v1/optimize", body)
        assert status == 400
        assert json.loads(reply)["error"] == "bad_request"

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


#: ``POST /v1/optimize`` bodies that must answer 400, never 5xx.
_BAD_OPTIMIZE_BODIES = {
    "too_many_areas": json.dumps(
        {"die_areas": [1.0] * (MAX_OPTIMIZE_AREAS + 1)}),
    "area_not_a_number": '{"die_areas": ["a"]}',
    "nested_areas": '{"die_areas": [[1.0]]}',
    "bool_area": '{"die_areas": [true]}',
    "string_area": '{"die_area": "1"}',
    "null_area": '{"die_area": null}',
    "huge_int_area": '{"die_area": 1' + "0" * 400 + '}',
    "lam_lo_not_a_number": '{"die_area": 1, "lam_lo": "a"}',
    "lam_lo_null": '{"die_area": 1, "lam_lo": null}',
    "lam_hi_below_default_lo": '{"die_area": 1, "lam_hi": 0.1}',
    "inverted_bounds": '{"die_areas": [1], "lam_lo": 2, "lam_hi": 1}',
    "equal_bounds": '{"die_area": 1, "lam_lo": 1, "lam_hi": 1}',
    "lam_lo_zero": '{"die_area": 1, "lam_lo": 0}',
    "lam_lo_negative": '{"die_areas": [1], "lam_lo": -1}',
    "lam_hi_infinite": '{"die_area": 1, "lam_hi": Infinity}',
    "lam_lo_nan": '{"die_area": 1, "lam_lo": NaN}',
    "empty_areas": '{"die_areas": []}',
    "areas_not_a_list": '{"die_areas": {"a": 1}}',
}


class TestOptimizeBodies:
    """``/v1/optimize`` scans inline on the event loop, so its body is
    bounded and checked before the scan: a bad body is a 400, never a
    500, and an accepted one carries the scalar optimizer's bits."""

    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread() as srv:
            yield srv

    @pytest.mark.parametrize("name", sorted(_BAD_OPTIMIZE_BODIES))
    def test_bad_body_is_400(self, server, name):
        status, _, reply = _http(server.port, "POST", "/v1/optimize",
                                 _BAD_OPTIMIZE_BODIES[name])
        assert status == 400, (name, reply)
        assert json.loads(reply)["error"] == "bad_request"

    @pytest.mark.parametrize("n_areas", [1, MAX_OPTIMIZE_AREAS])
    def test_areas_up_to_the_cap_match_the_scalar_optimizer(
            self, server, n_areas):
        from repro.core.optimization import optimal_feature_size_for_die_area
        areas = [0.25 + 0.05 * i for i in range(n_areas)]
        status, _, reply = _http(
            server.port, "POST", "/v1/optimize",
            json.dumps({"die_areas": areas, "lam_lo": 0.3, "lam_hi": 1.4}))
        assert status == 200, reply
        got = json.loads(reply)
        assert got["die_area_cm2"] == areas
        want = [optimal_feature_size_for_die_area(a, lam_lo_um=0.3,
                                                  lam_hi_um=1.4)
                for a in areas]
        assert [v.hex() for v in got["optimal_feature_size_um"]] \
            == [lam.hex() for lam, _ in want]
        assert [v.hex() for v in got["cost_per_transistor_dollars"]] \
            == [cost.hex() for _, cost in want]


class TestHostilePoints:
    """Points far outside the paper's range get a prompt 400 or an
    infeasible 200, never a 500 or a stuck flush."""

    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread() as srv:
            yield srv

    def test_tiny_die_refused_fast_while_others_are_served(self, server):
        # One transistor at λ = 1e-9 µm implies ~1.2e13 eq.-(4) rows.
        # The row guard refuses it at once, so the event loop that
        # flushes stays free for the request sent alongside.  That one
        # is a fab query: it never shares the tiny die's group, whose
        # error would fail every member of the group.
        ordinary = FabCostQuery(3.1e6, 0.8)
        bodies = {
            "tiny": json.dumps({"transistors": 1, "feature_size": 1e-9}),
            "ordinary": json.dumps({"q": query_to_record(ordinary)})}
        replies = {}

        def send(name: str) -> None:
            t0 = time.perf_counter()
            status, _, body = _http(server.port, "POST", "/v1/cost",
                                    bodies[name])
            replies[name] = (status, json.loads(body),
                             time.perf_counter() - t0)

        threads = [threading.Thread(target=send, args=(name,))
                   for name in bodies]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        status, body, elapsed = replies["tiny"]
        assert status == 400
        assert body["error"] == "bad_request"
        assert "wafer rows" in body["message"]
        assert elapsed < 1.0
        status, body, _ = replies["ordinary"]
        assert status == 200
        assert body["cost_per_transistor_dollars"] \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    @pytest.mark.parametrize("lam", [1e80, 1e100, 1e150])
    def test_huge_feature_size_fab_is_infeasible(self, server, lam):
        # λ^p overflows a double; it counts as inf, as in the kernels.
        status, _, body = _http(
            server.port, "POST", "/v1/cost",
            json.dumps({"q": query_to_record(FabCostQuery(1e6, lam))}))
        assert status == 200
        result = json.loads(body)
        assert result["feasible"] is False
        assert result["cost_per_transistor_dollars"] == math.inf

    @pytest.mark.parametrize("lam", [1e80, 1e100])
    def test_huge_feature_size_chiplet_is_infeasible(self, server, lam):
        status, _, body = _http(
            server.port, "POST", "/v1/chiplet",
            json.dumps({"transistors": 1e6, "feature_size": lam}))
        assert status == 200
        result = json.loads(body)
        assert result["feasible"] is False
        assert result["cost_per_transistor_dollars"] == math.inf


#: The float64 edge values of ``TestOnePointOneResult``
#: (tests/property_based/test_batch_parity.py), with 1e-9 and -inf,
#: plus one ordinary value.
_EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                1e-150, 1e-100, 1e-9, 1e150, 1e300, 1.7976931348623157e308,
                -1.0, math.inf, -math.inf, math.nan, 0.8)
_FAB_RECORD = query_to_record(FabCostQuery(1e6, 0.8))["fab"]
#: Per kind of one-point body: its route, the body of a point, and the
#: query whose scalar reference the answer must match.
_EDGE_BODIES = {
    "bare_cost": (
        "/v1/cost",
        lambda n, lam: {"transistors": n, "feature_size": lam},
        lambda n, lam: point_to_query({"transistors": n,
                                       "feature_size": lam})),
    "recorded_fab": (
        "/v1/cost",
        lambda n, lam: {"q": {"n": n, "lam": lam, "fab": _FAB_RECORD}},
        FabCostQuery),
    "bare_chiplet": (
        "/v1/chiplet",
        lambda n, lam: {"transistors": n, "feature_size": lam},
        ChipletCostQuery),
}


class TestEdgeValueStatus:
    """Every pair of edge values, served as one point: a 200 with the
    scalar reference's bits, or a 400 where the reference raises
    ParameterError.  Never a 5xx."""

    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread() as srv:
            yield srv

    @pytest.mark.parametrize("kind", sorted(_EDGE_BODIES))
    def test_every_pair_of_edge_values(self, server, kind):
        route, body, query = _EDGE_BODIES[kind]
        statuses = set()
        for n in _EDGE_VALUES:
            # One connection per N_tr with every λ pipelined: the
            # requests dispatch concurrently and share flushes.
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                sock.sendall(b"".join(
                    _request_bytes("POST", route, json.dumps(body(n, lam)))
                    for lam in _EDGE_VALUES))
                buf = bytearray()
                replies = [_read_response(sock, buf) for _ in _EDGE_VALUES]
            for lam, (status, _, raw) in zip(_EDGE_VALUES, replies):
                statuses.add(status)
                try:
                    want = scalar_reference_cost(query(n, lam))
                except ParameterError:
                    assert status == 400, (n, lam, status, raw)
                    continue
                assert status == 200, (n, lam, status, raw)
                got = json.loads(raw)["cost_per_transistor_dollars"]
                assert got.hex() == want.hex(), (n, lam)
        assert statuses == {200, 400}


class TestBackpressure:
    def _frozen_server(self) -> CostHttpServer:
        # A full queue that nothing has flushed yet: submits with the
        # server's zero timeout must 429 immediately, without pricing
        # anything to make room.
        svc = CostService(max_queue_depth=2, max_batch_size=2)
        svc.submit_many([FabCostQuery(1e6, 0.6), FabCostQuery(2e6, 0.6)])
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
    def test_drain_completes_inflight_rejects_new_and_records(
            self, tmp_path, monkeypatch):
        from repro.serve.backend import ThreadBackend

        log = tmp_path / "traffic.jsonl"
        # A helper thread holds the scheduler's flusher role, parked
        # inside a flush, so the loop's flush callback stands aside and
        # the first HTTP request stays in flight while the drain starts
        # around it.
        holder_ids, parked, release = set(), threading.Event(), \
            threading.Event()
        original = ThreadBackend.run_group

        def gated(self, exemplar, points):
            if threading.get_ident() in holder_ids:
                parked.set()
                assert release.wait(timeout=30)
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", gated)
        with ServerThread(record=log, max_batch_size=1000) as srv:
            assert srv.server is not None and srv._loop is not None
            sched = srv.server.service.scheduler

            def hold_the_flusher():
                holder_ids.add(threading.get_ident())
                sched.submit(FabCostQuery(1e6, 0.7)).cost(timeout=30)

            holder = threading.Thread(target=hold_the_flusher)
            holder.start()
            assert parked.wait(timeout=10)

            slow = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=30)
            slow.sendall(_request_bytes(
                "POST", "/v1/cost",
                json.dumps({"q": query_to_record(
                    FabCostQuery(3.1e6, 0.8))})))
            _poll(lambda: sched.queue_depth == 1)  # parsed and queued

            drain_future = asyncio.run_coroutine_threadsafe(
                srv.server.drain(), srv._loop)
            _poll(lambda: srv.server._draining)  # waits on in-flight work

            # A request arriving during the drain gets a clean 503.
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=30) as late:
                late.sendall(_request_bytes("GET", "/healthz"))
                status, headers, body = _read_response(late)
                assert status == 503
                assert json.loads(body)["error"] == "service_closed"
                assert headers["connection"] == "close"
            assert not drain_future.done()

            # Released, the holder prices the queued request on its own
            # thread and the loop lands it: it completes, bitwise
            # correct.
            release.set()
            status, _, body = _read_response(slow)
            assert status == 200
            assert json.loads(body)["cost_per_transistor_dollars"] \
                == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)
            slow.close()
            holder.join(timeout=30)
            assert not holder.is_alive()

            drain_future.result(timeout=30)
            # After the drain the listener is gone: connection refused.
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", srv.port),
                                         timeout=5)

        # After a direct drain, the exit still stops the thread.
        assert srv._thread is not None and not srv._thread.is_alive()
        # The in-flight query landed in the recorded log with its cost,
        # beside the holder's own query.
        recorded = {r.query.point(): r.cost
                    for r in load_recorded_log(log).records}
        assert recorded == {
            (3.1e6, 0.8): transistor_cost_full(3.1e6, 0.8, FIG8_FAB),
            (1e6, 0.7): transistor_cost_full(1e6, 0.7, FIG8_FAB)}

    def test_drain_is_idempotent_and_server_thread_exits(self):
        # A second drain that lands while asyncio.run is closing the
        # loop after the first must not wait for work that loop will
        # never run.  That window is a few hundred microseconds wide,
        # so the start -> drain -> drain -> exit cycle repeats with the
        # gap between the two drains swept across it.
        for i in range(100):
            srv = ServerThread()
            with srv:
                srv.drain(timeout=10)
                time.sleep(i * 1e-5)
                srv.drain(timeout=10)  # second drain: immediate no-op
            assert srv._thread is not None
            assert not srv._thread.is_alive()


class TestLoopFlushing:
    """The server flushes on its event loop: one flush per loop
    iteration, one ``max_batch_size`` slice per callback, no thread."""

    def test_pipelined_burst_is_one_flush(self):
        counts = [1e5 * (i + 1) for i in range(12)]
        with ServerThread(flush_history=8) as srv:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=30) as sock:
                sock.sendall(b"".join(_request_bytes(
                    "POST", "/v1/cost", json.dumps(
                        {"q": query_to_record(FabCostQuery(n, 0.8))}))
                    for n in counts))
                buf = bytearray()
                replies = [_read_response(sock, buf) for _ in counts]
            flushes = srv.server.service.scheduler.recent_flushes
        assert [status for status, _, _ in replies] == [200] * 12
        assert [json.loads(body)["cost_per_transistor_dollars"]
                for _, _, body in replies] \
            == [transistor_cost_full(n, 0.8, FIG8_FAB) for n in counts]
        assert [f.requests for f in flushes] == [12]

    def test_second_connection_is_answered_between_slices(
            self, monkeypatch):
        # 16 pipelined singles at max_batch_size 2 take eight flush
        # callbacks.  A /healthz sent on a second connection while the
        # first slice is priced is answered while requests are still
        # queued: the loop serves other connections between slices.
        from repro.serve.backend import ThreadBackend

        second = socket.socket()
        flushes = []
        original = ThreadBackend.run_group

        def spy(self, exemplar, points):
            if not flushes:
                second.sendall(_request_bytes("GET", "/healthz"))
            flushes.append(len(points))
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        counts = [1e5 * (i + 1) for i in range(16)]
        with ServerThread(max_batch_size=2) as srv:
            second.settimeout(30)
            second.connect(("127.0.0.1", srv.port))
            try:
                with socket.create_connection(("127.0.0.1", srv.port),
                                              timeout=30) as first:
                    first.sendall(b"".join(_request_bytes(
                        "POST", "/v1/cost", json.dumps(
                            {"q": query_to_record(FabCostQuery(n, 0.8))}))
                        for n in counts))
                    status, _, body = _read_response(second)
                    buf = bytearray()
                    replies = [_read_response(first, buf) for _ in counts]
            finally:
                second.close()
        assert status == 200
        assert 0 < json.loads(body)["queue_depth"] < len(counts)
        assert [s for s, _, _ in replies] == [200] * len(counts)
        assert flushes == [2] * 8

    def test_serving_every_route_starts_no_thread(self):
        # The server runs on this thread's loop; pricing singles,
        # chiplets, bulk bodies and optimize scans must not start a
        # flusher or executor thread beside it.
        bodies = [
            ("/v1/cost", {"transistors": 2e6, "feature_size": 0.7}),
            ("/v1/chiplet", {"transistors": 2e6, "feature_size": 0.7,
                             "chiplets": 2}),
            ("/v1/cost/bulk", {"points": [
                {"transistors": 1e6 * (i + 1), "feature_size": 0.6}
                for i in range(8)]}),
            ("/v1/optimize", {"die_areas": [0.5, 1.0]}),
            ("/v1/optimize", {"die_area": 1.0}),
        ]
        before = set(threading.enumerate())

        async def run():
            async with CostHttpServer() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"".join(
                    _request_bytes("POST", route, json.dumps(body))
                    for route, body in bodies))
                await writer.drain()
                statuses = []
                for _ in bodies:
                    head = await reader.readuntil(b"\r\n\r\n")
                    lines = head.decode().split("\r\n")
                    length = next(int(line.split(":")[1]) for line in lines
                                  if line.lower().startswith(
                                      "content-length"))
                    await reader.readexactly(length)
                    statuses.append(int(lines[0].split(" ")[1]))
                during = set(threading.enumerate())
                writer.close()
                await writer.wait_closed()
            return statuses, during

        statuses, during = asyncio.run(run())
        assert statuses == [200] * len(bodies)
        assert during == before


class TestServerConstruction:
    def test_service_conflicts_with_scheduler_kwargs(self):
        svc = AsyncCostService()
        with pytest.raises(ParameterError):
            CostHttpServer(service=svc, max_batch_size=8)

    def test_point_to_query_rejects_optimize_fields(self):
        with pytest.raises(ParameterError):
            point_to_query({"die_area": 1.0})
        with pytest.raises(ParameterError):
            point_to_query({"transistors": 1e6})  # missing feature_size
