"""MicroBatchScheduler: ticks, coalescing, dedup, backpressure, close."""

import threading
import time

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import (
    BackpressureError,
    ParameterError,
    ServiceClosedError,
)
from repro.serve import FabCostQuery, MicroBatchScheduler
from repro.serve.scheduler import CostTicket


def _queries(n, lam=0.8):
    return [FabCostQuery(1e5 * (i + 1), lam) for i in range(n)]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_batch_size=0),
        dict(max_wait_s=-0.1),
        dict(max_queue_depth=4, max_batch_size=8),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MicroBatchScheduler(**kwargs)


class TestNewValidation:
    # The cache and flush-telemetry knobs.
    @pytest.mark.parametrize("kwargs", [
        dict(cache={}),             # a dict is not a BatchCache
        dict(cache="default"),      # nor is a name for the default one
        dict(flush_history=-1),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MicroBatchScheduler(**kwargs)


class TestFlushing:
    def test_flush_on_batch_size_before_deadline(self):
        # A full batch must not wait out a (deliberately huge) tick.
        with MicroBatchScheduler(max_batch_size=8, max_wait_s=60.0,
                                 cache=None) as sched:
            tickets = [sched.submit(q) for q in _queries(8)]
            results = [t.result(timeout=5.0) for t in tickets]
        assert all(r.feasible for r in results)

    def test_flush_on_deadline_for_partial_batch(self):
        with MicroBatchScheduler(max_batch_size=1000, max_wait_s=0.005,
                                 cache=None) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            assert ticket.result(timeout=5.0).feasible

    def test_bulk_submission_skips_the_tick(self):
        # submit_many is pre-coalesced: even with a huge max_wait and a
        # batch that never fills, the flusher drains it immediately.
        with MicroBatchScheduler(max_batch_size=1000, max_wait_s=60.0,
                                 cache=None) as sched:
            t0 = time.monotonic()
            tickets = sched.submit_many(_queries(16))
            for ticket in tickets:
                ticket.result(timeout=5.0)
            assert time.monotonic() - t0 < 5.0

    def test_results_match_scalar_reference(self):
        queries = _queries(32, lam=0.7)
        with MicroBatchScheduler(max_batch_size=8, cache=None) as sched:
            tickets = sched.submit_many(queries)
            got = [t.cost(timeout=5.0) for t in tickets]
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert got == want


class TestCoalescing:
    def test_duplicates_share_one_slot(self):
        query = FabCostQuery(1e6, 0.8)
        with MicroBatchScheduler(max_batch_size=64, cache=None) as sched:
            tickets = sched.submit_many([query] * 10)
            results = [t.result(timeout=5.0) for t in tickets]
        slots = {t._slot for t in tickets}
        assert slots == {0}
        assert len({r.cost_per_transistor_dollars for r in results}) == 1

    def test_mixed_signatures_split_into_groups(self):
        from repro.core.optimization import FabCharacterization
        other = FabCharacterization(
            cost_growth_rate=FIG8_FAB.cost_growth_rate,
            reference_cost_dollars=2 * FIG8_FAB.reference_cost_dollars,
            wafer_radius_cm=FIG8_FAB.wafer_radius_cm,
            design_density=FIG8_FAB.design_density,
            defect_coefficient=FIG8_FAB.defect_coefficient,
            size_exponent_p=FIG8_FAB.size_exponent_p)
        q_a = FabCostQuery(1e6, 0.8)
        q_b = FabCostQuery(1e6, 0.8, fab=other)
        with MicroBatchScheduler(max_batch_size=64, cache=None) as sched:
            ta, tb = sched.submit_many([q_a, q_b])
            cost_a = ta.cost(timeout=5.0)
            cost_b = tb.cost(timeout=5.0)
        assert cost_a == transistor_cost_full(1e6, 0.8, FIG8_FAB)
        assert cost_b == transistor_cost_full(1e6, 0.8, other)
        assert cost_a != cost_b


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self):
        sched = MicroBatchScheduler(max_batch_size=4, max_queue_depth=4,
                                    max_wait_s=60.0, cache=None)
        # Pretend the flusher is running but never drains: with
        # _started set, submit skips auto-start and the fake pending
        # entries stay put, so the queue is genuinely full.
        sched._started = True
        sched._pending = [object()] * 4
        with pytest.raises(BackpressureError):
            sched._submit_all((FabCostQuery(1e6, 0.8),), timeout=0)

    def test_partial_bulk_carries_issued_tickets(self):
        sched = MicroBatchScheduler(max_batch_size=4, max_queue_depth=4,
                                    max_wait_s=60.0, cache=None)
        sched._started = True  # see above: freeze the queue
        sched._pending = [object()] * 2
        try:
            sched._submit_all(tuple(_queries(4)), timeout=0)
        except BackpressureError as exc:
            assert len(exc.tickets) == 2
        else:  # pragma: no cover - the raise is the test
            pytest.fail("expected BackpressureError")

    def test_blocked_submit_proceeds_when_space_frees(self):
        with MicroBatchScheduler(max_batch_size=2, max_queue_depth=2,
                                 max_wait_s=0.001, cache=None) as sched:
            tickets = sched.submit_many(_queries(12), timeout=10.0)
            assert len(tickets) == 12
            for ticket in tickets:
                ticket.result(timeout=5.0)


class TestFailureFanOut:
    def test_executor_error_reaches_every_waiter(self, monkeypatch):
        boom = RuntimeError("executor exploded")

        def explode(*args, **kwargs):
            raise boom

        monkeypatch.setattr("repro.serve.backend.execute_group", explode)
        with MicroBatchScheduler(max_batch_size=4, cache=None) as sched:
            tickets = sched.submit_many(_queries(4))
            for ticket in tickets:
                with pytest.raises(RuntimeError, match="executor exploded"):
                    ticket.result(timeout=5.0)


class TestExecutionSeam:
    def test_each_group_is_one_positional_run_group_call(self,
                                                         monkeypatch):
        # External tracing wraps ThreadBackend.run_group and sizes the
        # work from its positional arguments; every coalesced group must
        # pass through it exactly once, as (exemplar, points, cache).
        from repro.core.optimization import FabCharacterization
        from repro.serve.backend import ThreadBackend
        calls = []
        original = ThreadBackend.run_group

        def spy(self, *args, **kwargs):
            calls.append((len(args), kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        other = FabCharacterization(reference_cost_dollars=900.0)
        queries = _queries(3) + [FabCostQuery(1e6, 0.8, fab=other)]
        with MicroBatchScheduler(max_batch_size=64, cache=None) as sched:
            for ticket in sched.submit_many(queries):
                ticket.result(timeout=5.0)
        assert calls == [(3, {}), (3, {})]


class TestTickets:
    def test_result_timeout(self):
        sched = MicroBatchScheduler(cache=None)  # never started
        ticket = CostTicket(FabCostQuery(1e6, 0.8), sched, 0.0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            ticket.cost(timeout=0.01)

    def test_done_callback_fires_after_completion(self):
        landed = threading.Event()
        with MicroBatchScheduler(max_batch_size=4, cache=None) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            ticket.add_done_callback(lambda t: landed.set())
            ticket.result(timeout=5.0)
            assert landed.wait(timeout=5.0)

    def test_done_callback_immediate_when_already_done(self):
        with MicroBatchScheduler(max_batch_size=1, cache=None) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            ticket.result(timeout=5.0)
            calls = []
            ticket.add_done_callback(calls.append)
            assert calls == [ticket]


class TestClose:
    def test_close_drains_pending(self):
        sched = MicroBatchScheduler(max_batch_size=1000, max_wait_s=60.0,
                                    cache=None)
        sched.start()
        ticket = sched.submit(FabCostQuery(1e6, 0.8))
        sched.close()
        assert ticket.result(timeout=0).feasible

    def test_submit_after_close_raises(self):
        sched = MicroBatchScheduler(cache=None)
        sched.start()
        sched.close()
        with pytest.raises(ServiceClosedError):
            sched.submit(FabCostQuery(1e6, 0.8))
        with pytest.raises(ServiceClosedError):
            sched.start()

    def test_close_is_idempotent(self):
        sched = MicroBatchScheduler(cache=None)
        sched.start()
        sched.close()
        sched.close()


class TestObservability:
    def test_flush_metrics_and_span(self):
        from repro import obs
        from repro.obs import state as obs_state
        prev = (obs_state.STATE.tracing, obs_state.STATE.metrics)
        obs.enable()
        try:
            with MicroBatchScheduler(max_batch_size=8, cache=None) as sched:
                query = FabCostQuery(1e6, 0.8)
                tickets = sched.submit_many([query] * 6 + _queries(2))
                for ticket in tickets:
                    ticket.result(timeout=5.0)
            snap = obs.metrics.snapshot()
            assert snap["counters"]["serve.requests"] == 8
            assert snap["counters"]["serve.flushes"] >= 1
            assert snap["counters"]["serve.dedup.duplicates"] >= 5
            assert snap["histograms"][
                "serve.request.latency_seconds"]["count"] == 8
            names = [s.name for s in obs.get_trace()]
            assert "serve.flush" in names
        finally:
            obs.disable()
            obs.clear_trace()
            obs.metrics.reset()
            (obs_state.STATE.tracing,
             obs_state.STATE.metrics) = prev


class TestFlushHistory:
    def test_disabled_by_default(self):
        with MicroBatchScheduler(max_batch_size=4, cache=None) as sched:
            sched.submit_many(_queries(4))
            for t in sched._pending:
                pass
        assert sched.recent_flushes == []

    def test_records_flush_shapes(self):
        with MicroBatchScheduler(max_batch_size=4, max_wait_s=0.001,
                                 flush_history=8, cache=None) as sched:
            query = FabCostQuery(1e6, 0.8)
            tickets = sched.submit_many([query, query] + _queries(2))
            for ticket in tickets:
                ticket.result(timeout=5.0)
        records = sched.recent_flushes
        assert len(records) == 1
        rec = records[0]
        assert rec.requests == 4
        assert rec.unique == 3           # the duplicated point coalesced
        assert rec.groups == 1
        assert rec.duration_s > 0.0

    def test_history_is_bounded(self):
        with MicroBatchScheduler(max_batch_size=2, max_wait_s=0.001,
                                 flush_history=3, cache=None) as sched:
            tickets = sched.submit_many(_queries(16))
            for ticket in tickets:
                ticket.result(timeout=5.0)
        assert len(sched.recent_flushes) == 3


class TestBackpressureDiagnostics:
    def test_error_carries_queue_depth(self):
        sched = MicroBatchScheduler(max_batch_size=2, max_queue_depth=3,
                                    max_wait_s=60.0, cache=None)
        sched._started = True  # freeze: no flusher drains the queue
        sched._pending = [object()] * 3
        with pytest.raises(BackpressureError) as excinfo:
            sched.submit(FabCostQuery(1e6, 0.8), timeout=0)
        assert excinfo.value.queue_depth == 3
        assert excinfo.value.tickets == []


class TestFlushHistoryDetail:
    def test_ring_evicts_oldest_flush_ids(self):
        with MicroBatchScheduler(max_batch_size=2, max_wait_s=0.001,
                                 flush_history=3, cache=None) as sched:
            for t in sched.submit_many(_queries(16)):
                t.result(timeout=5.0)
        records = sched.recent_flushes
        assert len(records) == 3
        ids = [r.flush_id for r in records]
        # 16 queries / batch 2 = 8 flushes; the ring keeps the last 3,
        # in order.
        assert ids == [6, 7, 8]

    def test_no_detail_without_history_or_recorder(self):
        with MicroBatchScheduler(max_batch_size=4, cache=None) as sched:
            for t in sched.submit_many(_queries(4)):
                t.result(timeout=5.0)
        assert sched.recent_flushes == []

    def test_concurrent_readers_see_consistent_snapshots(self):
        stop = threading.Event()
        errors = []

        def read_loop(sched):
            while not stop.is_set():
                try:
                    for rec in sched.recent_flushes:
                        assert rec.requests >= rec.unique
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        with MicroBatchScheduler(max_batch_size=2, max_wait_s=0.0,
                                 flush_history=4, cache=None) as sched:
            readers = [threading.Thread(target=read_loop, args=(sched,))
                       for _ in range(2)]
            for r in readers:
                r.start()
            try:
                for _ in range(30):
                    for t in sched.submit_many(_queries(4)):
                        t.result(timeout=5.0)
            finally:
                stop.set()
                for r in readers:
                    r.join(timeout=5.0)
        assert errors == []
