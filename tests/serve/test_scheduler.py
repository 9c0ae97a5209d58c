"""MicroBatchScheduler: driven flushes, coalescing, dedup, backpressure,
close."""

import threading

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import (
    BackpressureError,
    ParameterError,
    ServiceClosedError,
    ServiceError,
)
from repro.serve import FabCostQuery, MicroBatchScheduler
from repro.serve.scheduler import CostTicket


def _queries(n, lam=0.8):
    return [FabCostQuery(1e5 * (i + 1), lam) for i in range(n)]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_batch_size=0),
        dict(max_queue_depth=255),  # one short of the default batch
        dict(max_queue_depth=4, max_batch_size=8),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MicroBatchScheduler(**kwargs)


class TestNewValidation:
    # Edge values of the size knobs, and the flush-telemetry knob.
    @pytest.mark.parametrize("kwargs", [
        dict(max_batch_size=-1),                  # a negative batch
        dict(max_batch_size=1, max_queue_depth=0),  # a queue of none
        dict(flush_history=-1),
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MicroBatchScheduler(**kwargs)


class TestFlushing:
    def test_flush_once_prices_one_slice_per_call(self):
        # Nothing is priced until a caller drives the scheduler; each
        # flush_once call drains at most max_batch_size requests and
        # says whether more remain.
        with MicroBatchScheduler(max_batch_size=8, flush_history=8) as sched:
            tickets = sched.submit_many(_queries(20))
            assert sched.queue_depth == 20
            assert not any(t.done() for t in tickets)
            assert sched.flush_once() is True
            assert sched.queue_depth == 12
            assert [t.done() for t in tickets] == [True] * 8 + [False] * 12
            assert sched.flush_once() is True
            assert sched.flush_once() is False
            assert sched.flush_once() is False  # empty: nothing to do
            assert all(t.done() for t in tickets)
        assert [r.requests for r in sched.recent_flushes] == [8, 8, 4]

    def test_wait_on_partial_batch_flushes_on_the_waiting_thread(
            self, monkeypatch):
        # No timer holds a partial batch back: the wait prices it at
        # once, on the thread that waits.
        from repro.serve.backend import ThreadBackend
        threads = []
        original = ThreadBackend.run_group

        def spy(self, exemplar, points):
            threads.append(threading.get_ident())
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        with MicroBatchScheduler(max_batch_size=1000) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            assert ticket.result(timeout=5.0).feasible
        assert threads == [threading.get_ident()]

    def test_bulk_submission_is_one_flush(self):
        # submit_many is pre-coalesced: one wait prices the whole bulk
        # in one flush when it fits max_batch_size.
        with MicroBatchScheduler(max_batch_size=1000,
                                 flush_history=4) as sched:
            tickets = sched.submit_many(_queries(16))
            tickets[0].result(timeout=5.0)
            assert all(t.done() for t in tickets)
            assert [r.requests for r in sched.recent_flushes] == [16]

    def test_results_match_scalar_reference(self):
        queries = _queries(32, lam=0.7)
        with MicroBatchScheduler(max_batch_size=8) as sched:
            tickets = sched.submit_many(queries)
            got = [t.cost(timeout=5.0) for t in tickets]
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert got == want


class TestCoalescing:
    def test_duplicates_share_one_slot(self):
        query = FabCostQuery(1e6, 0.8)
        with MicroBatchScheduler(max_batch_size=64) as sched:
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
        with MicroBatchScheduler(max_batch_size=64) as sched:
            ta, tb = sched.submit_many([q_a, q_b])
            cost_a = ta.cost(timeout=5.0)
            cost_b = tb.cost(timeout=5.0)
        assert cost_a == transistor_cost_full(1e6, 0.8, FIG8_FAB)
        assert cost_b == transistor_cost_full(1e6, 0.8, other)
        assert cost_a != cost_b


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self):
        # Nothing drains the queue until someone drives it, so four
        # submits fill it, and a fifth with timeout=0 is refused
        # without flushing anything to make room.
        sched = MicroBatchScheduler(max_batch_size=4, max_queue_depth=4)
        sched.submit_many(_queries(4))
        with pytest.raises(BackpressureError):
            sched._submit_all((FabCostQuery(1e6, 0.8),), timeout=0)
        assert sched.queue_depth == 4
        sched.close()

    def test_partial_bulk_carries_issued_tickets(self):
        sched = MicroBatchScheduler(max_batch_size=4, max_queue_depth=4)
        sched.submit_many(_queries(2, lam=0.6))
        try:
            sched._submit_all(tuple(_queries(4)), timeout=0)
        except BackpressureError as exc:
            assert len(exc.tickets) == 2
        else:  # pragma: no cover - the raise is the test
            pytest.fail("expected BackpressureError")
        sched.close()

    def test_blocked_submit_proceeds_when_space_frees(self, monkeypatch):
        # A blocking submit into a full queue prices pending work on
        # the submitting thread, slice by slice, until all 12 fit.
        from repro.serve.backend import ThreadBackend
        threads = []
        original = ThreadBackend.run_group

        def spy(self, exemplar, points):
            threads.append(threading.get_ident())
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        with MicroBatchScheduler(max_batch_size=2, max_queue_depth=2) as sched:
            tickets = sched.submit_many(_queries(12), timeout=10.0)
            assert len(tickets) == 12
            assert sum(t.done() for t in tickets) == 10
            assert sched.queue_depth == 2
            for ticket in tickets:
                ticket.result(timeout=5.0)
        assert set(threads) == {threading.get_ident()}
        assert len(threads) == 6


class TestFailureFanOut:
    def test_executor_error_reaches_every_waiter(self, monkeypatch):
        boom = RuntimeError("executor exploded")

        def explode(*args, **kwargs):
            raise boom

        monkeypatch.setattr("repro.serve.backend.execute_group", explode)
        with MicroBatchScheduler(max_batch_size=4) as sched:
            tickets = sched.submit_many(_queries(4))
            for ticket in tickets:
                with pytest.raises(RuntimeError, match="executor exploded"):
                    ticket.result(timeout=5.0)


class TestExecutionSeam:
    def test_each_group_is_one_positional_run_group_call(self,
                                                         monkeypatch):
        # External tracing wraps ThreadBackend.run_group and sizes the
        # work from its positional arguments; every coalesced group must
        # pass through it exactly once, as (exemplar, points).
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
        with MicroBatchScheduler(max_batch_size=64) as sched:
            for ticket in sched.submit_many(queries):
                ticket.result(timeout=5.0)
        assert calls == [(2, {}), (2, {})]


class TestTickets:
    def test_result_timeout(self):
        sched = MicroBatchScheduler()  # never started
        ticket = CostTicket(FabCostQuery(1e6, 0.8), sched, 0.0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            ticket.cost(timeout=0.01)

    def test_done_callback_fires_after_completion(self):
        landed = threading.Event()
        with MicroBatchScheduler(max_batch_size=4) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            ticket.add_done_callback(lambda t: landed.set())
            ticket.result(timeout=5.0)
            assert landed.wait(timeout=5.0)

    def test_wait_inside_a_done_callback_raises(self):
        # A done-callback runs inside a flush on the flushing thread;
        # waiting there on a pending ticket would wait on itself, so it
        # raises instead of hanging.
        errors = []
        with MicroBatchScheduler(max_batch_size=1) as sched:
            first, second = sched.submit_many(_queries(2))

            def wait_on_second(_ticket):
                try:
                    second.cost(timeout=5.0)
                except ServiceError as exc:
                    errors.append(exc)

            first.add_done_callback(wait_on_second)
            first.result(timeout=5.0)
            assert len(errors) == 1
            # The scheduler is not wedged: the waiting thread went on
            # to price the second ticket too.
            assert second.cost(timeout=5.0) == transistor_cost_full(
                2e5, 0.8, FIG8_FAB)

    def test_done_callback_immediate_when_already_done(self):
        with MicroBatchScheduler(max_batch_size=1) as sched:
            ticket = sched.submit(FabCostQuery(1e6, 0.8))
            ticket.result(timeout=5.0)
            calls = []
            ticket.add_done_callback(calls.append)
            assert calls == [ticket]


class TestClose:
    def test_close_drains_pending(self):
        sched = MicroBatchScheduler(max_batch_size=4)
        tickets = sched.submit_many(_queries(10))
        assert not any(t.done() for t in tickets)
        sched.close()
        assert sched.queue_depth == 0
        assert [t.cost(timeout=0) for t in tickets] == [
            transistor_cost_full(t.query.n_transistors, 0.8, FIG8_FAB)
            for t in tickets]

    def test_submit_after_close_raises(self):
        sched = MicroBatchScheduler()
        sched.close()
        with pytest.raises(ServiceClosedError):
            sched.submit(FabCostQuery(1e6, 0.8))
        with pytest.raises(ServiceClosedError):
            sched.submit_many(_queries(2))

    def test_close_is_idempotent(self):
        sched = MicroBatchScheduler()
        sched.close()
        sched.close()


class TestObservability:
    def test_flush_metrics_and_span(self):
        from repro import obs
        from repro.obs import state as obs_state
        prev = (obs_state.STATE.tracing, obs_state.STATE.metrics)
        obs.enable()
        try:
            with MicroBatchScheduler(max_batch_size=8) as sched:
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
        with MicroBatchScheduler(max_batch_size=4) as sched:
            sched.submit_many(_queries(4))
            for t in sched._pending:
                pass
        assert sched.recent_flushes == []

    def test_records_flush_shapes(self):
        with MicroBatchScheduler(max_batch_size=4,
                                 flush_history=8) as sched:
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
        with MicroBatchScheduler(max_batch_size=2,
                                 flush_history=3) as sched:
            tickets = sched.submit_many(_queries(16))
            for ticket in tickets:
                ticket.result(timeout=5.0)
        assert len(sched.recent_flushes) == 3


class TestBackpressureDiagnostics:
    def test_error_carries_queue_depth(self):
        sched = MicroBatchScheduler(max_batch_size=2, max_queue_depth=3)
        sched.submit_many(_queries(3))  # nothing drains until driven
        with pytest.raises(BackpressureError) as excinfo:
            sched.submit(FabCostQuery(1e6, 0.8), timeout=0)
        assert excinfo.value.queue_depth == 3
        assert excinfo.value.tickets == []
        sched.close()


class TestFlushHistoryDetail:
    def test_ring_evicts_oldest_flush_ids(self):
        with MicroBatchScheduler(max_batch_size=2,
                                 flush_history=3) as sched:
            for t in sched.submit_many(_queries(16)):
                t.result(timeout=5.0)
        records = sched.recent_flushes
        assert len(records) == 3
        ids = [r.flush_id for r in records]
        # 16 queries / batch 2 = 8 flushes; the ring keeps the last 3,
        # in order.
        assert ids == [6, 7, 8]

    def test_no_detail_without_history_or_recorder(self):
        with MicroBatchScheduler(max_batch_size=4) as sched:
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

        with MicroBatchScheduler(max_batch_size=2,
                                 flush_history=4) as sched:
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


class TestContention:
    """No flusher thread: threads and an event loop take turns holding
    the flusher role of one shared scheduler."""

    def test_threads_and_a_loop_share_one_scheduler(self, monkeypatch):
        import asyncio
        import os
        import sys

        from repro.serve import (
            AsyncCostService,
            CostService,
            scalar_reference_cost,
        )
        from repro.serve.backend import ThreadBackend

        # Two _flush calls must never overlap; every group they price
        # passes through run_group, so count concurrent calls there.
        guard = threading.Lock()
        active, overlaps, calls = [0], [0], [0]
        original = ThreadBackend.run_group

        def counted(self, exemplar, points):
            with guard:
                active[0] += 1
                calls[0] += 1
                if active[0] > 1:
                    overlaps[0] += 1
            try:
                return original(self, exemplar, points)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(ThreadBackend, "run_group", counted)
        from repro.core.optimization import FabCharacterization
        other = FabCharacterization(reference_cost_dollars=900.0)
        svc = CostService(max_batch_size=8, max_queue_depth=32)
        asvc = AsyncCostService(service=svc)
        cores = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
        n_threads, rounds = cores + 3, 30
        results: dict = {}
        errors: list = []

        def queries_for(worker, r):
            # Six points per round over two signatures; neighbouring
            # workers repeat points, so flushes dedup across callers.
            return [FabCostQuery(1e5 * (1 + (worker + r + i) % 9),
                                 0.4 + 0.1 * ((r + i) % 7),
                                 FIG8_FAB if i % 2 else other)
                    for i in range(6)]

        def sync_worker(w):
            try:
                got = []
                for r in range(rounds):
                    qs = queries_for(w, r)
                    if r % 3 == 0:
                        costs = svc.costs(qs, timeout=60)
                    elif r % 3 == 1:
                        costs = [svc.cost(q, timeout=60) for q in qs]
                    else:
                        tickets = [svc.submit(q, timeout=60) for q in qs]
                        costs = [t.cost(timeout=60)
                                 for t in reversed(tickets)][::-1]
                    got.extend(zip(qs, costs))
                results[w] = got
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        def loop_worker():
            async def main():
                got = []
                for r in range(rounds):
                    qs = queries_for(n_threads, r)
                    if r % 2:
                        costs = await asvc.costs_bulk(qs, timeout=60)
                    else:
                        costs = await asyncio.gather(
                            *(asvc.cost(q, timeout=60) for q in qs))
                    got.extend(zip(qs, costs))
                return got

            try:
                results["loop"] = asyncio.run(
                    asyncio.wait_for(main(), timeout=60))
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sync_worker, args=(w,))
                       for w in range(n_threads)]
            threads.append(threading.Thread(target=loop_worker))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        svc.close()
        assert errors == []
        assert overlaps[0] == 0
        assert calls[0] > 0
        assert sorted(results, key=str) == sorted(
            [*range(n_threads), "loop"], key=str)
        assert sum(len(got) for got in results.values()) \
            == (n_threads + 1) * rounds * 6
        for got in results.values():
            for query, cost in got:
                assert cost.hex() == scalar_reference_cost(query).hex()
        assert svc.queue_depth == 0
