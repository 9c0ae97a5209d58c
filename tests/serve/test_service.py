"""CostService: the thread-safe synchronous client."""

import threading

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.core.transistor_cost import TransistorCostModel
from repro.core.wafer_cost import WaferCostModel
from repro.geometry import Wafer
from repro.serve import CostService, FabCostQuery, ModelCostQuery
from repro.yieldsim import ReferenceAreaYield


class TestSingleQueries:
    def test_cost_matches_scalar_reference(self):
        with CostService() as svc:
            got = svc.cost(FabCostQuery(3.1e6, 0.8))
        assert got == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    def test_evaluate_returns_full_breakdown(self):
        with CostService() as svc:
            served = svc.evaluate(FabCostQuery(3.1e6, 0.8))
        assert served.feasible
        assert served.dies_per_wafer >= 1
        assert served.cost_per_transistor_dollars \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    def test_infeasible_point_served_as_inf(self):
        # A die far larger than the wafer: scalar reference returns inf.
        with CostService() as svc:
            served = svc.evaluate(FabCostQuery(1e9, 3.0))
        assert not served.feasible
        assert served.cost_per_transistor_dollars == float("inf")

    def test_model_query_matches_evaluate(self):
        model = TransistorCostModel(
            wafer_cost=WaferCostModel(reference_cost_dollars=700.0,
                                      cost_growth_rate=1.8),
            wafer=Wafer(radius_cm=7.5))
        law = ReferenceAreaYield(reference_yield=0.7,
                                 reference_area_cm2=1.0)
        want = model.evaluate(n_transistors=3.1e6, feature_size_um=0.8,
                              design_density=150.0, yield_model=law)
        with CostService() as svc:
            served = svc.evaluate(ModelCostQuery(
                3.1e6, 0.8, model=model, design_density=150.0,
                yield_model=law))
        assert served.cost_per_transistor_dollars \
            == want.cost_per_transistor_dollars
        assert served.yield_value == want.yield_value
        assert served.dies_per_wafer == want.dies_per_wafer
        assert served.wafer_cost_dollars == want.wafer_cost_dollars
        assert served.die_area_cm2 == want.die_area_cm2


class TestBulk:
    def test_map_preserves_submission_order(self):
        queries = [FabCostQuery(1e5 * (i + 1), 0.5 + 0.01 * i)
                   for i in range(40)]
        with CostService(max_batch_size=16) as svc:
            served = svc.map(queries)
        for query, result in zip(queries, served):
            assert result.n_transistors == query.n_transistors
            assert result.feature_size_um == query.feature_size_um
            assert result.cost_per_transistor_dollars \
                == transistor_cost_full(query.n_transistors,
                                        query.feature_size_um, FIG8_FAB)

    def test_costs_returns_floats(self):
        queries = [FabCostQuery(1e6, 0.8)] * 5
        with CostService() as svc:
            costs = svc.costs(queries)
        assert len(costs) == 5
        assert all(isinstance(c, float) for c in costs)
        assert len(set(costs)) == 1

    def test_queue_depth_visible(self):
        svc = CostService(max_batch_size=1000)
        assert svc.queue_depth == 0
        tickets = svc.submit_many([FabCostQuery(1e6, 0.8)] * 3)
        assert svc.queue_depth == 3  # pending until someone waits
        tickets[0].result(timeout=5.0)
        assert svc.queue_depth == 0
        svc.close()


class TestInlineFlushing:
    def test_cost_on_a_thread_without_a_loop_flushes_inline(
            self, monkeypatch):
        from repro.serve.backend import ThreadBackend
        threads = []
        original = ThreadBackend.run_group

        def spy(self, exemplar, points):
            threads.append(threading.get_ident())
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        before = threading.active_count()
        with CostService() as svc:
            got = svc.cost(FabCostQuery(3.1e6, 0.8))
            served = svc.map([FabCostQuery(1e6, 0.6)] * 3)
            assert threading.active_count() == before
        assert got == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)
        assert len(served) == 3
        assert threads == [threading.get_ident()] * 2


class TestConcurrentSubmitters:
    def test_many_threads_share_one_service(self):
        n_threads, per_thread = 8, 25
        errors = []
        with CostService(max_batch_size=64) as svc:
            def worker(tid):
                try:
                    queries = [FabCostQuery(1e5 * (tid + 1) + 997 * i,
                                            0.4 + 0.02 * (i % 10))
                               for i in range(per_thread)]
                    got = svc.costs(queries)
                    want = [transistor_cost_full(
                        q.n_transistors, q.feature_size_um, FIG8_FAB)
                        for q in queries]
                    assert got == want
                except BaseException as exc:  # surfaced on the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert not errors


class TestConstructorForwarding:
    def test_knobs_reach_the_scheduler(self):
        svc = CostService(max_batch_size=32,
                          max_queue_depth=64, flush_history=16)
        sched = svc.scheduler
        assert sched.max_batch_size == 32
        assert sched.max_queue_depth == 64
        assert not hasattr(sched, "cache")  # one cache per process
        assert sched.recent_flushes == []  # history armed but empty

    def test_async_facade_forwards_the_same_knobs(self):
        from repro.serve import AsyncCostService
        svc = AsyncCostService(max_batch_size=16, max_queue_depth=48,
                               flush_history=4)
        assert svc.scheduler.max_batch_size == 16
        assert svc.scheduler.max_queue_depth == 48

    def test_constructors_accept_exactly_the_shipped_knobs(self):
        import inspect

        from repro.serve import AsyncCostService, MicroBatchScheduler
        knobs = ["max_batch_size", "max_queue_depth",
                 "flush_history", "record"]
        for cls, extra in ((MicroBatchScheduler, []), (CostService, []),
                           (AsyncCostService, ["service"])):
            params = list(inspect.signature(cls).parameters)
            assert params == extra + knobs, cls.__name__


class TestInFlightBackpressure:
    def test_queue_fills_while_a_flush_is_in_flight(self, monkeypatch):
        import threading as _threading

        from repro.errors import BackpressureError
        from repro.serve.backend import ThreadBackend

        started = _threading.Event()
        release = _threading.Event()
        original = ThreadBackend.run_group

        def gated(self, exemplar, points):
            started.set()
            assert release.wait(timeout=10.0)
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", gated)
        queries = [FabCostQuery(1e5 * (i + 1), 0.8) for i in range(4)]
        with CostService(max_batch_size=2, max_queue_depth=2) as svc:
            # First pair: a caller's wait drains it into a flush that
            # parks inside the (gated) executor on the caller's thread.
            in_flight = svc.submit_many(queries[:2])
            waiter = _threading.Thread(
                target=lambda: in_flight[0].result(timeout=10.0))
            waiter.start()
            assert started.wait(timeout=5.0)
            # ...so the next pair refills the bounded queue, and one
            # more non-blocking submit must surface backpressure with
            # the observed depth attached.
            queued = svc.submit_many(queries[2:])
            with pytest.raises(BackpressureError) as excinfo:
                svc.submit(FabCostQuery(9e6, 0.7), timeout=0)
            assert excinfo.value.queue_depth == 2
            # A blocking submit waits out the other thread's flush
            # (it cannot flush while that thread holds the role).
            late = []
            blocked = _threading.Thread(target=lambda: late.append(
                svc.submit(FabCostQuery(7e6, 0.7), timeout=10.0)))
            blocked.start()
            blocked.join(timeout=0.2)
            assert blocked.is_alive() and not late
            release.set()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            blocked.join(timeout=10.0)
            assert not blocked.is_alive()
            # Recovery: both waves land with correct numbers and the
            # service accepts new traffic.
            got = [t.cost(timeout=10.0) for t in in_flight + queued]
            assert late[0].cost(timeout=10.0) \
                == transistor_cost_full(7e6, 0.7, FIG8_FAB)
            extra = svc.cost(FabCostQuery(5e6, 0.8))
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert got == want
        assert extra == transistor_cost_full(5e6, 0.8, FIG8_FAB)


class TestOneRefusedPoint:
    """A point the model refuses fails only the requests that asked for
    it, not the rest of its coalesced group."""

    def test_neighbour_still_prices_and_the_log_says_who_failed(
            self, tmp_path):
        import json

        from repro.errors import ParameterError
        from repro.serve.http import point_to_query
        from repro.serve.query import scalar_reference_cost

        good = point_to_query({"transistors": 2e6, "feature_size": 0.7})
        tiny = point_to_query({"transistors": 1, "feature_size": 1e-9})
        assert good.signature() == tiny.signature()  # one group
        log = tmp_path / "traffic.jsonl"
        with CostService(record=log) as svc:
            tickets = svc.submit_many([good, tiny, good])
            assert tickets[0].cost(timeout=5.0).hex() \
                == scalar_reference_cost(good).hex()
            assert tickets[2].cost(timeout=5.0) == tickets[0].cost()
            with pytest.raises(ParameterError, match="wafer rows"):
                tickets[1].result(timeout=5.0)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r.get("error") for r in records] \
            == [None, "ParameterError", None]
        assert [r["cost"] for r in records] \
            == [tickets[0].cost(), None, tickets[0].cost()]
