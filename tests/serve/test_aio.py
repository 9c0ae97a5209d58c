"""AsyncCostService: the asyncio front-end over the shared scheduler."""

import asyncio

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import BackpressureError
from repro.serve import AsyncCostService, CostService, FabCostQuery


class TestAsyncQueries:
    def test_cost_matches_scalar_reference(self):
        async def run():
            async with AsyncCostService() as svc:
                return await svc.cost(FabCostQuery(3.1e6, 0.8))

        got = asyncio.run(run())
        assert got == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    def test_gathered_queries_coalesce_and_match(self):
        queries = [FabCostQuery(2e5 * (i + 1), 0.5 + 0.01 * i)
                   for i in range(30)]

        async def run():
            async with AsyncCostService(max_batch_size=64) as svc:
                return await asyncio.gather(
                    *(svc.cost(q) for q in queries))

        got = asyncio.run(run())
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert got == want

    def test_map_preserves_order(self):
        queries = [FabCostQuery(1e6, 0.8), FabCostQuery(2e6, 0.6),
                   FabCostQuery(3e6, 0.4)]

        async def run():
            async with AsyncCostService() as svc:
                return await svc.map(queries)

        served = asyncio.run(run())
        assert [s.n_transistors for s in served] \
            == [q.n_transistors for q in queries]

    def test_evaluate_returns_served_breakdown(self):
        async def run():
            async with AsyncCostService() as svc:
                return await svc.evaluate(FabCostQuery(3.1e6, 0.8))

        served = asyncio.run(run())
        assert served.feasible
        assert served.cost_per_transistor_dollars \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)


class TestSharedScheduler:
    def test_wrapping_shares_the_sync_scheduler(self):
        svc = CostService()
        try:
            async_svc = AsyncCostService(service=svc)
            assert async_svc.scheduler is svc.scheduler

            async def run():
                async with async_svc:
                    return await async_svc.cost(FabCostQuery(1e6, 0.8))

            got = asyncio.run(run())
            # The wrapped service is still open and usable afterwards.
            assert svc.cost(FabCostQuery(1e6, 0.8)) == got
        finally:
            svc.close()


def _full_service() -> CostService:
    # A full queue: nothing drains it until someone drives it.
    svc = CostService(max_queue_depth=2, max_batch_size=2)
    svc.submit_many([FabCostQuery(1e6, 0.6), FabCostQuery(2e6, 0.6)])
    return svc


class TestAsyncBackpressure:
    def test_zero_timeout_surfaces_backpressure(self):
        svc = _full_service()

        async def run():
            async_svc = AsyncCostService(service=svc)
            with pytest.raises(BackpressureError):
                await async_svc.submit(FabCostQuery(1e6, 0.8), timeout=0)

        asyncio.run(run())


    def test_blocking_bulk_makes_room_and_queues_each_query_once(self):
        # Four of six slots are taken when an 8-query bulk with no
        # timeout arrives: two fit, then pending work is priced on the
        # loop to make room, and the bulk resumes after the tickets it
        # already issued — so every query is queued exactly once.
        svc = CostService(max_queue_depth=6, max_batch_size=2,
                          flush_history=16)
        svc.submit_many([FabCostQuery(1e6 * (i + 1), 0.6) for i in range(4)])
        queries = [FabCostQuery(1e5 * (i + 1), 0.7) for i in range(8)]

        async def run():
            return await AsyncCostService(service=svc).costs_bulk(queries)

        costs = asyncio.run(run())
        svc.close()
        assert costs == [transistor_cost_full(q.n_transistors, 0.7, FIG8_FAB)
                         for q in queries]
        assert sum(r.requests for r in svc.scheduler.recent_flushes) == 12


class TestSubmitBulk:
    def test_ordering_and_bitwise_parity(self):
        # Deliberately unsorted, with duplicates, across two signatures
        # (two distinct fabs) — the bulk path coalesces and dedups, but
        # results must come back in submission order, bitwise equal to
        # the scalar reference.
        import dataclasses

        from repro.serve import scalar_reference_cost
        other_fab = dataclasses.replace(FIG8_FAB, cost_growth_rate=2.0)
        queries = []
        for i in range(40):
            fab = FIG8_FAB if i % 3 else other_fab
            queries.append(FabCostQuery(1e5 * (1 + i % 7),
                                        0.4 + 0.05 * (i % 5), fab))
        queries += queries[:5]  # duplicates dedup within the flush

        async def run():
            async with AsyncCostService(max_batch_size=1000) as svc:
                return await svc.map_bulk(queries)

        served = asyncio.run(run())
        assert [(s.n_transistors, s.feature_size_um) for s in served] \
            == [q.point() for q in queries]
        assert [s.cost_per_transistor_dollars for s in served] \
            == [scalar_reference_cost(q) for q in queries]

    def test_bulk_is_one_flush(self):
        # submit_bulk enters the queue in one submit_many call and the
        # whole request drains as one flush.
        queries = [FabCostQuery(2e5 * (i + 1), 0.6) for i in range(32)]

        async def run():
            async with AsyncCostService(max_batch_size=1000,
                                        flush_history=8) as svc:
                await svc.map_bulk(queries)
                return svc.scheduler.recent_flushes

        flushes = asyncio.run(run())
        assert len(flushes) == 1
        assert flushes[0].requests == len(queries)

    def test_empty_bulk(self):
        async def run():
            async with AsyncCostService() as svc:
                return await svc.map_bulk([])

        assert asyncio.run(run()) == []

    def test_costs_bulk_matches_map_bulk(self):
        queries = [FabCostQuery(1e6, 0.8), FabCostQuery(2e6, 0.5)]

        async def run():
            async with AsyncCostService() as svc:
                costs = await svc.costs_bulk(queries)
                served = await svc.map_bulk(queries)
                return costs, served

        costs, served = asyncio.run(run())
        assert costs == [s.cost_per_transistor_dollars for s in served]

    def test_zero_timeout_surfaces_backpressure(self):
        svc = _full_service()

        async def run():
            async_svc = AsyncCostService(service=svc)
            with pytest.raises(BackpressureError):
                await async_svc.submit_bulk(
                    [FabCostQuery(1e6, 0.8)], timeout=0)

        asyncio.run(run())

    def test_one_loop_crossing_per_bulk_request(self):
        # 32 points over two signatures and four flushes: the flushes
        # hand the request back to the loop once, not once per point.
        import dataclasses

        other_fab = dataclasses.replace(FIG8_FAB, cost_growth_rate=2.0)
        queries = [FabCostQuery(1e5 * (i + 1), 0.6,
                                FIG8_FAB if i % 2 else other_fab)
                   for i in range(32)]

        async def run():
            loop = asyncio.get_running_loop()
            crossings = []
            call_soon_threadsafe = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                crossings.append(getattr(callback, "__name__", ""))
                return call_soon_threadsafe(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            async with AsyncCostService(max_batch_size=8,
                                        flush_history=8) as svc:
                costs = await svc.costs_bulk(queries)
                landed = crossings.count("_land")
            return costs, landed, svc.scheduler.recent_flushes

        costs, landed, flushes = asyncio.run(run())
        assert len(flushes) == 4
        assert landed == 1
        assert costs == [transistor_cost_full(q.n_transistors,
                                              q.feature_size_um, q.fab)
                         for q in queries]

    def test_failed_flush_fails_the_bulk_request(self, monkeypatch):
        boom = RuntimeError("executor exploded")

        def explode(*args, **kwargs):
            raise boom

        monkeypatch.setattr("repro.serve.backend.execute_group", explode)
        queries = [FabCostQuery(1e5 * (i + 1), 0.6) for i in range(12)]

        async def run():
            async with AsyncCostService(max_batch_size=4) as svc:
                with pytest.raises(RuntimeError, match="executor exploded"):
                    await asyncio.wait_for(svc.map_bulk(queries), 10)

        asyncio.run(run())


class TestCancellation:
    def test_cancelled_waiter_neither_leaks_nor_wedges(self):
        # A caller that gives up cancels its future while the ticket is
        # still pending.  The scheduler must still complete the ticket
        # (no leak in the queue), the cancelled future must stay
        # cancelled (no InvalidStateError on the loop), and the service
        # must keep serving afterwards.
        async def run():
            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(
                lambda _loop, context: loop_errors.append(context))
            async with AsyncCostService(max_batch_size=1000,
                                        flush_history=4) as svc:
                waiter = asyncio.ensure_future(
                    svc.evaluate(FabCostQuery(1e6, 0.8)))
                await asyncio.sleep(0)  # submitted; its flush is queued
                assert svc.scheduler.queue_depth == 1
                waiter.cancel()  # mid-flight: before the flush runs
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                # The flush loop is alive: later traffic is served.
                got = await asyncio.wait_for(
                    svc.cost(FabCostQuery(2e6, 0.6)), timeout=10.0)
                # ...and the abandoned ticket was flushed, not leaked.
                assert svc.scheduler.queue_depth == 0
                assert sum(r.requests
                           for r in svc.scheduler.recent_flushes) == 2
            await asyncio.sleep(0)  # let every landing run
            assert loop_errors == []
            return got

        got = asyncio.run(run())
        assert got == transistor_cost_full(2e6, 0.6, FIG8_FAB)

    def test_many_cancelled_waiters_then_bulk_traffic(self):
        queries = [FabCostQuery(1e5 * (i + 1), 0.8) for i in range(20)]

        async def run():
            async with AsyncCostService(max_batch_size=1000) as svc:
                futures = [await svc.submit(q) for q in queries]
                for future in futures:
                    future.cancel()  # before their flush callback runs
                # The cancelled wave must not poison the next one.
                return await asyncio.wait_for(svc.map(queries),
                                              timeout=10.0)

        served = asyncio.run(run())
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert [s.cost_per_transistor_dollars for s in served] == want


class TestLoopFlushing:
    """The event loop drives the scheduler: one flush callback per loop
    iteration, one ``max_batch_size`` slice per callback."""

    def test_gathered_awaiters_share_one_flush(self):
        queries = [FabCostQuery(2e5 * (i + 1), 0.5 + 0.01 * i)
                   for i in range(30)]

        async def run():
            async with AsyncCostService(max_batch_size=64,
                                        flush_history=8) as svc:
                costs = await asyncio.gather(
                    *(svc.cost(q) for q in queries))
                return costs, svc.scheduler.recent_flushes

        costs, flushes = asyncio.run(run())
        assert [f.requests for f in flushes] == [30]
        assert costs == [transistor_cost_full(q.n_transistors,
                                              q.feature_size_um, FIG8_FAB)
                         for q in queries]

    def test_each_callback_prices_one_slice(self, monkeypatch):
        # 12 pending requests at max_batch_size 4: three callbacks of
        # one slice each, and a callback queued behind the first runs
        # between the first and second slices.
        from repro.serve.backend import ThreadBackend
        events = []
        original = ThreadBackend.run_group

        def spy(self, exemplar, points):
            events.append(("flush", len(points)))
            return original(self, exemplar, points)

        monkeypatch.setattr(ThreadBackend, "run_group", spy)
        queries = [FabCostQuery(1e5 * (i + 1), 0.7) for i in range(12)]

        async def run():
            loop = asyncio.get_running_loop()
            async with AsyncCostService(max_batch_size=4) as svc:
                futures = [await svc.submit(q) for q in queries]
                loop.call_soon(events.append, ("other", 0))
                tickets = await asyncio.gather(*futures)
                return [t.cost(timeout=0) for t in tickets]

        costs = asyncio.run(run())
        assert events == [("flush", 4), ("other", 0), ("flush", 4),
                          ("flush", 4)]
        assert costs == [transistor_cost_full(q.n_transistors, 0.7,
                                              FIG8_FAB) for q in queries]
