"""AsyncCostService: the asyncio front-end over the shared scheduler."""

import asyncio

import pytest

from repro.core.optimization import FIG8_FAB, transistor_cost_full
from repro.errors import BackpressureError
from repro.serve import AsyncCostService, CostService, FabCostQuery


class TestAsyncQueries:
    def test_cost_matches_scalar_reference(self):
        async def run():
            async with AsyncCostService(cache=None) as svc:
                return await svc.cost(FabCostQuery(3.1e6, 0.8))

        got = asyncio.run(run())
        assert got == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)

    def test_gathered_queries_coalesce_and_match(self):
        queries = [FabCostQuery(2e5 * (i + 1), 0.5 + 0.01 * i)
                   for i in range(30)]

        async def run():
            async with AsyncCostService(max_batch_size=64,
                                        max_wait_s=0.002,
                                        cache=None) as svc:
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
            async with AsyncCostService(cache=None) as svc:
                return await svc.map(queries)

        served = asyncio.run(run())
        assert [s.n_transistors for s in served] \
            == [q.n_transistors for q in queries]

    def test_evaluate_returns_served_breakdown(self):
        async def run():
            async with AsyncCostService(cache=None) as svc:
                return await svc.evaluate(FabCostQuery(3.1e6, 0.8))

        served = asyncio.run(run())
        assert served.feasible
        assert served.cost_per_transistor_dollars \
            == transistor_cost_full(3.1e6, 0.8, FIG8_FAB)


class TestSharedScheduler:
    def test_wrapping_shares_the_sync_scheduler(self):
        svc = CostService(cache=None).start()
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


class TestAsyncBackpressure:
    def test_zero_timeout_surfaces_backpressure(self):
        svc = CostService(max_queue_depth=2, max_batch_size=2,
                          max_wait_s=60.0, cache=None)
        sched = svc.scheduler
        sched._started = True  # freeze the queue: nothing drains it
        sched._pending = [object()] * 2

        async def run():
            async_svc = AsyncCostService(service=svc)
            with pytest.raises(BackpressureError):
                await async_svc.submit(FabCostQuery(1e6, 0.8), timeout=0)

        asyncio.run(run())


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
            async with AsyncCostService(max_batch_size=1000,
                                        max_wait_s=60.0,  # bulk skips tick
                                        cache=None) as svc:
                return await svc.map_bulk(queries)

        served = asyncio.run(run())
        assert [(s.n_transistors, s.feature_size_um) for s in served] \
            == [q.point() for q in queries]
        assert [s.cost_per_transistor_dollars for s in served] \
            == [scalar_reference_cost(q) for q in queries]

    def test_bulk_is_one_flush(self):
        # submit_bulk enters the queue in one submit_many call and the
        # whole request drains as one flush — no per-point tick waits.
        queries = [FabCostQuery(2e5 * (i + 1), 0.6) for i in range(32)]

        async def run():
            async with AsyncCostService(max_batch_size=1000,
                                        max_wait_s=60.0,
                                        flush_history=8,
                                        cache=None) as svc:
                await svc.map_bulk(queries)
                scheduler = svc.scheduler
            # Read history only after close: the tickets resolve before
            # the flusher appends its FlushRecord, so an immediate read
            # races with the history append.
            return scheduler.recent_flushes

        flushes = asyncio.run(run())
        assert len(flushes) == 1
        assert flushes[0].requests == len(queries)

    def test_empty_bulk(self):
        async def run():
            async with AsyncCostService(cache=None) as svc:
                return await svc.map_bulk([])

        assert asyncio.run(run()) == []

    def test_costs_bulk_matches_map_bulk(self):
        queries = [FabCostQuery(1e6, 0.8), FabCostQuery(2e6, 0.5)]

        async def run():
            async with AsyncCostService(cache=None) as svc:
                costs = await svc.costs_bulk(queries)
                served = await svc.map_bulk(queries)
                return costs, served

        costs, served = asyncio.run(run())
        assert costs == [s.cost_per_transistor_dollars for s in served]

    def test_zero_timeout_surfaces_backpressure(self):
        svc = CostService(max_queue_depth=2, max_batch_size=2,
                          max_wait_s=60.0, cache=None)
        sched = svc.scheduler
        sched._started = True  # freeze the queue: nothing drains it
        sched._pending = [object()] * 2

        async def run():
            async_svc = AsyncCostService(service=svc)
            with pytest.raises(BackpressureError):
                await async_svc.submit_bulk(
                    [FabCostQuery(1e6, 0.8)], timeout=0)

        asyncio.run(run())

    def test_one_loop_crossing_per_bulk_request(self):
        # 32 points over two signatures and four flushes: the flusher
        # hands the request back to the loop once, not once per point.
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
                                        flush_history=8,
                                        cache=None) as svc:
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
            async with AsyncCostService(max_batch_size=4,
                                        cache=None) as svc:
                with pytest.raises(RuntimeError, match="executor exploded"):
                    await asyncio.wait_for(svc.map_bulk(queries), 10)

        asyncio.run(run())


class TestCancellation:
    def test_cancelled_waiter_neither_leaks_nor_wedges(self):
        # A caller that gives up (asyncio.wait_for timeout) cancels its
        # future while the ticket is still pending.  The scheduler must
        # still complete the ticket (no leak in the flush loop), the
        # cancelled future must stay cancelled (no InvalidStateError on
        # the loop), and the service must keep serving afterwards.
        async def run():
            async with AsyncCostService(max_batch_size=1000,
                                        max_wait_s=0.2,
                                        cache=None) as svc:
                with pytest.raises(asyncio.TimeoutError):
                    # The tick (200 ms) far exceeds the caller's
                    # patience (5 ms): the wait is cancelled mid-flight.
                    await asyncio.wait_for(
                        svc.evaluate(FabCostQuery(1e6, 0.8)),
                        timeout=0.005)
                # The flush loop is alive: later traffic is served.
                got = await asyncio.wait_for(
                    svc.cost(FabCostQuery(2e6, 0.6)), timeout=10.0)
                # ...and the abandoned ticket was flushed, not leaked.
                assert svc.scheduler.queue_depth == 0
                return got

        got = asyncio.run(run())
        assert got == transistor_cost_full(2e6, 0.6, FIG8_FAB)

    def test_many_cancelled_waiters_then_bulk_traffic(self):
        queries = [FabCostQuery(1e5 * (i + 1), 0.8) for i in range(20)]

        async def run():
            async with AsyncCostService(max_batch_size=1000,
                                        max_wait_s=0.2,
                                        cache=None) as svc:
                futures = [await svc.submit(q) for q in queries]
                for future in futures:
                    future.cancel()
                # The cancelled wave must not poison the next one.
                return await asyncio.wait_for(svc.map(queries),
                                              timeout=10.0)

        served = asyncio.run(run())
        want = [transistor_cost_full(q.n_transistors, q.feature_size_um,
                                     FIG8_FAB) for q in queries]
        assert [s.cost_per_transistor_dollars for s in served] == want
