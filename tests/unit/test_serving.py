"""Unit tests for the serving front end (admission, cache, coalescer, HTTP).

Async tests run through ``asyncio.run`` directly — no plugin dependency —
and the coalescer's manual-tick mode (``tick_seconds=None``) makes batch
boundaries deterministic wherever the assertion depends on them.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.baselines.sequential import SequentialScan
from repro.core.sdindex import SDIndex
from repro.serving.admission import AdmissionController, AdmissionError, TokenBucket
from repro.serving.cache import ResultCache
from repro.serving.coalescer import (
    RequestTimeout,
    ServerClosedError,
    TickCoalescer,
    query_key,
)
from repro.serving.server import SDQueryServer, ServingClient, ServingConfig

REPULSIVE = (0, 1)
ATTRACTIVE = (2, 3)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def small_index():
    rng = np.random.default_rng(42)
    data = rng.uniform(0, 1, size=(200, 4))
    index = SDIndex.build(data, repulsive=REPULSIVE, attractive=ATTRACTIVE)
    return index, SequentialScan(data, REPULSIVE, ATTRACTIVE), data


def _query(index, seed: int, k: int = 3):
    from repro.core.query import SDQuery

    rng = np.random.default_rng(seed)
    return SDQuery.simple(
        point=rng.uniform(0, 1, size=4),
        repulsive=REPULSIVE,
        attractive=ATTRACTIVE,
        k=k,
        alpha=rng.uniform(0.1, 1.0, size=2),
        beta=rng.uniform(0.1, 1.0, size=2),
    )


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.1)  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 2.0

    def test_seconds_until_is_exact_at_the_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.seconds_until() == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_rate_rejection_carries_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(rate=2.0, burst=1.0, clock=clock)
        controller.admit("a")
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("a")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after == pytest.approx(0.5)

    def test_tenants_have_independent_buckets(self):
        clock = FakeClock()
        controller = AdmissionController(rate=1.0, burst=1.0, clock=clock)
        controller.admit("a")
        controller.admit("b")  # b's bucket is untouched by a's spend
        with pytest.raises(AdmissionError):
            controller.admit("a")

    def test_in_flight_cap_and_release(self):
        controller = AdmissionController(max_in_flight=2)
        controller.admit("a")
        controller.admit("a")
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("a")
        assert excinfo.value.reason == "in_flight"
        controller.release("a")
        controller.admit("a")  # slot freed
        assert controller.in_flight("a") == 2

    def test_release_without_admit_is_a_bug(self):
        controller = AdmissionController(max_in_flight=1)
        with pytest.raises(RuntimeError):
            controller.release("ghost")

    def test_unlimited_by_default(self):
        controller = AdmissionController()
        for _ in range(1000):
            controller.admit("a")
        assert controller.stats()["admitted"] == 1000


class TestResultCache:
    def test_epoch_key_partitions_entries(self):
        cache = ResultCache(capacity=8)
        cache.put("q", 1, "epoch-one")
        assert cache.get("q", 1) == "epoch-one"
        assert cache.get("q", 2) is None  # same query, new epoch: miss
        cache.put("q", 2, "epoch-two")
        assert cache.get("q", 1) == "epoch-one"  # old epoch entry intact

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")
        assert cache.get("a", 1) == "A"  # refresh a
        cache.put("c", 1, "C")  # evicts b, the least recent
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == "A"
        assert cache.stats()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = ResultCache(capacity=1)
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")  # evicts a
        assert cache.get("a", 1) is None  # miss
        assert cache.get("b", 1) == "B"  # hit
        before = cache.stats()
        assert (before["hits"], before["misses"], before["evictions"]) == (1, 1, 1)
        cache.clear()
        after = cache.stats()
        assert after["entries"] == 0
        assert (after["hits"], after["misses"], after["evictions"]) == (0, 0, 0)
        assert after["rejected_degraded"] == 0


class TestTickCoalescer:
    def test_manual_flush_coalesces_into_one_batch(self, small_index):
        index, oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=None, max_batch=64)
            queries = [_query(index, seed) for seed in range(5)]
            futures = [
                asyncio.ensure_future(coalescer.submit(q)) for q in queries
            ]
            await asyncio.sleep(0)  # let submits enqueue
            assert coalescer.backlog == 5
            flushed = await coalescer.flush()
            served = await asyncio.gather(*futures)
            await coalescer.close()
            return flushed, queries, served

        flushed, queries, served = asyncio.run(scenario())
        assert flushed == 5
        assert all(s.batch_size == 5 for s in served)
        for q, s in zip(queries, served):
            expect = small_index[1].query(q)
            assert s.result.row_ids == expect.row_ids
            assert s.result.scores == expect.scores

    def test_max_batch_splits_the_queue(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=None, max_batch=3)
            futures = [
                asyncio.ensure_future(coalescer.submit(_query(index, seed)))
                for seed in range(7)
            ]
            await asyncio.sleep(0)
            await coalescer.flush()
            served = await asyncio.gather(*futures)
            await coalescer.close()
            return served, dict(coalescer.batch_sizes)

        served, sizes = asyncio.run(scenario())
        assert sizes == {3: 2, 1: 1}
        assert sorted(s.batch_size for s in served) == [1, 3, 3, 3, 3, 3, 3]

    def test_identical_queries_hit_the_cache_within_an_epoch(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            cache = ResultCache(capacity=16)
            coalescer = TickCoalescer(index, tick_seconds=None, cache=cache)
            query = _query(index, 7)
            first = asyncio.ensure_future(coalescer.submit(query))
            await asyncio.sleep(0)
            await coalescer.flush()
            second = asyncio.ensure_future(coalescer.submit(query))
            await asyncio.sleep(0)
            await coalescer.flush()
            a, b = await first, await second
            await coalescer.close()
            return a, b, cache.stats()

        a, b, stats = asyncio.run(scenario())
        assert not a.cached and b.cached
        assert a.result is b.result  # the identical materialized answer
        assert stats["hits"] == 1

    def test_epoch_publication_invalidates_the_cache(self, small_index):
        index, _oracle, data = small_index

        async def scenario():
            cache = ResultCache(capacity=16)
            coalescer = TickCoalescer(index, tick_seconds=None, cache=cache)
            query = _query(index, 9)
            first = asyncio.ensure_future(coalescer.submit(query))
            await asyncio.sleep(0)
            await coalescer.flush()
            a = await first
            # A mutation publishes a new epoch: the cache must not serve a.
            index.insert(np.full(4, 0.5), row_id=9_000)
            second = asyncio.ensure_future(coalescer.submit(query))
            await asyncio.sleep(0)
            await coalescer.flush()
            b = await second
            index.delete(9_000)  # restore the module-scoped index
            await coalescer.close()
            return a, b

        a, b = asyncio.run(scenario())
        assert not a.cached and not b.cached
        assert a.epoch != b.epoch

    def test_timeout_raises_and_skips_delivery(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=None)
            with pytest.raises(RequestTimeout):
                await coalescer.submit(_query(index, 1), timeout=0.01)
            # The timed-out slot is skipped; a later flush serves nothing.
            flushed = await coalescer.flush()
            await coalescer.close()
            return flushed, coalescer.timeouts, coalescer.served

        flushed, timeouts, served = asyncio.run(scenario())
        assert flushed == 1  # the dead entry drained without delivery
        assert timeouts == 1
        assert served == 0

    def test_close_fails_queued_requests(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=None)
            future = asyncio.ensure_future(coalescer.submit(_query(index, 2)))
            await asyncio.sleep(0)
            await coalescer.close()
            with pytest.raises(ServerClosedError):
                await future
            with pytest.raises(ServerClosedError):
                await coalescer.submit(_query(index, 3))

        asyncio.run(scenario())

    def test_baseline_mode_serves_batches_of_one(self, small_index):
        index, oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, coalesce=False)
            served = [
                await coalescer.submit(_query(index, seed)) for seed in range(4)
            ]
            await coalescer.close()
            return served

        served = asyncio.run(scenario())
        assert all(s.batch_size == 1 for s in served)
        for seed, s in enumerate(served):
            expect = oracle.query(_query(index, seed))
            assert s.result.row_ids == expect.row_ids

    def test_drainer_ticks_without_manual_flush(self, small_index):
        index, oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=0.001)
            queries = [_query(index, seed) for seed in range(6)]
            served = await asyncio.gather(
                *(coalescer.submit(q) for q in queries)
            )
            await coalescer.close()
            return queries, served

        queries, served = asyncio.run(scenario())
        for q, s in zip(queries, served):
            expect = oracle.query(q)
            assert s.result.row_ids == expect.row_ids
            assert s.result.scores == expect.scores

    def test_no_pins_left_behind(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            coalescer = TickCoalescer(index, tick_seconds=0.0)
            await asyncio.gather(
                *(coalescer.submit(_query(index, seed)) for seed in range(8))
            )
            await coalescer.close()

        asyncio.run(scenario())
        report = index.query_session().epochs.leak_report()
        assert report["pinned_readers"] == 0


class TestQueryKey:
    def test_key_distinguishes_every_field(self, small_index):
        index, _oracle, _data = small_index
        base = _query(index, 5, k=3)
        assert query_key(base) == query_key(_query(index, 5, k=3))
        assert query_key(base) != query_key(_query(index, 6, k=3))
        assert query_key(base) != query_key(_query(index, 5, k=4))


class TestHTTPServer:
    def test_query_roundtrip_is_bit_identical(self, small_index):
        index, oracle, _data = small_index

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    q = _query(index, 12, k=5)
                    status, payload = await client.query(
                        q.point, k=q.k, alpha=q.alpha, beta=q.beta
                    )
            return status, payload, oracle.query(q)

        status, payload, expect = asyncio.run(scenario())
        assert status == 200
        assert payload["row_ids"] == expect.row_ids
        assert payload["scores"] == expect.scores  # exact float round-trip
        assert payload["batch_size"] >= 1

    def test_healthz_stats_and_unknown_route(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            async with SDQueryServer(index) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    health = await client.request("GET", "/healthz")
                    stats = await client.request("GET", "/stats")
                    missing = await client.request("GET", "/nope")
            return health, stats, missing

        health, stats, missing = asyncio.run(scenario())
        assert health == (200, {"status": "ok"})
        assert stats[0] == 200 and stats[1]["engine"] == "SDIndex"
        assert missing[0] == 404

    def test_malformed_body_is_a_400(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            async with SDQueryServer(index) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    not_json = await client.request("POST", "/query", None)
                    no_point = await client.request("POST", "/query", {"k": 3})
                    bad_k = await client.query([0.5] * 4, k=0)
            return not_json, no_point, bad_k

        not_json, no_point, bad_k = asyncio.run(scenario())
        assert not_json[0] == 400
        assert no_point[0] == 400
        assert bad_k[0] == 400

    def test_garbage_bytes_get_a_400_not_a_hang(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            async with SDQueryServer(index) as server:
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not http\r\n\r\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                writer.close()
                await writer.wait_closed()
            return line

        line = asyncio.run(scenario())
        assert b"400" in line

    def test_rate_limit_maps_to_429_with_retry_after(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            config = ServingConfig(tick_seconds=0.0, rate=1.0, burst=1.0)
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    q = _query(index, 3)
                    first = await client.query(q.point, k=q.k, tenant="t1")
                    second = await client.query(q.point, k=q.k, tenant="t1")
                    other = await client.query(q.point, k=q.k, tenant="t2")
            return first, second, other

        first, second, other = asyncio.run(scenario())
        assert first[0] == 200
        assert second[0] == 429 and second[1]["reason"] == "rate"
        assert second[1]["retry_after"] > 0
        assert other[0] == 200  # tenants are isolated

    def test_timeout_maps_to_504(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            # Manual-tick mode never serves on its own: the deadline must fire.
            config = ServingConfig(tick_seconds=None)
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    q = _query(index, 4)
                    return await client.query(q.point, k=q.k, timeout=0.05)

        status, payload = asyncio.run(scenario())
        assert status == 504
        assert payload["timeout"] == pytest.approx(0.05)

    def test_nan_timeout_is_a_400(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    # Python's json writes and reads a bare ``NaN`` token.
                    body = {"point": [0.5] * 4, "k": 3, "timeout": float("nan")}
                    nan = await client.request("POST", "/query", body)
                    negative = await client.request(
                        "POST", "/query", {**body, "timeout": -1}
                    )
            return nan, negative

        nan, negative = asyncio.run(scenario())
        assert nan[0] == 400 and "budget" in nan[1]["error"]
        assert negative[0] == 400

    def test_embedded_submit_after_close_raises(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            server = SDQueryServer(index, ServingConfig(tick_seconds=0.0))
            await server.start()
            await server.close()
            q = _query(index, 6)
            with pytest.raises(ServerClosedError):
                await server.coalescer.submit(q)

        asyncio.run(scenario())

    def test_shutdown_leaves_no_pins_or_in_flight(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            config = ServingConfig(tick_seconds=0.001, max_in_flight=64)
            async with SDQueryServer(index, config) as server:
                queries = [_query(index, seed) for seed in range(20)]
                await asyncio.gather(
                    *(
                        server.submit(
                            q.point, k=q.k, alpha=q.alpha, beta=q.beta
                        )
                        for q in queries
                    )
                )
                return server

        server = asyncio.run(scenario())
        assert server.admission.total_in_flight == 0
        report = index.query_session().epochs.leak_report()
        assert report["pinned_readers"] == 0

    def test_sharded_engine_serves_with_version_tuple_epochs(self):
        rng = np.random.default_rng(17)
        data = rng.uniform(0, 1, size=(300, 4))
        index = SDIndex.build_sharded(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=3
        )
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    q = _query(index, 21, k=4)
                    return await client.query(
                        q.point, k=q.k, alpha=q.alpha, beta=q.beta
                    ), oracle.query(q)

        (status, payload), expect = asyncio.run(scenario())
        index.close()
        assert status == 200
        assert payload["row_ids"] == expect.row_ids
        assert payload["scores"] == expect.scores
        assert isinstance(payload["epoch"], list)  # (topology, *shard versions)
        assert len(payload["epoch"]) == 4

    def test_sharded_answers_match_the_oracle_without_coalescing(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(0, 1, size=(220, 4))
        index = SDIndex.build_sharded(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        queries = [_query(index, seed, k=5) for seed in (29, 30, 31)]

        async def scenario():
            config = ServingConfig(tick_seconds=None, coalesce=False)
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    answers = [
                        await client.query(q.point, k=q.k, alpha=q.alpha, beta=q.beta)
                        for q in queries
                    ]
                    stats = await client.request("GET", "/stats")
            return answers, stats

        try:
            answers, stats = asyncio.run(scenario())
        finally:
            index.close()
        assert stats[0] == 200 and stats[1]["engine"] == "ShardedIndex"
        for q, (status, payload) in zip(queries, answers):
            expect = oracle.query(q)
            assert status == 200
            assert payload["row_ids"] == expect.row_ids
            assert payload["scores"] == expect.scores
            assert payload["degraded"] is False
            assert payload["batch_size"] == 1

    def test_sharded_write_between_requests_misses_the_cache(self):
        """A write to one shard changes the ``(topology, *shard versions)``
        epoch, so the repeated request is served afresh and sees the row."""
        rng = np.random.default_rng(19)
        data = rng.uniform(0, 1, size=(150, 4))
        index = SDIndex.build_sharded(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=3
        )
        point = [0.5, 0.5, 0.5, 0.5]
        # Pure attraction to ``point``: the row inserted there ranks first.
        weights = dict(alpha=[1e-9, 1e-9], beta=[1.0, 1.0])

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    before = await client.query(point, k=3, **weights)
                    repeat = await client.query(point, k=3, **weights)
                    index.insert(point, row_id=10_000)
                    after = await client.query(point, k=3, **weights)
            return before, repeat, after

        try:
            before, repeat, after = asyncio.run(scenario())
        finally:
            index.close()
        assert before[0] == repeat[0] == after[0] == 200
        assert repeat[1]["cached"] and repeat[1]["epoch"] == before[1]["epoch"]
        assert not after[1]["cached"]
        assert after[1]["epoch"] != before[1]["epoch"]
        assert after[1]["row_ids"][0] == 10_000
        assert 10_000 not in before[1]["row_ids"]

    def test_server_leaves_the_engine_open_for_its_owner(self):
        """The server serves the engine it is handed and never closes it:
        after shutdown the caller's engine still answers, bit-identically."""
        rng = np.random.default_rng(23)
        data = rng.uniform(0, 1, size=(180, 4))
        index = SDIndex.build_sharded(
            data, repulsive=REPULSIVE, attractive=ATTRACTIVE, num_shards=2
        )
        oracle = SequentialScan(data, REPULSIVE, ATTRACTIVE)
        q = _query(index, 37, k=3)

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                return await server.submit(q.point, k=q.k, alpha=q.alpha, beta=q.beta)

        try:
            served = asyncio.run(scenario())
            assert not index.closed
            after = index.query(q)
        finally:
            index.close()
        expect = oracle.query(q)
        assert served.result.row_ids == after.row_ids == expect.row_ids
        assert served.result.scores == after.scores == expect.scores


class TestNoTimeoutSentinel:
    """``timeout=None`` means "use the configured default"; the NO_TIMEOUT
    sentinel is the only way to ask for an unbounded wait (the old API
    silently fell back to the default for both)."""

    def test_none_falls_back_to_config_default(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            # Manual-tick mode never serves on its own: only the default
            # deadline can end the wait.
            config = ServingConfig(tick_seconds=None, request_timeout=0.05)
            async with SDQueryServer(index, config) as server:
                q = _query(index, 30)
                with pytest.raises(RequestTimeout) as excinfo:
                    await server.submit(q.point, k=q.k)
                return excinfo.value

        err = asyncio.run(scenario())
        assert err.timeout == pytest.approx(0.05)

    def test_sentinel_outlives_the_default_deadline(self, small_index):
        index, oracle, _data = small_index

        async def scenario():
            from repro.core.deadline import NO_TIMEOUT

            config = ServingConfig(tick_seconds=None, request_timeout=0.05)
            async with SDQueryServer(index, config) as server:
                q = _query(index, 30)
                future = asyncio.ensure_future(
                    server.submit(
                        q.point,
                        k=q.k,
                        alpha=q.alpha,
                        beta=q.beta,
                        timeout=NO_TIMEOUT,
                    )
                )
                await asyncio.sleep(0.1)  # well past the default deadline
                assert not future.done()  # unbounded: still patiently queued
                await server.coalescer.flush()
                served = await future
                return served, oracle.query(q)

        served, expect = asyncio.run(scenario())
        assert served.result.row_ids == expect.row_ids
        assert served.result.scores == expect.scores

    def test_http_null_timeout_means_unbounded(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            from repro.core.deadline import NO_TIMEOUT

            config = ServingConfig(tick_seconds=None, request_timeout=0.05)
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()

                async def flush_later():
                    await asyncio.sleep(0.1)
                    await server.coalescer.flush()

                flusher = asyncio.ensure_future(flush_later())
                async with ServingClient(host, port) as client:
                    q = _query(index, 31)
                    # The client maps the sentinel to JSON ``"timeout": null``.
                    status, payload = await client.query(
                        q.point, k=q.k, timeout=NO_TIMEOUT
                    )
                await flusher
            return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["degraded"] is False
        assert "coverage" not in payload

    def test_http_omitted_timeout_uses_the_default(self, small_index):
        index, _oracle, _data = small_index

        async def scenario():
            config = ServingConfig(tick_seconds=None, request_timeout=0.05)
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    q = _query(index, 31)
                    return await client.query(q.point, k=q.k)

        status, payload = asyncio.run(scenario())
        assert status == 504
        assert payload["timeout"] == pytest.approx(0.05)


class TestLoadReportOutcomes:
    """Every fired request lands in exactly one outcome bucket, and
    availability has the explicit ``issued`` denominator."""

    @staticmethod
    def _workload(num_requests=16, seed=3):
        from repro.workloads.workload import make_serving_workload

        return make_serving_workload(
            REPULSIVE,
            ATTRACTIVE,
            num_requests=num_requests,
            target_rate=50_000.0,
            k=(3, 5),
            num_tenants=2,
            seed=seed,
        )

    def test_clean_run_is_all_ok(self, small_index):
        from repro.serving.loadgen import run_open_loop

        index, _oracle, _data = small_index
        workload = self._workload()

        async def scenario():
            async with SDQueryServer(index, ServingConfig(tick_seconds=0.0)) as server:
                return await run_open_loop(server, workload, collect=True)

        report = asyncio.run(scenario())
        assert report.issued == 16
        assert report.outcomes == {
            "ok": 16, "degraded": 0, "timeout": 0, "rejected": 0, "error": 0
        }
        assert report.availability == 1.0
        assert report.completed == 16
        assert len(report.responses) == 16
        assert sum(report.outcomes.values()) == report.issued

    def test_rejections_are_counted_not_dropped(self, small_index):
        from repro.serving.loadgen import run_open_loop

        index, _oracle, _data = small_index
        workload = self._workload(num_requests=12)

        async def scenario():
            config = ServingConfig(tick_seconds=0.0, rate=0.001, burst=1.0)
            async with SDQueryServer(index, config) as server:
                return await run_open_loop(server, workload)

        report = asyncio.run(scenario())
        # One token per tenant (two tenants), no refill at this rate: every
        # other request is a counted rejection, not a vanished sample.
        assert report.outcomes["ok"] == 2
        assert report.outcomes["rejected"] == 10
        assert sum(report.outcomes.values()) == report.issued == 12
        assert report.availability == pytest.approx(2 / 12)
        assert report.rejected == 10  # legacy property still reads

    def test_timeouts_are_counted_with_denominator(self, small_index):
        from repro.serving.loadgen import run_open_loop

        index, _oracle, _data = small_index
        workload = self._workload(num_requests=6)

        async def scenario():
            # Manual tick: nothing ever flushes, every request times out.
            async with SDQueryServer(index, ServingConfig(tick_seconds=None)) as server:
                return await run_open_loop(server, workload, timeout=0.02)

        report = asyncio.run(scenario())
        assert report.outcomes["timeout"] == 6
        assert report.availability == 0.0
        assert report.completed == 0
        assert sum(report.outcomes.values()) == report.issued == 6

    def test_unexpected_exceptions_are_tallied_then_reraised(self):
        from repro.serving.loadgen import run_open_loop

        workload = self._workload(num_requests=3)

        class BrokenServer:
            async def submit(self, *args, **kwargs):
                raise ValueError("kernel bug")

        with pytest.raises(ValueError, match="kernel bug"):
            asyncio.run(run_open_loop(BrokenServer(), workload))

    def test_as_dict_reports_outcomes_and_availability(self):
        import numpy as np

        from repro.serving.loadgen import LoadReport

        report = LoadReport(
            latencies=np.asarray([0.001, 0.002]),
            outcomes={"ok": 1, "degraded": 1, "timeout": 1, "rejected": 2, "error": 0},
            issued=5,
            elapsed_seconds=0.5,
        )
        summary = report.as_dict()
        assert summary["issued"] == 5
        assert summary["availability"] == pytest.approx(0.4)
        assert summary["outcomes"]["degraded"] == 1
        # Legacy flat keys stay for existing report readers.
        assert summary["rejected"] == 2
        assert summary["timeouts"] == 1
        assert summary["errors"] == 0

    def test_empty_run_availability_is_one(self):
        import numpy as np

        from repro.serving.loadgen import LoadReport

        report = LoadReport(
            latencies=np.asarray([]),
            outcomes={},
            issued=0,
            elapsed_seconds=0.0,
        )
        assert report.availability == 1.0


class TestDeadlineGroups:
    """The coalescer's min-deadline batching (a batch never runs under a
    budget looser than any member's own)."""

    @staticmethod
    def _pending(index, seed, deadline):
        from repro.serving.coalescer import _Pending

        query = _query(index, seed)
        loop = asyncio.get_event_loop_policy().new_event_loop()
        try:
            future = loop.create_future()
        finally:
            loop.close()
        return _Pending(query=query, key=query_key(query), future=future, deadline=deadline)

    def test_unbounded_members_form_their_own_group(self, small_index):
        from repro.core.deadline import Deadline

        index, _oracle, _data = small_index
        clock = FakeClock()
        tight = Deadline(0.05, clock=clock)
        lax = Deadline(0.06, clock=clock)
        items = [
            self._pending(index, 0, None),
            self._pending(index, 1, lax),
            self._pending(index, 2, tight),
            self._pending(index, 3, None),
        ]
        groups = TickCoalescer._deadline_groups(items)
        assert [deadline for _members, deadline in groups] == [None, tight]
        assert groups[0][0] == [items[0], items[3]]
        # Bounded members sort tightest-first and share the tight anchor
        # (0.06 is within the spread factor of 0.05).
        assert groups[1][0] == [items[2], items[1]]

    def test_wide_spread_splits_into_anchored_groups(self, small_index):
        from repro.core.deadline import Deadline

        index, _oracle, _data = small_index
        clock = FakeClock()
        tight = Deadline(0.01, clock=clock)
        mid = Deadline(0.03, clock=clock)  # within 4x of 0.01
        far = Deadline(2.0, clock=clock)  # beyond the spread: its own group
        items = [
            self._pending(index, 0, far),
            self._pending(index, 1, tight),
            self._pending(index, 2, mid),
        ]
        groups = TickCoalescer._deadline_groups(items)
        assert [deadline for _members, deadline in groups] == [tight, far]
        assert groups[0][0] == [items[1], items[2]]
        assert groups[1][0] == [items[0]]

    def test_each_group_runs_under_its_minimum_deadline(self, small_index):
        """A mixed-deadline drain issues one kernel run per group, each under
        the group's *tightest* member — never the most patient one."""
        from repro.core.deadline import Deadline

        index, _oracle, _data = small_index
        recorded = []

        class RecordingSnapshot:
            supports_deadline = True
            version = 1

            def batch_query(self, queries, deadline=None):
                recorded.append(deadline)
                return index.batch_query(queries)

            def close(self):
                pass

        class RecordingIndex:
            def snapshot(self):
                return RecordingSnapshot()

        async def scenario():
            coalescer = TickCoalescer(RecordingIndex(), tick_seconds=None)
            clock = FakeClock()
            tight = Deadline(0.05, clock=clock)
            lax = Deadline(10.0, clock=clock)
            futures = [
                asyncio.ensure_future(coalescer.submit(_query(index, 0))),
                asyncio.ensure_future(coalescer.submit(_query(index, 1))),
            ]
            await asyncio.sleep(0)
            # Attach heterogeneous deadlines directly (submit's timeout maps
            # to a wall-clock Deadline; the fake clock keeps this exact).
            coalescer._pending[0].deadline = lax
            coalescer._pending[1].deadline = tight
            await coalescer.flush()
            served = await asyncio.gather(*futures)
            await coalescer.close()
            return served, tight, lax

        served, tight, lax = asyncio.run(scenario())
        assert len(served) == 2 and all(s.result is not None for s in served)
        # Two kernel runs: the tight request under its own deadline, the lax
        # one under its own — the lax budget never governs the tight member.
        assert recorded == [tight, lax]

    def test_anchor_expiry_requeues_solvent_members(self, small_index):
        """When a group run stops at its anchor's deadline, members that
        still have budget are re-served instead of timing out with it."""
        from repro.core.deadline import Deadline, DeadlineExceeded

        index, _oracle, _data = small_index
        calls = []

        class ExpiringSnapshot:
            supports_deadline = True
            version = 1

            def batch_query(self, queries, deadline=None):
                calls.append((len(queries), deadline))
                # The first run burns through the anchor's budget mid-kernel.
                clock.advance(0.06)
                if deadline is not None and deadline.expired:
                    raise DeadlineExceeded(deadline.budget)
                return index.batch_query(queries)

            def close(self):
                pass

        class ExpiringIndex:
            def snapshot(self):
                return ExpiringSnapshot()

        clock = FakeClock()

        async def scenario():
            coalescer = TickCoalescer(ExpiringIndex(), tick_seconds=None)
            anchor = Deadline(0.05, clock=clock)
            solvent = Deadline(0.15, clock=clock)  # within the spread: grouped
            futures = [
                asyncio.ensure_future(coalescer.submit(_query(index, 0))),
                asyncio.ensure_future(coalescer.submit(_query(index, 1))),
            ]
            await asyncio.sleep(0)
            coalescer._pending[0].deadline = anchor
            coalescer._pending[1].deadline = solvent
            await coalescer.flush()
            results = await asyncio.gather(*futures, return_exceptions=True)
            await coalescer.close()
            return results, coalescer.timeouts, coalescer.served

        results, timeouts, served = asyncio.run(scenario())
        # The expired anchor gets RequestTimeout; the solvent member was
        # re-served in a follow-up pass and still got its answer.
        assert isinstance(results[0], RequestTimeout)
        assert not isinstance(results[1], Exception)
        assert timeouts == 1 and served == 1
        # First run grouped both under the expired anchor; the retry ran the
        # solvent member alone under its own deadline.
        assert [count for count, _d in calls] == [2, 1]


class TestRetryAfterHeader:
    def test_formats_round_up_at_millisecond(self):
        from repro.serving.server import _format_retry_after

        assert _format_retry_after(0.5) == "0.500"
        assert _format_retry_after(0.4996) == "0.500"
        assert _format_retry_after(0.50001) == "0.501"  # never understates
        assert _format_retry_after(0.0) == "0.000"
        assert _format_retry_after(-1.0) == "0.000"  # clamped, not negative

    def test_header_is_at_least_the_bucket_refill(self, small_index):
        """The 429's Retry-After header must round the bucket's actual refill
        time *up*: a client sleeping exactly the header value is admitted."""
        index, _oracle, _data = small_index

        async def scenario():
            config = ServingConfig(
                tick_seconds=None, coalesce=False, rate=3.0, burst=1.0
            )
            async with SDQueryServer(index, config) as server:
                host, port = await server.start()
                async with ServingClient(host, port) as client:
                    point = [0.5, 0.5, 0.5, 0.5]
                    first = await client.query(point, k=3)
                    status, headers, payload = await client.request_full(
                        "POST", "/query", {"point": point, "k": 3}
                    )
                    return first, status, headers, payload

        first, status, headers, payload = asyncio.run(scenario())
        assert first[0] == 200
        assert status == 429
        header = headers["retry-after"]
        # Exact refill time in the JSON body; the header is the ceil at ms.
        assert float(header) >= payload["retry_after"]
        assert float(header) - payload["retry_after"] < 0.001 + 1e-9
        assert len(header.split(".")[1]) == 3
