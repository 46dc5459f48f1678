"""Tests for the shared discrete-event primitives (repro.core.events)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ARRIVE, FREE, TIMEOUT, EventLoop, ServerPool, StageJitter


class TestEventLoop:
    def test_pops_in_time_order(self):
        loop = EventLoop()
        loop.schedule(3.0, ARRIVE, "c")
        loop.schedule(1.0, ARRIVE, "a")
        loop.schedule(2.0, ARRIVE, "b")
        popped = [loop.pop() for _ in range(3)]
        assert [p[0] for p in popped] == [1.0, 2.0, 3.0]
        assert [p[2][0] for p in popped] == ["a", "b", "c"]

    def test_kind_breaks_time_ties(self):
        loop = EventLoop()
        loop.schedule(1.0, TIMEOUT)
        loop.schedule(1.0, ARRIVE, "req")
        loop.schedule(1.0, FREE, 0)
        kinds = [loop.pop()[1] for _ in range(3)]
        assert kinds == [FREE, ARRIVE, TIMEOUT]

    def test_insertion_order_breaks_kind_ties(self):
        loop = EventLoop()
        for label in ("first", "second", "third"):
            loop.schedule(1.0, ARRIVE, label)
        labels = [loop.pop()[2][0] for _ in range(3)]
        assert labels == ["first", "second", "third"]

    def test_now_tracks_popped_time(self):
        loop = EventLoop()
        loop.schedule(2.5, FREE, 1)
        assert loop.now == 0.0
        loop.pop()
        assert loop.now == 2.5

    def test_len_and_bool(self):
        loop = EventLoop()
        assert not loop and len(loop) == 0
        loop.schedule(0.0, ARRIVE)
        assert loop and len(loop) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventLoop().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, ARRIVE)

    def test_nan_time_rejected(self):
        # a NaN time compares false both ways and would corrupt the heap order
        with pytest.raises(ValueError, match="got nan"):
            EventLoop().schedule(float("nan"), ARRIVE)

    def test_pop_before_merges_a_sorted_stream(self):
        loop = EventLoop()
        assert loop.pop_before(0.0, ARRIVE) is None  # empty: the stream goes first
        loop.schedule(1.0, ARRIVE, "heap")
        loop.schedule(1.0, FREE, "free")
        # an earlier kind at the same time is due first
        assert loop.pop_before(1.0, ARRIVE) == (1.0, FREE, ("free",))
        # an equal (time, kind) was scheduled later than the stream's item
        assert loop.pop_before(1.0, ARRIVE) is None
        assert loop.pop_before(1.0, TIMEOUT) == (1.0, ARRIVE, ("heap",))
        assert loop.events_popped == 2 and loop.now == 1.0 and not loop

    def test_payload_never_compared(self):
        # un-orderable payloads must not break tie-handling
        loop = EventLoop()
        loop.schedule(1.0, ARRIVE, {"a": 1})
        loop.schedule(1.0, ARRIVE, {"b": 2})
        assert loop.pop()[2][0] == {"a": 1}


class TestServerPool:
    def test_infinite_speedup_rejected(self):
        # an infinite speedup would serve every item in zero time
        with pytest.raises(ValueError, match="must be finite, got inf"):
            ServerPool("chips", 2, speedups=(1.0, float("inf")))

    def test_shared_pool_takes_lowest_idle(self):
        pool = ServerPool("chips", 3)
        assert pool.idle_server() == 0
        pool.acquire(0)
        assert pool.idle_server() == 1

    def test_keyed_pool_binds_to_key(self):
        pool = ServerPool("streams", 2, keyed=True)
        pool.acquire(1)
        assert pool.idle_server(0) == 0
        assert pool.idle_server(1) is None

    def test_acquire_busy_raises(self):
        pool = ServerPool("chips", 1)
        pool.acquire(0)
        with pytest.raises(RuntimeError):
            pool.acquire(0)

    def test_release_makes_idle(self):
        pool = ServerPool("chips", 1)
        pool.acquire(0)
        pool.release(0)
        assert pool.idle_server() == 0
        assert pool.served == [1]

    def test_fifo_queue_and_peek(self):
        pool = ServerPool("chips", 1)
        pool.enqueue(0, "a")
        pool.enqueue(0, "b")
        assert pool.peek(0) == "a"
        assert pool.pop(0) == "a"
        assert pool.pop(0) == "b"
        assert pool.pop(0) is None and pool.peek(0) is None

    def test_queue_peak_tracks_depth(self):
        pool = ServerPool("chips", 1)
        for item in range(3):
            pool.enqueue(0, item)
        pool.pop(0)
        pool.enqueue(0, 3)
        assert pool.queue_depth() == 3
        assert pool.queue_peak == 3

    def test_keyed_queues_are_separate(self):
        pool = ServerPool("streams", 2, keyed=True)
        pool.enqueue(pool.queue_of(0), "x")
        pool.enqueue(pool.queue_of(1), "y")
        assert pool.pop(0) == "x"
        assert pool.pop(1) == "y"
        assert pool.queue_peak == 2

    def test_speedups_divide_service_time(self):
        pool = ServerPool("chips", 2, speedups=(1.0, 4.0))
        assert pool.service_time(0, 8.0) == pytest.approx(8.0)
        assert pool.service_time(1, 8.0) == pytest.approx(2.0)

    def test_speedup_validation(self):
        with pytest.raises(ValueError):
            ServerPool("chips", 2, speedups=(1.0,))
        with pytest.raises(ValueError):
            ServerPool("chips", 1, speedups=(0.0,))
        with pytest.raises(ValueError):
            ServerPool("chips", 0)

    def test_occupy_accumulates_busy_time(self):
        pool = ServerPool("chips", 2)
        pool.occupy(1.5)
        pool.occupy(0.5)
        assert pool.busy_s == pytest.approx(2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        keyed=st.booleans(),
        num_servers=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)), max_size=80
        ),
    )
    def test_running_depth_matches_recount(self, keyed, num_servers, steps):
        # each step enqueues onto (True) or pops from (False) one queue;
        # pops of empty queues are no-ops and must not move the count
        pool = ServerPool("pool", num_servers, keyed=keyed)
        peak = 0
        for index, (push, key) in enumerate(steps):
            queue = pool.queue_of(key % num_servers)
            if push:
                pool.enqueue(queue, index)
            else:
                pool.pop(queue)
            recount = sum(len(q) - h for q, h in zip(pool.queues, pool.heads))
            peak = max(peak, recount)
            assert pool.queue_depth() == recount
            assert pool.queue_peak == peak


class TestStageJitter:
    def test_zero_sigma_is_identity(self):
        factors = StageJitter(sigma=0.0).factors(10)
        assert np.array_equal(factors, np.ones((10, 3)))

    def test_seeded_and_positive(self):
        a = StageJitter(sigma=0.3, seed=5).factors(64, num_stages=2)
        b = StageJitter(sigma=0.3, seed=5).factors(64, num_stages=2)
        assert a.shape == (64, 2)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_different_seeds_differ(self):
        a = StageJitter(sigma=0.3, seed=0).factors(16)
        b = StageJitter(sigma=0.3, seed=1).factors(16)
        assert not np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            StageJitter(sigma=-0.1)
