"""Tests for the shared discrete-event primitives (repro.core.events)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import ARRIVE, FREE, EventLoop, ServerPool, StageJitter


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
        loop.schedule(1.0, ARRIVE + 1)
        loop.schedule(1.0, ARRIVE, "req")
        loop.schedule(1.0, FREE, 0)
        kinds = [loop.pop()[1] for _ in range(3)]
        assert kinds == [FREE, ARRIVE, ARRIVE + 1]

    def test_insertion_order_breaks_kind_ties(self):
        loop = EventLoop()
        for label in ("first", "second", "third"):
            loop.schedule(1.0, ARRIVE, label)
        labels = [loop.pop()[2][0] for _ in range(3)]
        assert labels == ["first", "second", "third"]

    def test_bool(self):
        loop = EventLoop()
        assert not loop
        loop.schedule(0.0, ARRIVE)
        assert loop

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

    def test_heap_top_is_due_before_an_item_only_when_less_than_its_time_and_kind(self):
        # the rule a client merging a sorted stream of its own reads heap[0] by
        loop = EventLoop()
        loop.schedule(1.0, ARRIVE, "heap")
        loop.schedule(1.0, FREE, "free")
        assert loop.heap[0] < (1.0, ARRIVE)  # an earlier kind at the same time
        loop.pop()
        # an equal (time, kind) goes after the item, as if scheduled later
        assert not loop.heap[0] < (1.0, ARRIVE)
        assert loop.heap[0] < (1.0, ARRIVE + 1)

    def test_counts_scheduled_and_popped_events(self):
        loop = EventLoop()
        for time in (2.0, 1.0, 3.0):
            loop.schedule(time, ARRIVE)
        with pytest.raises(ValueError):
            loop.schedule(-1.0, ARRIVE)  # rejected before it is counted
        loop.pop()
        loop.pop()
        assert (loop.events_scheduled, loop.events_popped) == (3, 2)

    def test_payload_never_compared(self):
        # un-orderable payloads must not break tie-handling
        loop = EventLoop()
        loop.schedule(1.0, ARRIVE, {"a": 1})
        loop.schedule(1.0, ARRIVE, {"b": 2})
        assert loop.pop()[2][0] == {"a": 1}


class TestServerPool:
    def test_takes_lowest_idle(self):
        pool = ServerPool(3)
        assert pool.idle_server() == 0
        pool.acquire(0)
        assert pool.idle_server() == 1

    def test_offline_servers_are_skipped(self):
        pool = ServerPool(2)
        pool.set_online(0, False)
        assert pool.idle_server() == 1
        pool.acquire(1)
        assert pool.idle_server() is None
        pool.set_online(0, True)
        assert pool.idle_server() == 0

    def test_acquire_busy_raises(self):
        pool = ServerPool(1)
        pool.acquire(0)
        with pytest.raises(RuntimeError):
            pool.acquire(0)

    def test_release_makes_idle(self):
        pool = ServerPool(1)
        pool.acquire(0)
        pool.release(0)
        assert pool.idle_server() == 0

    def test_needs_a_server(self):
        with pytest.raises(ValueError):
            ServerPool(0)

    def test_occupy_accumulates_busy_time(self):
        pool = ServerPool(2)
        pool.occupy(1.5)
        pool.occupy(0.5)
        assert pool.busy_s == pytest.approx(2.0)

    def test_a_busy_server_taken_offline_stays_busy(self):
        # the idle and online flags are independent: going offline and back
        # does not free a busy server, only release() does
        pool = ServerPool(1)
        pool.acquire(0)
        pool.set_online(0, False)
        pool.set_online(0, True)
        assert pool.idle_server() is None
        pool.release(0)
        assert pool.idle_server() == 0

    @settings(max_examples=200, deadline=None)
    @given(
        num_servers=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(st.sampled_from(("acquire", "release", "offline", "online")),
                      st.integers(min_value=0, max_value=5)),
            max_size=60,
        ),
    )
    def test_idle_server_is_the_lowest_idle_online_one(self, num_servers, steps):
        pool = ServerPool(num_servers)
        busy, offline = set(), set()
        for action, key in steps:
            server = key % num_servers
            if action == "acquire":
                if server in busy:
                    with pytest.raises(RuntimeError):
                        pool.acquire(server)
                else:
                    pool.acquire(server)
                    busy.add(server)
            elif action == "release":
                pool.release(server)
                busy.discard(server)
            else:
                pool.set_online(server, action == "online")
                (offline.discard if action == "online" else offline.add)(server)
            candidates = set(range(num_servers)) - busy - offline
            assert pool.idle_server() == min(candidates, default=None)


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
