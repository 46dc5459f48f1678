"""The global queue against the Erlang C closed form of M/M/c.

Exponential service, no batching and ``c`` identical chips draining the
global FIFO queue make the simulated fleet exactly an M/M/c queue, so its
mean wait must land on :class:`~repro.serving.theory.MMcQueue`.  The
arrival stream and the service model are seeded differently: with equal
seeds both draw the same ``default_rng(seed).exponential`` stream, so
service ``n`` would be ``rho`` times arrival gap ``n`` and the waits would
not be those of independent draws.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    NO_BATCHING,
    ChipFleet,
    ExponentialServiceModel,
    MM1Queue,
    MMcQueue,
    PoissonArrivals,
    ServingSimulator,
)


class TestErlangC:
    def test_one_server_is_mm1(self):
        mmc = MMcQueue(arrival_rate_rps=700.0, service_s=1e-3, num_servers=1)
        mm1 = MM1Queue(arrival_rate_rps=700.0, service_s=1e-3)
        assert mmc.wait_probability == pytest.approx(mm1.utilization, rel=1e-12)
        assert mmc.mean_wait_s == pytest.approx(mm1.mean_wait_s, rel=1e-12)

    def test_two_servers_at_one_erlang(self):
        # a = 1, c = 2: C = (1/2 / (1/2)) / (1 + 1 + 1) = 1/3, W_q = C s / (c (1 - rho))
        queue = MMcQueue(arrival_rate_rps=1.0, service_s=1.0, num_servers=2)
        assert queue.utilization == pytest.approx(0.5)
        assert queue.wait_probability == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert queue.mean_wait_s == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert queue.mean_latency_s == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_more_servers_wait_less_at_equal_load(self):
        waits = [MMcQueue(0.6 * c, 1.0, c).mean_wait_s for c in (1, 2, 4, 8)]
        assert waits == sorted(waits, reverse=True)

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            MMcQueue(arrival_rate_rps=2000.0, service_s=1e-3, num_servers=2)
        with pytest.raises(ValueError, match="num_servers"):
            MMcQueue(arrival_rate_rps=1.0, service_s=1e-3, num_servers=0)

    def test_fractional_server_count_rejected(self):
        with pytest.raises(ValueError, match="num_servers must be an integer"):
            MMcQueue(arrival_rate_rps=1.0, service_s=1.0, num_servers=2.5)


@pytest.mark.parametrize(("num_chips", "utilization"), [(2, 0.7), (4, 0.5)])
def test_global_queue_mean_wait_matches_erlang_c(num_chips, utilization):
    service_s = 1e-3
    rate = utilization * num_chips / service_s
    requests = PoissonArrivals(rate, seq_len=128, seed=11).generate(100_000)
    fleet = ChipFleet(ExponentialServiceModel(service_s, seed=12), num_chips=num_chips)
    report = ServingSimulator(fleet, NO_BATCHING).run(requests)
    theory = MMcQueue(arrival_rate_rps=rate, service_s=service_s, num_servers=num_chips)
    assert report.mean_wait_s == pytest.approx(theory.mean_wait_s, rel=0.05)
    assert report.mean_utilization == pytest.approx(utilization, rel=0.05)
