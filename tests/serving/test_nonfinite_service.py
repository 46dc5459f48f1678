"""Non-finite or negative service times and speedups fail loudly.

A service model returning ``inf`` or NaN, or an infinite chip speedup,
used to run to completion and report a NaN p50, zero throughput or zero
busy time.  The loop now rejects a batch whose priced service time is not
finite and non-negative, naming the chip, batch size, ``seq_len`` and
value, and a fleet rejects infinite speedups.  The shortest-expected-delay
router rejects a chip whose expected latency is not finite and
non-negative, naming the chip, ``seq_len`` and value.
"""

from __future__ import annotations

import math

import pytest

from repro.serving import (
    ChipFleet,
    FixedServiceModel,
    PoissonArrivals,
    Router,
    ServiceModel,
    ServingSimulator,
)
from repro.serving.routing import front_end


class LengthPricedModel(ServiceModel):
    """1 ms per request, except ``value`` for a batch padded to ``bad_len``."""

    def __init__(self, bad_len: int, value: float) -> None:
        self.bad_len = bad_len
        self.value = value

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return self.value if seq_len == self.bad_len else batch_size * 1e-3

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return 0.0


def test_infinite_service_time_names_chip_batch_and_seq_len():
    # FixedServiceModel rejects inf at construction; this model prices it at dispatch
    fleet = ChipFleet(LengthPricedModel(64, math.inf), num_chips=2)
    requests = PoissonArrivals(100.0, seq_len=64, seed=0).generate(5)
    with pytest.raises(ValueError, match=r"chip 0: a batch of 1 at seq_len 64 .* got inf"):
        ServingSimulator(fleet).run(requests)


@pytest.mark.parametrize("value", [math.nan, -1e-3])
@pytest.mark.parametrize("router", [None, Router("join_shortest_queue")])
def test_nan_or_negative_service_time_rejected(value, router):
    fleet = ChipFleet(LengthPricedModel(512, value), num_chips=1)
    requests = PoissonArrivals(100.0, seq_len=(128, 512), seed=3).generate(20)
    with pytest.raises(ValueError, match=rf"seq_len 512 .* got {value}"):
        ServingSimulator(fleet, router=router).run(requests)


class MispricedModel(ServiceModel):
    """Serves a request in 1 ms but prices its expected latency as ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def batch_latency_s(self, batch_size: int, seq_len: int) -> float:
        return batch_size * 1e-3

    def batch_energy_j(self, batch_size: int, seq_len: int) -> float:
        return 0.0

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        return self.value


@pytest.mark.parametrize("value", [math.inf, math.nan, -1e-3, -math.inf])
def test_shortest_expected_delay_rejects_a_bad_price(value):
    # no candidate costs less than inf, so route() used to return -1 and
    # every request joined the last chip's queue without an error
    fleet = ChipFleet(MispricedModel(value), num_chips=3)
    requests = PoissonArrivals(100.0, seq_len=64, seed=0).generate(200)
    simulator = ServingSimulator(fleet, router=Router("shortest_expected_delay"))
    with pytest.raises(ValueError, match=rf"chip 0: .* at seq_len 64 .* got {value}"):
        simulator.run(requests)


def test_shortest_expected_delay_names_the_mispriced_chip():
    # every chip of the row is checked, not only the first
    fleet = ChipFleet(
        service_models=(MispricedModel(1e-3), MispricedModel(1e-3), MispricedModel(math.nan)),
        num_chips=3,
    )
    requests = PoissonArrivals(100.0, seq_len=128, seed=0).generate(20)
    simulator = ServingSimulator(fleet, router=Router("shortest_expected_delay"))
    with pytest.raises(ValueError, match=r"chip 2: .* at seq_len 128 .* got nan"):
        simulator.run(requests)


def test_shortest_expected_delay_accepts_a_zero_price():
    fleet = ChipFleet(MispricedModel(0.0), num_chips=3)
    requests = PoissonArrivals(100.0, seq_len=64, seed=0).generate(50)
    report = ServingSimulator(fleet, router=Router("shortest_expected_delay")).run(requests)
    assert report.num_requests == 50


class CountingModel(MispricedModel):
    """A :class:`MispricedModel` that counts the prices read from it."""

    calls = 0

    def expected_latency_s(self, batch_size: int, seq_len: int) -> float:
        self.calls += 1
        return super().expected_latency_s(batch_size, seq_len)


def test_shortest_expected_delay_prices_each_seq_len_once():
    # the prices are read and checked when a length's cost row is built,
    # not again for every routed request
    model = CountingModel(1e-3)
    fleet = ChipFleet(service_models=(model,) * 3, num_chips=3)
    route = front_end(Router("shortest_expected_delay"), fleet, 4, [[], [], []], [0, 0, 0])
    requests = PoissonArrivals(100.0, seq_len=(64, 128), seed=0).generate(40)
    assert {request.seq_len for request in requests} == {64, 128}
    for request in requests:
        assert route(request, range(3)) in range(3)
    assert model.calls == 2 * 3


def test_infinite_speedup_rejected():
    with pytest.raises(ValueError, match="chip speedup must be finite, got inf"):
        ChipFleet(FixedServiceModel(1e-3), num_chips=2, speedups=(1.0, math.inf))


@pytest.mark.parametrize("speedup", [0.0, math.nan])
def test_zero_or_nan_speedup_rejected(speedup):
    # a zero speedup would divide every service time by zero
    with pytest.raises(ValueError, match="chip speedup"):
        ChipFleet(FixedServiceModel(1e-3), num_chips=2, speedups=(1.0, speedup))
