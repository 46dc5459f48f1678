"""Non-finite or negative service times and speedups fail loudly.

A service model returning ``inf`` or NaN, or an infinite chip speedup,
used to run to completion and report a NaN p50, zero throughput or zero
busy time.  The loop now rejects a batch whose priced service time is not
finite and non-negative, naming the chip, batch size, ``seq_len`` and
value, and a fleet or server pool rejects infinite speedups.
"""

from __future__ import annotations

import math

import pytest

from repro.core.events import ServerPool
from repro.serving import (
    ChipFleet,
    FixedServiceModel,
    PoissonArrivals,
    Router,
    ServiceModel,
    ServingSimulator,
)


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
    fleet = ChipFleet(FixedServiceModel(math.inf), num_chips=2)
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


def test_infinite_speedup_rejected():
    with pytest.raises(ValueError, match="chip speedup must be finite, got inf"):
        ChipFleet(FixedServiceModel(1e-3), num_chips=2, speedups=(1.0, math.inf))
    with pytest.raises(ValueError, match="chips server speedup must be finite, got inf"):
        ServerPool("chips", 2, speedups=(math.inf, 1.0))
