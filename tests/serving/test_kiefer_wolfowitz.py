"""The global FIFO queue against an exact oracle: the Kiefer–Wolfowitz recursion.

An unbatched FIFO fleet of ``c`` identical chips is fully described by
the Kiefer–Wolfowitz recursion: each arrival, in order, goes to the
lowest-indexed idle chip, or else to the chip that frees first, and
completes one service time after that chip starts it.  The reference
below is that recursion with no event heap; the simulator must match it
bit for bit, per request, in both completion time and chip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    NO_BATCHING,
    ChipFleet,
    FixedServiceModel,
    PoissonArrivals,
    ServingSimulator,
)


def kiefer_wolfowitz(
    arrivals: list[float], service_s: float, num_chips: int
) -> tuple[list[float], list[int]]:
    """Per-request completion time and chip of an unbatched FIFO fleet."""
    free_at = [0.0] * num_chips
    completions: list[float] = []
    chips: list[int] = []
    for arrival in arrivals:
        idle = [chip for chip in range(num_chips) if free_at[chip] <= arrival]
        if idle:
            chip = idle[0]
        else:
            chip = min(range(num_chips), key=lambda c: (free_at[c], c))
        free_at[chip] = max(arrival, free_at[chip]) + service_s
        completions.append(free_at[chip])
        chips.append(chip)
    return completions, chips


@pytest.mark.parametrize("num_chips, rate_rps", [(1, 700.0), (3, 2500.0)])
def test_global_fifo_matches_kiefer_wolfowitz(num_chips, rate_rps):
    requests = PoissonArrivals(rate_rps, seq_len=128, seed=11).generate(20_000)
    fleet = ChipFleet(FixedServiceModel(1e-3), num_chips=num_chips)
    report = ServingSimulator(fleet, NO_BATCHING).run(requests)

    completions, chips = kiefer_wolfowitz(
        [r.arrival_s for r in requests], fleet.batch_latency_s(0, 1, 128), num_chips
    )
    by_index = np.argsort(report.requests.index)
    assert report.requests.completion_s[by_index].tolist() == completions
    assert report.requests.chip[by_index].tolist() == chips
