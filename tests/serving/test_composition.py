"""Every combination of the serving loop's settings runs.

The simulator has one event loop, and its queue topology, drain order,
arrival source, fault hooks and autoscaler are independent settings of
it.  This suite runs all 32 combinations of

    {global queue, SED router with stealing} x {FIFO, EDF}
    x {open loop, closed loop} x {no faults, faults with retry and admission}
    x {no autoscaler, autoscaler}

on small fixed-service fleets and checks what every run must satisfy: it
terminates, every offered request is completed, shed or abandoned exactly
once, no batch overlaps a failure window or a park/wake window of its
chip, and the same seed gives an identical report.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.serving import (
    AdmissionController,
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    NetworkModel,
    PoissonArrivals,
    RetryPolicy,
    Router,
    ServingReport,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
)

NUM_REQUESTS = 400
NUM_CHIPS = 3
INITIAL_CHIPS = 1
SLO = SLOPolicy((SLOClass("interactive", 5e-3), SLOClass("batch", 50e-3)))

SETTINGS = ("routed", "edf", "closed", "faults", "autoscaled")
COMBINATIONS = list(itertools.product((False, True), repeat=len(SETTINGS)))


def combination_id(combination: tuple[bool, ...]) -> str:
    on = [name for name, flag in zip(SETTINGS, combination) if flag]
    return "+".join(on) or "plain"


def simulator(routed: bool, edf: bool, faults: bool, autoscaled: bool) -> ServingSimulator:
    model = FixedServiceModel(
        1e-3,
        request_energy_j=1e-6,
        idle_power_w=0.1,
        sleep_power_w=0.01,
        sleep_entry_latency_s=1e-4,
        wake_latency_s=2e-3,
        wake_energy_j=1e-5,
    )
    fleet = ChipFleet(model, num_chips=NUM_CHIPS, speedups=(2.0, 1.0, 1.0))
    batcher = DynamicBatcher(
        max_batch_size=4, max_wait_s=1e-3, order="edf" if edf else "fifo"
    )
    hooks: dict = {}
    if faults:
        hooks.update(
            faults=FaultInjector(mtbf_s=0.02, detection_s=2e-3, repair_s=3e-3, seed=5),
            retry=RetryPolicy(max_attempts=3, deadline_s=0.05),
            admission=AdmissionController(max_queue_depth=40, degraded_max_batch=2),
        )
    if autoscaled:
        hooks["autoscaler"] = Autoscaler(
            interval_s=5e-3,
            scale_up_above=0.8,
            scale_down_below=0.4,
            initial_chips=INITIAL_CHIPS,
        )
    if routed:
        hooks["router"] = Router(
            "shortest_expected_delay",
            NetworkModel(link_latency_s=2e-5, steal_latency_s=1e-5),
            stealing=True,
        )
    return ServingSimulator(fleet, batcher, **hooks)


def serve(simulator: ServingSimulator, closed: bool) -> ServingReport:
    if closed:
        clients = ClosedLoopClients(
            num_clients=12,
            think_s=4e-3,
            seq_len=(64, 128),
            slo_class=[0] * 6 + [1] * 6,
            deadline_s=[5e-3] * 6 + [50e-3] * 6,
            seed=3,
        )
        return simulator.run_closed_loop(clients, NUM_REQUESTS)
    requests = SLO.tag_random(
        PoissonArrivals(2500.0, seq_len=(64, 128), seed=3).generate(NUM_REQUESTS),
        weights=(0.5, 0.5),
        seed=4,
    )
    return simulator.run(requests)


def blocked_windows(report: ServingReport, autoscaled: bool) -> list[tuple[int, float, float]]:
    """``(chip, start, end)`` spans a chip may not serve: failed, or parked
    from the sleep decision until its wake completes."""
    windows = [(f.chip, f.fail_s, f.repaired_s) for f in report.failures]
    parked = {chip: 0.0 for chip in range(INITIAL_CHIPS, NUM_CHIPS)} if autoscaled else {}
    for event in report.scale_events:
        if event.action == "sleep":
            parked[event.chip] = event.time_s
        else:
            windows.append((event.chip, parked.pop(event.chip), event.ready_s))
    windows.extend((chip, start, math.inf) for chip, start in parked.items())
    return windows


@pytest.mark.parametrize(SETTINGS, COMBINATIONS, ids=map(combination_id, COMBINATIONS))
def test_combination_runs(routed, edf, closed, faults, autoscaled):
    report = serve(simulator(routed, edf, faults, autoscaled), closed)

    # every offered request resolves exactly once
    resolved = (
        report.requests.index.tolist()
        + [drop.index for drop in report.shed]
        + [drop.index for drop in report.abandoned]
    )
    assert sorted(resolved) == list(range(NUM_REQUESTS))
    assert report.num_offered == NUM_REQUESTS
    assert report.num_requests > 0
    assert report.faults_enabled == faults
    assert report.autoscale_enabled == autoscaled
    assert report.routing_enabled == routed
    if faults:
        assert report.num_failures > 0
    if autoscaled:
        assert report.num_wakes > 0

    # no batch runs while its chip is failed, parked or waking
    batches = report.batches
    for chip, start, end in blocked_windows(report, autoscaled):
        on_chip = batches.chip == chip
        overlapping = (batches.dispatch_s < end) & (batches.completion_s > start)
        assert not (on_chip & overlapping).any(), (chip, start, end)

    # the same seed gives the same report
    again = serve(simulator(routed, edf, faults, autoscaled), closed)
    assert again.requests == report.requests
    assert again.batches == report.batches
    assert (again.shed, again.abandoned, again.retries, again.failures) == (
        report.shed,
        report.abandoned,
        report.retries,
        report.failures,
    )
    assert again.scale_events == report.scale_events
    assert again.routing == report.routing
    assert again.format_table() == report.format_table()
