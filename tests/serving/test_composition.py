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

Random traffic reaches some compositions only by chance, so three
deterministic scenarios force them with scripted failure times: a chip
failing while parked and while waking, a peer stealing from a failed
chip's queue (and that queue waiting for the repair without stealing),
and a retry re-entering while the only unparked chip is still waking.
Each first asserts that its case occurred.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.serving import (
    NO_BATCHING,
    AdmissionController,
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DynamicBatcher,
    FaultInjector,
    FaultSession,
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
from repro.serving.arrivals import requests_from_arrays

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


def check_rules(report: ServingReport, initial_chips: int | None) -> None:
    """Every offered request resolves exactly once, and no batch runs while
    its chip is failed, parked or waking."""
    resolved = (
        report.requests.index.tolist()
        + [drop.index for drop in report.shed]
        + [drop.index for drop in report.abandoned]
    )
    assert sorted(resolved) == list(range(report.num_offered))
    batches = report.batches
    for chip, start, end in blocked_windows(report, initial_chips):
        on_chip = batches.chip == chip
        overlapping = (batches.dispatch_s < end) & (batches.completion_s > start)
        assert not (on_chip & overlapping).any(), (chip, start, end)


def blocked_windows(
    report: ServingReport, initial_chips: int | None
) -> list[tuple[int, float, float]]:
    """``(chip, start, end)`` spans a chip may not serve: failed, or parked
    from the sleep decision until its wake completes.  Chips from
    ``initial_chips`` on start parked (``None``: no autoscaler)."""
    windows = [(f.chip, f.fail_s, f.repaired_s) for f in report.failures]
    first_parked = report.num_chips if initial_chips is None else initial_chips
    parked = {chip: 0.0 for chip in range(first_parked, report.num_chips)}
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

    assert report.num_offered == NUM_REQUESTS
    check_rules(report, INITIAL_CHIPS if autoscaled else None)
    assert report.num_requests > 0
    assert report.faults_enabled == faults
    assert report.autoscale_enabled == autoscaled
    assert report.routing_enabled == routed
    if faults:
        assert report.num_failures > 0
    if autoscaled:
        assert report.num_wakes > 0

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


# --------------------------------------------------------------------- #
# deterministic compositions
# --------------------------------------------------------------------- #
NEVER_S = 1e9  # a chip whose script is spent fails no more


class ScriptedFaultSession(FaultSession):
    """Times to failure read from a script instead of exponential draws."""

    def __init__(self, injector: "ScriptedFaults", num_chips: int) -> None:
        super().__init__(injector, num_chips)
        self.pending = [list(times) for times in injector.script]

    def time_to_failure_s(self, chip: int) -> float:
        return self.pending[chip].pop(0) if self.pending[chip] else NEVER_S


@dataclass(frozen=True)
class ScriptedFaults(FaultInjector):
    """Chip ``c`` fails after each time of ``script[c]`` in turn, counted
    from the start and then from each repair, and never after."""

    script: tuple[tuple[float, ...], ...] = ()

    def session(self, num_chips: int) -> ScriptedFaultSession:
        return ScriptedFaultSession(self, num_chips)


def burst(count: int, spacing_s: float = 0.0):
    """``count`` requests ``spacing_s`` apart, the first at t = 0."""
    return requests_from_arrays(np.arange(count) * spacing_s, np.full(count, 64))


def chip_state(report: ServingReport, chip: int, time_s: float, initial_chips: int) -> str:
    """``"parked"``, ``"waking"`` or ``"awake"`` at ``time_s``, from the scale events."""
    state = "awake" if chip < initial_chips else "parked"
    for event in report.scale_events:
        if event.chip == chip and event.time_s <= time_s:
            if event.action == "sleep":
                state = "parked"
            else:
                state = "waking" if time_s < event.ready_s else "awake"
    return state


def test_chip_failing_while_parked_and_while_waking():
    # chip 1 starts parked and fails at 1 ms; repaired at 4 ms, it stays
    # parked.  Chip 0 is saturated, so the 5 ms tick wakes chip 1 (ready at
    # 10 ms); it fails again at 6 ms, mid-wake, and is repaired at 9 ms.
    model = FixedServiceModel(1e-3, wake_latency_s=5e-3)
    simulator = ServingSimulator(
        ChipFleet(model, num_chips=2),
        NO_BATCHING,
        faults=ScriptedFaults(mtbf_s=1.0, repair_s=3e-3, script=((), (1e-3, 2e-3))),
        autoscaler=Autoscaler(
            interval_s=5e-3, scale_up_above=0.8, scale_down_below=0.4, initial_chips=1
        ),
    )
    report = simulator.run(burst(30))

    parked_failure, waking_failure = report.failures[:2]
    assert parked_failure.chip == waking_failure.chip == 1
    assert chip_state(report, 1, parked_failure.fail_s, 1) == "parked"
    assert chip_state(report, 1, parked_failure.repaired_s, 1) == "parked"
    assert chip_state(report, 1, waking_failure.fail_s, 1) == "waking"
    wake = next(e for e in report.scale_events if e.chip == 1 and e.action == "wake")
    assert parked_failure.repaired_s <= wake.time_s < waking_failure.fail_s < wake.ready_s

    check_rules(report, initial_chips=1)
    # chip 1 serves, but only once it is both awake and repaired
    on_chip_1 = report.batches.dispatch_s[report.batches.chip == 1]
    assert on_chip_1.size > 0
    assert on_chip_1.min() >= max(wake.ready_s, waking_failure.repaired_s)


@pytest.mark.parametrize("stealing", [True, False])
def test_failed_chips_queue_is_stolen_or_waits_for_the_repair(stealing):
    # SED spreads a staggered stream over both chips; chip 1 fails at
    # 1.5 ms with requests in its queue and is down for 10 ms
    simulator = ServingSimulator(
        ChipFleet(FixedServiceModel(1e-3), num_chips=2),
        NO_BATCHING,
        faults=ScriptedFaults(mtbf_s=1.0, repair_s=10e-3, script=((), (1.5e-3,))),
        retry=RetryPolicy(jitter=0.0),
        router=Router(
            "shortest_expected_delay",
            NetworkModel(link_latency_s=2e-5, steal_latency_s=1e-5),
            stealing=stealing,
        ),
    )
    report = simulator.run(burst(20, spacing_s=1e-4))

    (failure,) = report.failures
    assert failure.chip == 1
    steals = report.routing.steals
    retried = {retry.index for retry in report.retries}
    if stealing:
        # a peer serves the failed chip's queue during the outage
        assert any(
            steal.queue == 1 and failure.fail_s <= steal.decided_s < failure.repaired_s
            for steal in steals
        )
    else:
        assert len(steals) == 0
        # requests queued at chip 1 when it failed wait for its repair
        waited = [
            r
            for r in report.requests
            if r.chip == 1
            and r.arrival_s < failure.fail_s <= r.dispatch_s
            and r.index not in retried
        ]
        assert waited
        assert all(r.dispatch_s >= failure.repaired_s for r in waited)
    check_rules(report, initial_chips=None)


def test_retry_reenters_while_the_only_unparked_chip_is_waking():
    # chip 0 serves six requests from t = 0 while chip 1 is parked.  The
    # 5 ms tick wakes chip 1 (ready at 15 ms); chip 0 fails at 5.5 ms and
    # kills its batch, whose request retries 6 ms later.  The 10 ms tick
    # parks idle, failed chip 0, so at 11.5 ms the retry can only be routed
    # to waking chip 1, where it waits for the wake.
    model = FixedServiceModel(1e-3, wake_latency_s=10e-3)
    simulator = ServingSimulator(
        ChipFleet(model, num_chips=2),
        NO_BATCHING,
        faults=ScriptedFaults(mtbf_s=1.0, repair_s=20e-3, script=((5.5e-3,), ())),
        retry=RetryPolicy(backoff_base_s=6e-3, jitter=0.0),
        autoscaler=Autoscaler(
            interval_s=5e-3, scale_up_above=0.8, scale_down_below=0.4, initial_chips=1
        ),
        # no stealing: the retry is served from the queue it was routed to
        router=Router(
            "shortest_expected_delay", NetworkModel(link_latency_s=2e-5), stealing=False
        ),
    )
    report = simulator.run(burst(6))

    (retry,) = report.retries
    states = [chip_state(report, chip, retry.reenqueue_s, 1) for chip in (0, 1)]
    assert states == ["parked", "waking"]
    wake = next(e for e in report.scale_events if e.chip == 1 and e.action == "wake")

    check_rules(report, initial_chips=1)
    (served,) = [r for r in report.requests if r.index == retry.index]
    assert served.chip == 1 and served.dispatch_s >= wake.ready_s
