"""SLO control-plane benchmark and the EDF-vs-FIFO attainment gates.

The serving loop's control-plane settings (closed-loop clients, EDF
heap, autoscaler ticks) must stay cheap enough for the e12 sweeps: tens of thousands of
closed-loop requests have to simulate in well under a second.  The
attainment gates pin the experiment's headline: on the e12 skew sweep's
bursty two-class traffic, EDF keeps attainment at or above 95% where
FIFO has already fallen below 80%.
"""

from __future__ import annotations

import pytest

from repro.analysis.serving import SLOServingAnalyzer
from repro.serving import (
    ChipFleet,
    ClosedLoopClients,
    ExponentialServiceModel,
    MachineRepairQueue,
    NO_BATCHING,
    ServingSimulator,
)

from conftest import record


@pytest.mark.smoke
def test_bench_closed_loop_throughput(benchmark):
    """30k closed-loop requests stay sub-second and on the M/M/1//N line."""
    num_clients, think_s, service_s = 8, 0.010, 0.001
    clients = ClosedLoopClients(num_clients=num_clients, think_s=think_s, seed=7)
    model = ExponentialServiceModel(mean_s=service_s, seed=8)
    simulator = ServingSimulator(ChipFleet(model, num_chips=1), NO_BATCHING)

    def run():
        model.reset()
        return simulator.run_closed_loop(clients, 30000)

    report = benchmark(run)

    theory = MachineRepairQueue(
        num_clients=num_clients, think_s=think_s, service_s=service_s
    )
    deviation = (
        abs(report.throughput_rps - theory.throughput_rps) / theory.throughput_rps
    )
    record(
        benchmark,
        requests_per_wall_second=round(30000 / benchmark.stats["mean"]),
        simulated_throughput_rps=round(report.throughput_rps, 1),
        machine_repair_deviation_pct=round(deviation * 100, 2),
    )
    assert report.num_requests == 30000
    assert deviation < 0.05
    assert benchmark.stats["mean"] < 1.0


@pytest.mark.smoke
def test_bench_edf_attainment_gate(benchmark):
    """EDF holds >= 95% attainment where FIFO is already below 80%."""
    analyzer = SLOServingAnalyzer()

    row = benchmark.pedantic(analyzer.row_for, args=(0.8,), rounds=1, iterations=1)

    record(
        benchmark,
        fifo_attainment=round(row.fifo_attainment, 3),
        edf_attainment=round(row.edf_attainment, 3),
        fifo_interactive=round(row.fifo_report.deadline_attainment(0), 3),
        edf_interactive=round(row.edf_report.deadline_attainment(0), 3),
    )
    # identical tagged traffic in both arms: the gap is pure dispatch order
    assert row.fifo_report.num_requests == row.edf_report.num_requests
    assert row.fifo_attainment < 0.80
    assert row.edf_attainment >= 0.95
