"""The SLO-aware serving control plane: deadlines, closed loops, autoscaling.

Run with:  python examples/slo_autoscaling.py

Four things are demonstrated:

1. SLO tagging and EDF dispatch — one bursty (on/off MMPP) request
   stream is tagged with two service classes and served twice on the
   same fleet, FIFO vs earliest-deadline-first; only the drain order
   differs, and the per-class attainment shows what that order buys;
2. closed-loop clients — a think-time client population on a single
   exponential-service chip, cross-checked against the machine-repair
   M/M/1//N closed form;
3. diurnal autoscaling — a stylized day curve served with and without
   the hysteresis autoscaler, which parks idle chips into non-volatile
   deep sleep (weights persist in RRAM; waking is a supply ramp plus
   peripheral re-bias, not a reprogram) and the energy ledger shows the
   saving;
4. the e12 report — the full control-plane experiment table.
"""

from __future__ import annotations

from repro.analysis.serving import SLOServingAnalyzer, sleep_capable_star_model
from repro.serving import (
    Autoscaler,
    ChipFleet,
    ClosedLoopClients,
    DayCurveArrivals,
    DynamicBatcher,
    ExponentialServiceModel,
    MachineRepairQueue,
    MMPPArrivals,
    NO_BATCHING,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
)


def main() -> None:
    star = sleep_capable_star_model()

    # 1. two SLO classes on one bursty stream, FIFO vs EDF
    print("--- EDF vs FIFO on bursty two-class traffic (2 chips) ---")
    policy = SLOPolicy(
        (
            SLOClass("interactive", deadline_s=0.06),
            SLOClass("batch", deadline_s=1.0),
        )
    )
    arrivals = MMPPArrivals.on_off(
        burst_rate_rps=680.0, base_rate_rps=85.0, burst_s=0.2, duty=0.6, seed=0
    )
    requests = policy.tag_random(
        arrivals.generate(3000), weights=(0.5, 0.5), seed=1
    )
    for name, batcher in (
        ("fifo", DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)),
        ("edf", DynamicBatcher.edf(max_batch_size=8, max_wait_s=2e-3)),
    ):
        report = ServingSimulator(ChipFleet(star, num_chips=2), batcher).run(requests)
        print(
            f"{name:>5}: attainment {report.deadline_attainment():.3f} "
            f"(interactive {report.deadline_attainment(0):.3f}, "
            f"batch {report.deadline_attainment(1):.3f}), "
            f"p99 {report.p99_latency_s * 1e3:.1f} ms"
        )

    # 2. closed-loop clients vs the machine-repair closed form
    print()
    print("--- closed-loop clients vs M/M/1//N (8 clients, Z=10 ms, s=1 ms) ---")
    clients = ClosedLoopClients(num_clients=8, think_s=0.010, seed=2)
    model = ExponentialServiceModel(mean_s=0.001, seed=3)
    report = ServingSimulator(
        ChipFleet(model, num_chips=1), NO_BATCHING
    ).run_closed_loop(clients, 20000)
    theory = MachineRepairQueue(num_clients=8, think_s=0.010, service_s=0.001)
    print(
        f"throughput: simulated {report.throughput_rps:.1f} vs "
        f"theory {theory.throughput_rps:.1f} req/s"
    )
    print(
        f"response  : simulated {report.mean_latency_s * 1e3:.3f} vs "
        f"theory {theory.mean_latency_s * 1e3:.3f} ms"
    )

    # 3. diurnal autoscaling: park idle chips into non-volatile sleep
    print()
    print("--- diurnal autoscaling (4 chips, compressed day) ---")
    day = DayCurveArrivals(mean_rate_rps=500.0, period_s=12.0, seed=4)
    traffic = day.generate(6000)
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    scaler = Autoscaler(
        interval_s=0.05,
        scale_up_above=0.85,
        scale_down_below=0.55,
        scale_up_queue_depth=64,
    )
    autoscaled = ServingSimulator(
        ChipFleet(star, num_chips=4), batcher, autoscaler=scaler
    ).run(traffic)
    always_on = ServingSimulator(ChipFleet(star, num_chips=4), batcher).run(traffic)
    print(
        f"always-on : {always_on.total_energy_j:.1f} J total "
        f"({always_on.idle_energy_j:.1f} J idle), "
        f"p99 {always_on.p99_latency_s * 1e3:.2f} ms"
    )
    print(
        f"autoscaled: {autoscaled.total_energy_j:.1f} J total "
        f"({autoscaled.idle_energy_j:.1f} J idle, "
        f"{autoscaled.sleep_energy_j:.1f} J sleep, "
        f"{autoscaled.wake_energy_j:.2f} J wake), "
        f"p99 {autoscaled.p99_latency_s * 1e3:.2f} ms"
    )
    print(
        f"mean awake chips {autoscaled.mean_awake_chips:.2f} of 4, "
        f"{autoscaled.num_scale_events} scale transitions, "
        f"{autoscaled.total_sleep_s:.1f} chip-seconds asleep"
    )

    # 4. the full e12 experiment
    print()
    print("--- e12: SLO-aware serving control plane ---")
    print(SLOServingAnalyzer().format_table())


if __name__ == "__main__":
    main()
