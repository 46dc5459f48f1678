"""Text reports for every experiment — the programmatic face of EXPERIMENTS.md.

Each ``report_*`` function regenerates one of the paper's tables or figures
— plus the beyond-the-paper serving reports (``e10`` healthy serving,
``e11`` fault-injected serving, ``e12`` SLO control plane, ``e13``
tiered-fidelity serving, ``e14`` topology-aware routing) — and returns it
as a formatted string;
:func:`run_experiment` dispatches by experiment id (``e1`` … ``e14``) and
:func:`run_all` concatenates everything.
The command-line entry point lives in :mod:`repro.experiments.__main__`:

.. code-block:: bash

    python -m repro.experiments          # all experiments
    python -m repro.experiments e4 e6    # selected experiments
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.ablation import AblationSuite
from repro.analysis.accuracy import AccuracyAnalyzer
from repro.analysis.bitwidth import BitwidthAnalyzer
from repro.analysis.breakdown import LatencyBreakdownAnalyzer
from repro.analysis.efficiency import EfficiencyComparison
from repro.baselines.cmos_softmax import CMOSSoftmaxUnit
from repro.baselines.softermax import SoftermaxUnit
from repro.core.cam_sub import CamSubCrossbar
from repro.core.config import SoftmaxEngineConfig
from repro.core.exponent import ExponentialUnit
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.bert import BertWorkload
from repro.utils.fixed_point import CNEWS_FORMAT
from repro.workloads import CNEWS_PROFILE, DATASET_PROFILES, AttentionScoreGenerator

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]


def _header(title: str) -> str:
    rule = "=" * len(title)
    return f"{rule}\n{title}\n{rule}"


def report_e1_latency_breakdown() -> str:
    """E1 — softmax share of BERT-base GPU latency vs sequence length."""
    analyzer = LatencyBreakdownAnalyzer()
    lines = [_header("E1  Softmax share of BERT-base GPU latency (paper: 59.20% at L=512)")]
    lines.append(analyzer.format_table())
    lines.append(f"crossover length: {analyzer.crossover_length()}")
    return "\n".join(lines)


def report_e2_cam_sub() -> str:
    """E2 — Fig. 1 CAM/SUB crossbar behaviour and costs."""
    cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    scores = AttentionScoreGenerator(CNEWS_PROFILE, seed=0).rows(1, 128)
    result = cam_sub.process_batch(scores)
    lines = [_header("E2  CAM/SUB crossbar (Fig. 1)")]
    lines.append(f"inputs                  : 128 scores in [{scores.min():.2f}, {scores.max():.2f}]")
    lines.append(f"x_max found             : {result.max_values[0]:+.2f} at CAM row {result.max_rows[0]}")
    lines.append(f"differences             : all >= 0, max {result.differences.max():.2f}")
    lines.append(f"row latency / energy    : {cam_sub.row_latency_s(128) * 1e6:.2f} us / "
                 f"{cam_sub.row_energy_j(128) * 1e9:.2f} nJ")
    lines.append(f"area                    : {cam_sub.area_um2():.0f} um^2")
    return "\n".join(lines)


def report_e3_exponential() -> str:
    """E3 — Fig. 2 exponential unit LUT contents and costs."""
    config = SoftmaxEngineConfig(fmt=CNEWS_FORMAT)
    unit = ExponentialUnit(config)
    values = unit.lut_values
    step = int(round(1.0 / config.fmt.resolution))
    lines = [_header("E3  Exponential unit (Fig. 2), LUT rule round(e^x * 2^m) / 2^m, m=4")]
    lines.append(f"LUT[x=0]  = {values[0]:.4f}   (paper: 1)")
    lines.append(f"LUT[x=-1] = {values[step]:.4f}   (paper: 0.3679 -> 0.375 at m=4)")
    lines.append(f"LUT[x=-2] = {values[2 * step]:.4f}   (paper: 0.1353 -> 0.125 at m=4)")
    lines.append(f"non-zero LUT entries    : {int((values > 0).sum())} of {values.size}")
    lines.append(f"active counters         : {unit.counters.num_counters}")
    lines.append(f"row latency / energy    : {unit.row_latency_s(128) * 1e6:.2f} us / "
                 f"{unit.row_energy_j(128) * 1e9:.2f} nJ")
    lines.append(f"area                    : {unit.area_um2():.0f} um^2")
    return "\n".join(lines)


def report_e4_bitwidth() -> str:
    """E4 — Section II per-dataset bit-width table, verified on the engine.

    The derived format is cross-checked by running the *cycle-accurate*
    engine (batched backend) at full scale — 512 rows of the dataset's
    typical length — against the exact softmax.
    """
    analyzer = BitwidthAnalyzer()
    results = analyzer.analyze_all(DATASET_PROFILES)
    paper = {"CNEWS": "8 (6i+2f)", "MRPC": "9 (6i+3f)", "CoLA": "7 (5i+2f)"}
    accuracy = AccuracyAnalyzer(num_rows=512)
    lines = [_header("E4  Required softmax bit-width per dataset (paper Section II)")]
    lines.append(
        f"{'dataset':<8} {'range':>8} {'derived':>12} {'paper':>12} {'engine KL':>12}"
    )
    for result in results:
        derived = f"{result.total_bits} ({result.integer_bits}i+{result.frac_bits}f)"
        engine = AccuracyAnalyzer.engine_for_format(result.fmt)
        fidelity = accuracy.fidelity(engine, DATASET_PROFILES[result.dataset])
        lines.append(
            f"{result.dataset:<8} {result.observed_range:>8.2f} {derived:>12} "
            f"{paper[result.dataset]:>12} {fidelity.mean_kl:>12.2e}"
        )
    return "\n".join(lines)


def report_e5_table1() -> str:
    """E5 — Table I area/power comparison of the softmax designs."""
    baseline = CMOSSoftmaxUnit()
    softermax = SoftermaxUnit()
    star = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    lines = [_header("E5  Table I: softmax engine area & power (BERT-base, CNEWS, L=128)")]
    lines.append(f"{'design':<22} {'area (um^2)':>12} {'power (mW)':>12} {'area x':>8} {'power x':>8}")
    rows = [
        ("CMOS baseline", baseline.area_um2, baseline.power_w),
        ("Softermax", softermax.area_um2, softermax.power_w),
        ("STAR (8-bit, ours)", star.area_um2(), star.power_w(128)),
    ]
    for name, area, power in rows:
        lines.append(
            f"{name:<22} {area:>12.0f} {power * 1e3:>12.3f} "
            f"{area / baseline.area_um2:>8.3f} {power / baseline.power_w:>8.3f}"
        )
    lines.append("paper ratios: Softermax 0.33x / 0.12x, STAR 0.06x / 0.05x")
    return "\n".join(lines)


def report_e6_fig3() -> str:
    """E6 — Fig. 3 computing-efficiency comparison."""
    results = EfficiencyComparison(workload=BertWorkload(seq_len=128)).run()
    lines = [_header("E6  Fig. 3: computing efficiency (BERT-base, L=128)")]
    lines.append(results.table.format_table(reference="Titan RTX"))
    lines.append("")
    lines.append(f"STAR                    : {results.star_efficiency:.2f} GOPs/s/W (paper 612.66)")
    lines.append(f"gain over GPU           : {results.gain_over_gpu:.2f}x (paper 30.63x)")
    lines.append(f"gain over PipeLayer     : {results.gain_over_pipelayer:.2f}x (paper 4.32x)")
    lines.append(f"gain over ReTransformer : {results.gain_over_retransformer:.2f}x (paper 1.31x)")
    return "\n".join(lines)


def report_e7_pipeline_ablation() -> str:
    """E7 — vector- vs operand-grained pipeline ablation.

    Every point is both predicted by the closed-form pipeline model and
    *executed* by the pipeline scheduler with discrete head-streams and
    softmax engines; the deviation column cross-validates the two.
    """
    suite = AblationSuite()
    rows = suite.pipeline_ablation((128, 256, 512))
    lines = [_header("E7  Ablation: pipeline granularity (attention chain only)")]
    lines.append(
        f"{'seq_len':>8} {'vector (us)':>12} {'operand (us)':>13} {'speedup':>9} "
        f"{'exec.vector':>12} {'exec.speedup':>13} {'dev':>7}"
    )
    for row in rows:
        lines.append(
            f"{row.seq_len:>8d} {row.vector_latency_s * 1e6:>12.2f} "
            f"{row.operand_latency_s * 1e6:>13.2f} {row.speedup:>9.2f} "
            f"{row.executed_vector_latency_s * 1e6:>12.2f} "
            f"{row.executed_speedup:>13.2f} {row.speedup_deviation * 100:>6.2f}%"
        )
    executor = suite.accelerator().attention_executor(BertWorkload(seq_len=128))
    lines.append(
        f"executed = event-driven schedule over {executor.streams} head-streams "
        f"+ {executor.softmax_engines} softmax engines"
    )
    return "\n".join(lines)


def report_e8_precision_ablation() -> str:
    """E8 — softmax precision sweep ablation (engine at full scale)."""
    rows = AblationSuite().precision_ablation(CNEWS_PROFILE, num_rows=256, seq_len=256)
    lines = [_header("E8  Ablation: softmax engine precision sweep (CNEWS profile)")]
    lines.append(f"{'format':>10} {'area (um^2)':>12} {'power (mW)':>12} {'mean KL':>12}")
    for row in rows:
        label = f"{row.integer_bits}i+{row.frac_bits}f"
        lines.append(
            f"{label:>10} {row.area_um2:>12.0f} {row.power_w * 1e3:>12.3f} {row.mean_kl:>12.5f}"
        )
    return "\n".join(lines)


def report_e9_noise_ablation() -> str:
    """E9 — RRAM non-ideality ablation (engine at full scale)."""
    rows = AblationSuite().noise_ablation(CNEWS_PROFILE, CNEWS_FORMAT, num_rows=128, seq_len=256)
    lines = [_header("E9  Ablation: RRAM non-idealities vs softmax fidelity (8-bit engine)")]
    lines.append(f"{'corner':<12} {'prog sigma':>10} {'read sigma':>10} {'stuck':>7} {'mean KL':>10} {'max |err|':>10}")
    for row in rows:
        lines.append(
            f"{row.label:<12} {row.programming_sigma:>10.3f} {row.read_noise_sigma:>10.3f} "
            f"{row.stuck_fraction:>7.3f} {row.mean_kl:>10.5f} {row.max_abs_error:>10.5f}"
        )
    return "\n".join(lines)


def report_e10_serving() -> str:
    """E10 — request-level serving: batch amortisation, load sweep, energy.

    Simulates open-loop Poisson traffic against a 4-chip STAR fleet with
    dynamic batching under the batch-aware cost model (operand programming
    amortised per batch, double-buffered row streaming, inter-request tile
    parallelism), sweeps the batcher cap against the linear
    ``batch x single`` baseline, and cross-validates the single-chip
    no-batching limit against the M/D/1 Pollaczek–Khinchine mean wait.
    """
    from repro.analysis.serving import ServingAnalyzer

    analyzer = ServingAnalyzer()
    lines = [_header("E10  Request-level serving (BERT-base, L=128, 4-chip STAR fleet)")]
    lines.append(
        f"chip service time       : {analyzer.request_service_s() * 1e3:.3f} ms/request, "
        f"fleet capacity {analyzer.fleet_capacity_rps():.0f} req/s at batch 1"
    )
    lines.append("")
    lines.append("batch amortisation (streamed weights: programming once per batch,")
    lines.append("double-buffered streaming beyond the first request):")
    lines.append(analyzer.format_amortisation_table())
    lines.append("")
    lines.append("batcher-cap sweep at 80% of amortised batch-32 capacity,")
    lines.append("batch-aware pricing vs the linear batch x single baseline:")
    lines.append(analyzer.format_cap_table())
    lines.append("")
    lines.append(analyzer.format_table())
    lines.append(
        "batching note: a dispatched batch programs each stationary operand "
        "once and streams every request's rows through it, so larger "
        "DynamicBatcher caps now raise throughput at bounded p99; energy "
        "per query includes idle/leakage power over the makespan."
    )
    return "\n".join(lines)


def report_e11_fault_serving() -> str:
    """E11 — fault-injected serving: graceful degradation under chip failures.

    Injects per-chip MTBF/MTTR failure/repair processes into the e10 fleet
    (repair = detection/drain plus the chip's full-model operand
    reprogramming cost, the physically priced maintenance event) and sweeps
    the steady-state capacity loss.  Every point runs twice on identical
    traffic and failure seeds: with deadline shedding / bounded queue /
    degraded batch cap, and with an unprotected queue — goodput and
    completion-conditional p99 of both arms make the graceful-degradation
    curve.
    """
    from repro.analysis.serving import FaultServingAnalyzer

    analyzer = FaultServingAnalyzer()
    lines = [
        _header(
            "E11  Fault-injected serving (BERT-base, L=128, 4-chip STAR fleet, "
            "deadline 250 ms)"
        )
    ]
    lines.append(analyzer.format_table())
    lines.append("")
    lines.append(
        "reading: 'shed' columns run deadline shedding + bounded queue + "
        "degraded batch cap; 'queue' columns run retries on an unprotected "
        "queue.  Shedding holds goodput near the fault-free baseline at "
        "bounded p99 while the unprotected queue's backlog and tail blow "
        "up; past the shedding design point (loss >> deadline headroom) "
        "degradation stops being graceful, which is the capacity-planning "
        "envelope this experiment maps."
    )
    return "\n".join(lines)


def report_e12_slo_serving() -> str:
    """E12 — the SLO-aware serving control plane, cross-validated.

    Three sections on a sleep-capable STAR fleet: an EDF-vs-FIFO load
    sweep on bursty on/off-MMPP traffic with two SLO classes (identical
    tagged streams, only the drain order differs); a closed-loop run of
    think-time clients pinned against the machine-repair M/M/1//N closed
    form; and a compressed diurnal day served with and without the
    hysteresis autoscaler, whose energy ledger separates what parking
    chips into non-volatile deep sleep saves from what traffic pins.
    """
    from repro.analysis.serving import SLOServingAnalyzer

    analyzer = SLOServingAnalyzer()
    lines = [
        _header(
            "E12  SLO-aware serving control plane (BERT-base, L=128, "
            "2-chip STAR fleet)"
        )
    ]
    lines.append(analyzer.format_table())
    lines.append("")
    lines.append(
        "reading: both sweep arms serve the same tagged burst trace, so "
        "the attainment gap is pure dispatch order — FIFO queues "
        "interactive requests through each burst's backlog while EDF "
        "lifts them past the loose-deadline batch class.  The autoscale "
        "line prices deep sleep with the RRAM non-volatility story: "
        "weights persist, so waking is a supply ramp plus re-bias, not a "
        "reprogram."
    )
    return "\n".join(lines)


def report_e13_tiered_serving() -> str:
    """E13 — tiered-fidelity serving: executed-schedule tails at fleet speed.

    Serves one seeded Poisson stream four times on the same 2-chip fleet:
    analytic-only pricing, then 5% / 25% / 100% of dispatches routed
    through cached executed-schedule templates
    (:mod:`repro.core.schedule_cache`) resampled with per-layer lognormal
    jitter.  The analytic arm cannot see pipeline-level variation at all;
    the sampled arms let the executed tail propagate into request-level
    p95/p99 at near-analytic cost (each template is one cold executed run,
    then a vectorized resample per dispatch).
    """
    from repro.analysis.serving import TieredServingAnalyzer

    analyzer = TieredServingAnalyzer()
    lines = [
        _header(
            "E13  Tiered-fidelity serving (BERT-base, L=256, 2-chip STAR "
            "fleet, jitter sigma=0.3)"
        )
    ]
    lines.append(analyzer.format_table())
    lines.append("")
    lines.append(
        "reading: all rows serve the identical request stream; only the "
        "Bernoulli fraction of dispatches priced on the executed tier "
        "grows.  'x base' is each run's p99 over the analytic-only row's "
        "— the executed schedules' jitter is bounded below by the "
        "jitter-free critical path, so the tail can only lengthen, and "
        "it does so monotonically with the sampled fraction.  'exec p99' "
        "isolates the executed-tier requests (small-sample noisy at 5%)."
    )
    return "\n".join(lines)


def report_e14_routing_serving() -> str:
    """E14 — topology-aware routing: cost-oracle queues on a mixed fleet.

    Serves one seeded, SLO-tagged Poisson stream (85% short interactive
    sequences, 15% long ones) five times on the same mixed fleet — one
    96-tile chip plus three 16-tile chips — once through the fleet-wide
    global queue and once per routing arm of
    :mod:`repro.serving.routing`.  The offered load sits beyond the
    length-blind policies' capacity but within the cost oracle's:
    shortest-expected-delay routing prices every candidate chip with the
    accelerator's batch-aware pricing, so long sequences go to the
    big-tile chip instead of padding mixed batches and parking on small
    chips, and work stealing keeps the fleet work-conserving on top.
    """
    from repro.analysis.serving import RoutingServingAnalyzer

    analyzer = RoutingServingAnalyzer()
    lines = [
        _header(
            "E14  Topology-aware routing (skewed L=64/512 trace, "
            "96+16x3-tile STAR fleet)"
        )
    ]
    lines.append(analyzer.format_table())
    lines.append("")
    lines.append(
        "reading: every row serves the identical tagged request stream; "
        "only the routing arm changes.  'x good' is goodput "
        "(deadline-meeting completions per second) over the global-FIFO "
        "baseline's.  The global queue and the length-blind routers pad "
        "mixed batches to 512 and park long sequences on 16-tile chips, "
        "so they saturate; the SED cost oracle segregates by length and "
        "sustains the load, and stealing adds work conservation on top "
        "(compare the two SED rows)."
    )
    return "\n".join(lines)


EXPERIMENTS: dict[str, Callable[[], str]] = {
    "e1": report_e1_latency_breakdown,
    "e2": report_e2_cam_sub,
    "e3": report_e3_exponential,
    "e4": report_e4_bitwidth,
    "e5": report_e5_table1,
    "e6": report_e6_fig3,
    "e7": report_e7_pipeline_ablation,
    "e8": report_e8_precision_ablation,
    "e9": report_e9_noise_ablation,
    "e10": report_e10_serving,
    "e11": report_e11_fault_serving,
    "e12": report_e12_slo_serving,
    "e13": report_e13_tiered_serving,
    "e14": report_e14_routing_serving,
}


def run_experiment(experiment_id: str) -> str:
    """Regenerate one experiment's table/figure as text (id: ``e1`` … ``e14``)."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]()


def run_all(experiment_ids: list[str] | None = None) -> str:
    """Regenerate several experiments (all of them by default)."""
    ids = experiment_ids if experiment_ids else sorted(EXPERIMENTS)
    return "\n\n".join(run_experiment(experiment_id) for experiment_id in ids)
