"""Run a BERT-style encoder with its softmax executed by STAR's RRAM engine.

Run with:  python examples/bert_attention_on_star.py

Four things are demonstrated:

1. functional equivalence — a small transformer encoder is evaluated twice,
   once with the exact softmax and once with the RRAM softmax engine plugged
   into every attention layer, and the outputs are compared;
2. full analog inference — the same encoder runs with *every* GEMM on
   simulated crossbar tiles (`AnalogBackend`) feeding the RRAM softmax
   engine, swept across device read-noise levels: the end-to-end
   accuracy-under-noise scenario the compute-backend refactor opened;
3. the executed schedule — attention rows stream through the executed
   vector-grained pipeline (`AttentionExecutor`): real score rows from
   MatMul-engine tile banks, a pool of softmax engines, per-row timings
   measured from the access-stats ledgers;
4. full-model accounting — the BERT-base workload (12 layers, hidden 768) is
   mapped onto the STAR accelerator model to obtain the end-to-end inference
   latency, power and computing efficiency that Fig. 3 reports (with the
   executed schedule cross-validating the closed-form pipeline model),
   including the softmax-vs-matmul latency picture that motivated the paper.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import StarScheduleAnalyzer
from repro.baselines import GPUModel
from repro.core import (
    AttentionExecutor,
    MatMulEngine,
    MatMulEngineConfig,
    RRAMSoftmaxEngine,
    SoftmaxEngineConfig,
    STARAccelerator,
)
from repro.nn import AnalogBackend, BertConfig, BertEncoderModel, BertWorkload
from repro.rram import NoiseConfig
from repro.utils import CNEWS_FORMAT, format_si


def functional_equivalence_demo() -> None:
    """Small encoder evaluated with exact vs RRAM softmax."""
    print("=== 1. Encoder with RRAM softmax vs exact softmax ===")
    config = BertConfig(
        num_layers=2, hidden=64, num_heads=4, intermediate=128, vocab_size=1000, max_positions=64
    )
    rng = np.random.default_rng(0)
    token_ids = rng.integers(0, config.vocab_size, size=(2, 32))

    reference = BertEncoderModel(config, seed=7)
    engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    hardware = BertEncoderModel(config, seed=7, softmax_fn=engine)

    out_ref = reference(token_ids)
    out_hw = hardware(token_ids)
    relative = np.abs(out_ref - out_hw) / (np.abs(out_ref).max())
    correlation = np.corrcoef(out_ref.ravel(), out_hw.ravel())[0, 1]

    print(f"encoder output shape          : {out_hw.shape}")
    print(f"softmax rows simulated in RRAM: {engine.rows_processed}")
    print(f"max relative deviation        : {relative.max():.4%}")
    print(f"output correlation            : {correlation:.6f}\n")


def full_analog_inference_demo() -> None:
    """Every GEMM on crossbar tiles + engine softmax, swept over read noise."""
    print("=== 2. Full analog BERT: crossbar GEMMs + RRAM softmax ===")
    config = BertConfig(
        num_layers=2, hidden=32, num_heads=4, intermediate=64, vocab_size=256, max_positions=32
    )
    rng = np.random.default_rng(1)
    token_ids = rng.integers(0, config.vocab_size, size=(1, 32))
    out_ref = BertEncoderModel(config, seed=7)(token_ids)

    for sigma in (0.0, 0.01, 0.05):
        backend = AnalogBackend(
            MatMulEngine(
                MatMulEngineConfig(
                    crossbar_rows=32,
                    crossbar_cols=32,
                    adc_bits=10,
                    bits_per_cell=5,
                    noise=NoiseConfig(read_noise_sigma=sigma, seed=0),
                )
            )
        )
        engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        analog = BertEncoderModel(config, seed=7, softmax_fn=engine, backend=backend)
        out_analog = analog(token_ids)
        correlation = np.corrcoef(out_ref.ravel(), out_analog.ravel())[0, 1]
        stats = backend.access_stats
        print(
            f"  read noise {sigma * 100:4.1f}%  output corr {correlation:.4f}  "
            f"tile VMMs {stats.vmm_ops:6d}  programming pulses {stats.programming_pulses}"
        )
    print("(stationary weights program once; QK^T / AV operands rewrite per call)\n")


def executed_schedule_demo() -> None:
    """Real tensors streamed through the executed vector-grained schedule."""
    print("=== 3. Executed schedule: real rows through tile banks + engine pool ===")
    config = BertConfig(
        num_layers=1, hidden=32, num_heads=4, intermediate=64, vocab_size=256, max_positions=16
    )
    executor = AttentionExecutor(
        MatMulEngine(
            MatMulEngineConfig(
                crossbar_rows=32, crossbar_cols=32, adc_bits=10, bits_per_cell=5, num_tiles=8
            )
        ),
        softmax_engines=[
            RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT)) for _ in range(4)
        ],
    )
    model = BertEncoderModel(config, seed=7, executor=executor)
    token_ids = np.random.default_rng(2).integers(0, config.vocab_size, size=(1, 16))
    model(token_ids)
    (schedule,) = model.attention_schedules()
    print(f"rows executed           : {schedule.num_rows} "
          f"({schedule.num_streams} head-streams, "
          f"{schedule.num_softmax_engines} softmax engines)")
    print(f"measured latency        : {format_si(schedule.total_latency_s, 's')} "
          f"(steady interval {format_si(schedule.steady_state_interval_s, 's')}/row)")
    print(f"softmax pool            : util {schedule.utilization('softmax') * 100:.1f}%, "
          f"rows/engine {schedule.engine_rows}, "
          f"peak queue {schedule.queue_peaks['softmax']}")
    print("(per-row stage times are measured from the engines' access-stats ledgers)\n")


def full_model_accounting() -> None:
    """BERT-base on the STAR accelerator model (the Fig. 3 scenario)."""
    print("=== 4. BERT-base (seq 128) on the STAR accelerator ===")
    workload = BertWorkload(seq_len=128)
    star = STARAccelerator()
    report = star.cost_report(workload)
    layer = star.layer_latency_breakdown(workload)

    print(f"workload                : {workload.total_ops() / 1e9:.1f} GOPs "
          f"({workload.softmax_elements() / 1e6:.1f}M softmax elements)")
    print(f"inference latency       : {format_si(report.latency_s, 's')}")
    print(f"chip power              : {format_si(report.power_w, 'W')}")
    print(f"chip area               : {report.area_mm2:.1f} mm^2")
    print(f"computing efficiency    : {report.computing_efficiency_gops_per_watt:.1f} GOPs/s/W "
          f"(paper: 612.66)")
    print("per-layer latency breakdown:")
    print(f"  Q/K/V/output GEMMs    : {format_si(layer.projection_s, 's')}")
    print(f"  attention pipeline    : {format_si(layer.attention_pipeline_s, 's')}")
    print(f"  feed-forward GEMMs    : {format_si(layer.ffn_s, 's')}")
    print("executed schedule cross-validation (executed vs closed-form):")
    print("  " + StarScheduleAnalyzer(star).format_table().replace("\n", "\n  ") + "\n")


def gpu_motivation() -> None:
    """The introduction's GPU observation: softmax share vs sequence length."""
    print("=== 5. Why STAR exists: softmax share of GPU latency ===")
    gpu = GPUModel()
    for seq_len in (128, 256, 384, 512, 1024):
        breakdown = gpu.latency_breakdown(BertWorkload(seq_len=seq_len))
        bar = "#" * int(round(breakdown.softmax_share * 40))
        print(f"  L={seq_len:5d}  softmax {breakdown.softmax_share * 100:5.1f}% {bar}")
    print("(the paper reports 59.20% at L=512 on a Titan RTX)\n")


def main() -> None:
    functional_equivalence_demo()
    full_analog_inference_demo()
    executed_schedule_demo()
    full_model_accounting()
    gpu_motivation()


if __name__ == "__main__":
    main()
