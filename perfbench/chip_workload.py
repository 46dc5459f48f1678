"""The ``chip_attention`` workload: STAR's own hardware doing real attention.

Two parts, both on the functional RRAM models:

* **engine sweep** — synthetic attention-score blocks for CNEWS, MRPC and
  CoLA, each at its typical sequence length and in its own fixed-point
  format, softmaxed by :class:`~repro.core.softmax_engine.RRAMSoftmaxEngine`
  at three device corners (ideal; typical 2 % programming / 1 % read
  noise; aggressive 5 % / 3 % plus 0.5 % stuck cells), plus one corner with
  CAM search errors, which forces the engine's per-row path;
* **analog encoder** — a 2-layer, hidden-64, 4-head BERT encoder whose
  GEMMs run on :class:`~repro.nn.backend.AnalogBackend` crossbar tiles with
  the engine as its softmax, once with ideal devices streamed row by row
  through the executed vector-grained attention pipeline
  (:class:`~repro.core.scheduler.AttentionExecutor`, seeded per-row stage
  jitter) and once with 1 % read noise.

Stationary weights are programmed once per model; the attention operands
(``K^T``, ``V``) are programmed on every call.  The ``sim_*`` metrics are
the modelled chip's answers for the executed attention rows: per-row
pipeline latency (score start to context end), rows completed per
simulated second, and modelled energy per row from the engines'
access-statistics ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import (
    AttentionExecutor,
    MatMulEngine,
    MatMulEngineConfig,
    RRAMSoftmaxEngine,
    SoftmaxEngineConfig,
    StageJitter,
)
from repro.nn import AnalogBackend, BertConfig, BertEncoderModel, FixedPointSoftmax, IdealBackend
from repro.nn.functional import softmax as exact_softmax
from repro.rram import NoiseConfig
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT
from repro.workloads import CNEWS_PROFILE, COLA_PROFILE, MRPC_PROFILE, AttentionScoreGenerator

from spans import SIM_TAIL_CAP, tail_percentile

__all__ = ["ChipAttention"]

DATASETS = (
    (CNEWS_PROFILE, CNEWS_FORMAT),
    (MRPC_PROFILE, MRPC_FORMAT),
    (COLA_PROFILE, COLA_FORMAT),
)
CORNERS = (
    ("ideal", NoiseConfig()),
    ("typical", NoiseConfig(programming_sigma=0.02, read_noise_sigma=0.01)),
    (
        "aggressive",
        NoiseConfig(
            programming_sigma=0.05,
            read_noise_sigma=0.03,
            stuck_on_fraction=0.0025,
            stuck_off_fraction=0.0025,
        ),
    ),
)
ROWS_PER_DATASET = 16_000
ROW_PATH_ROWS = 1_500
CAM_SEARCH_ERROR_RATE = 0.01

ENCODER = BertConfig(
    num_layers=2, hidden=64, num_heads=4, intermediate=128, vocab_size=1000, max_positions=64
)
TOKENS = (2, 32)  # (batch, sequence length) of every encoder forward
TILE = MatMulEngineConfig(crossbar_rows=32, crossbar_cols=32, adc_bits=10, bits_per_cell=5)
READ_NOISE_SIGMA = 0.01
STAGE_JITTER_SIGMA = 0.2
SOFTMAX_POOL = 4
ANALOG_CORR_FLOOR = 0.95


@dataclass
class ChipState:
    blocks: list  # (dataset name, format, scores)
    sweep: list  # (corner, dataset index, engine)
    row_engine: RRAMSoftmaxEngine
    tokens: np.ndarray
    reference: np.ndarray
    executed_model: BertEncoderModel
    executor: AttentionExecutor
    noisy_model: BertEncoderModel


@dataclass
class ChipOutcome:
    ideal_outputs: dict = field(default_factory=dict)
    row_path_output: np.ndarray | None = None
    executed_output: np.ndarray | None = None
    noisy_output: np.ndarray | None = None
    schedules: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _engine(fmt, noise: NoiseConfig = NoiseConfig(), **kwargs) -> RRAMSoftmaxEngine:
    return RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt, noise=noise, **kwargs))


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def mean_kl(exact: np.ndarray, approx: np.ndarray, epsilon: float = 1e-12) -> float:
    """Mean row KL(exact || approx), row-vectorized ``repro.utils.stats.kl_divergence``."""
    p = np.clip(exact, epsilon, None)
    q = np.clip(approx, epsilon, None)
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    return float(np.mean(np.sum(p * np.log(p / q), axis=-1)))


class ChipAttention:
    def setup(self, seed: int, phase) -> ChipState:
        blocks = []
        for index, (profile, fmt) in enumerate(DATASETS):
            with phase(f"scores.{profile.name}"):
                generator = AttentionScoreGenerator(profile, seed=seed * len(DATASETS) + index)
                blocks.append((profile.name, fmt, generator.rows(ROWS_PER_DATASET)))
        with phase("models"):
            sweep = [
                (corner, index, _engine(fmt, replace(noise, seed=seed)))
                for corner, noise in CORNERS
                for index, (_, fmt, _) in enumerate(blocks)
            ]
            row_engine = _engine(
                CNEWS_FORMAT, cam_search_error_rate=CAM_SEARCH_ERROR_RATE, cam_seed=seed
            )
            rng = np.random.default_rng(seed)
            tokens = rng.integers(0, ENCODER.vocab_size, size=TOKENS)
            reference = BertEncoderModel(
                ENCODER, seed=seed, softmax_fn=_engine(CNEWS_FORMAT), backend=IdealBackend()
            )(tokens)
            executor = AttentionExecutor(
                MatMulEngine(TILE),
                softmax_engines=[_engine(CNEWS_FORMAT) for _ in range(SOFTMAX_POOL)],
                jitter=StageJitter(sigma=STAGE_JITTER_SIGMA, seed=seed),
            )
            # the executor's engine pool is this model's softmax
            executed_model = BertEncoderModel(
                ENCODER, seed=seed, backend=AnalogBackend(MatMulEngine(TILE)), executor=executor
            )
            noisy_tile = replace(
                TILE, noise=NoiseConfig(read_noise_sigma=READ_NOISE_SIGMA, seed=seed)
            )
            noisy_model = BertEncoderModel(
                ENCODER,
                seed=seed,
                softmax_fn=_engine(CNEWS_FORMAT),
                backend=AnalogBackend(MatMulEngine(noisy_tile)),
            )
        return ChipState(
            blocks=blocks,
            sweep=sweep,
            row_engine=row_engine,
            tokens=tokens,
            reference=reference,
            executed_model=executed_model,
            executor=executor,
            noisy_model=noisy_model,
        )

    @staticmethod
    def offered(state: ChipState) -> int:
        """Softmax rows requested of the engines: the sweep, the row path
        and the attention rows of both encoder forwards."""
        batch, seq = TOKENS
        sweep = len(CORNERS) * len(state.blocks) * ROWS_PER_DATASET
        encoder = 2 * ENCODER.num_layers * batch * ENCODER.num_heads * seq
        return sweep + ROW_PATH_ROWS + encoder

    def run(self, state: ChipState, phase) -> ChipOutcome:
        outcome = ChipOutcome()
        for corner, index, engine in state.sweep:
            with phase(f"softmax.{corner}"):
                probabilities = engine.softmax(state.blocks[index][2])
            if corner == "ideal":
                outcome.ideal_outputs[index] = probabilities
        with phase("softmax.row_path"):
            outcome.row_path_output = state.row_engine.softmax(
                state.blocks[0][2][:ROW_PATH_ROWS]
            )
        with phase("encoder.executed"):
            outcome.executed_output = state.executed_model(state.tokens)
            outcome.schedules = state.executed_model.attention_schedules()
            outcome.sim, outcome.details = self._sim_metrics(state, outcome.schedules)
        with phase("encoder.noisy"):
            outcome.noisy_output = state.noisy_model(state.tokens)
        return outcome

    @staticmethod
    def _sim_metrics(state: ChipState, schedules: list) -> tuple[dict, dict]:
        """The modelled chip's answers for the executed attention rows."""
        latency = np.concatenate(
            [
                [r.context_end_s - r.score_start_s for r in schedule.records]
                for schedule in schedules
            ]
        )
        batch, seq = TOKENS
        expected = ENCODER.num_layers * batch * ENCODER.num_heads * seq
        executor = state.executor
        energy_j = executor.matmul_engine.energy_j_of(executor.matmul_engine.access_stats)
        energy_j += sum(e.energy_j_of(e.access_stats) for e in executor.softmax_pool)
        tail_pct, tail_s = tail_percentile(latency, cap=SIM_TAIL_CAP)
        sim = {
            "sim_p50_ms": float(np.median(latency)) * 1e3,
            "sim_tail_ms": tail_s * 1e3,
            "sim_goodput_rps": latency.size / sum(s.total_latency_s for s in schedules),
            "sim_completed_frac": latency.size / expected,
            "sim_energy_per_query_mj": energy_j / latency.size * 1e3,
        }
        details = {"sim_tail_pct": tail_pct, "sim_tail_samples": int(latency.size)}
        return sim, details

    def check(self, state: ChipState, outcome: ChipOutcome) -> list[tuple[str, bool]]:
        checks = []
        for index, (name, fmt, scores) in enumerate(state.blocks):
            output = outcome.ideal_outputs[index]
            checks.append(
                (f"{name}: ideal engine bit-identical to FixedPointSoftmax",
                 bool(np.array_equal(output, FixedPointSoftmax(fmt)(scores))))
            )
            checks.append(
                (f"{name}: ideal rows sum to 1 within the format resolution",
                 bool(np.all(np.abs(output.sum(axis=-1) - 1.0) <= fmt.resolution)))
            )
        checks.append(
            ("row path: rows sum to 1 within the format resolution",
             bool(np.all(np.abs(outcome.row_path_output.sum(axis=-1) - 1.0)
                         <= CNEWS_FORMAT.resolution)))
        )
        batch, seq = TOKENS
        rows_per_layer = batch * ENCODER.num_heads * seq
        checks.append(
            ("executed pipeline completed every attention row",
             len(outcome.schedules) == ENCODER.num_layers
             and all(s.num_rows == rows_per_layer for s in outcome.schedules))
        )
        encoders = (("executed", outcome.executed_output), ("noisy", outcome.noisy_output))
        for label, output in encoders:
            checks.append(
                (f"{label} analog encoder correlates with IdealBackend above "
                 f"{ANALOG_CORR_FLOOR}",
                 _corr(output, state.reference) > ANALOG_CORR_FLOOR)
            )
        return checks

    def layer_metrics(self, state: ChipState, outcome: ChipOutcome) -> dict[str, float]:
        """Fidelity figures of the chip (the analysis outside the timed phase)."""
        kls = [
            mean_kl(exact_softmax(scores), outcome.ideal_outputs[index])
            for index, (_, _, scores) in enumerate(state.blocks)
        ]
        return {
            "core.softmax_engine.softmax_kl": float(np.mean(kls)),
            "nn.backend.analog_corr": _corr(outcome.noisy_output, state.reference),
        }
