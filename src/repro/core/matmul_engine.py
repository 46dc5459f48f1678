"""STAR's MatMul engine: ReTransformer-style RRAM crossbar GEMM tiles.

The MatMul engine "follows the design in ReTransformer" (Section II of the
paper): weights (or, for the attention score product, the dynamically
written K / V operands) are mapped to 128 x 128 crossbar tiles, inputs are
streamed bit-serially through 1-bit wordline DACs, and 5-bit ADCs read the
bitline sums.

The class provides both

* a *functional* path — :meth:`program_operand` / :meth:`matmul` — built
  on :class:`repro.rram.crossbar.AnalogCrossbar`, used by the NN compute
  backends (:class:`repro.nn.backend.AnalogBackend`), the examples and the
  crossbar-fidelity tests, and
* an *analytical cost* path — :meth:`gemm_latency_s`,
  :meth:`gemm_batch_cost`, :meth:`row_latency_s` — used by the pipeline
  model and the Fig. 3 efficiency comparison, where simulating every
  analog access would be pointlessly slow.

The functional path is weight-stationary: :meth:`program_operand` writes a
``K x N`` operand into a persistent bank of crossbar tiles **once** and
returns a :class:`ProgrammedOperand`; :meth:`matmul` then streams every row
of the activation matrix through the bank with one batched VMM per tile
(:meth:`~repro.rram.crossbar.AnalogCrossbar.matvec_batch`).  All tiles
share the engine-level :attr:`MatMulEngine.access_stats` counters, so
programming and read accesses accumulate across the engine's lifetime
instead of being discarded per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.arch.area import CrossbarAreaModel
from repro.core.batch_cost import DEFAULT_BATCH_COST
from repro.core.config import MatMulEngineConfig
from repro.rram.converters import ADC, DAC
from repro.rram.crossbar import AnalogCrossbar, CrossbarAccessStats, CrossbarConfig
from repro.rram.device import RRAMDeviceConfig
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:
    from repro.core.batch_cost import BatchCostModel, BatchGEMMCost

__all__ = ["GEMMShape", "ProgrammedOperand", "MatMulEngine"]


@dataclass(frozen=True)
class GEMMShape:
    """Dimensions of one GEMM: ``(M x K) @ (K x N)``."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1 or self.n < 1:
            raise ValueError(f"GEMM dimensions must be positive, got {self}")

    @property
    def operations(self) -> int:
        """Primitive operations (MAC = 2 ops)."""
        return 2 * self.m * self.k * self.n


@dataclass(frozen=True)
class _OperandTile:
    """One crossbar tile of a programmed operand and its placement."""

    k0: int
    k1: int
    n0: int
    n1: int
    crossbar: AnalogCrossbar
    column_sums: np.ndarray  # per-column sums of the logical block (offset correction)


class ProgrammedOperand:
    """A stationary ``K x N`` operand resident in a bank of crossbar tiles.

    Produced by :meth:`MatMulEngine.program_operand`; each
    ``crossbar_rows x crossbar_cols`` block of the operand occupies one
    persistent :class:`~repro.rram.crossbar.AnalogCrossbar`.  Programming
    happens exactly once — reusing the operand across many
    :meth:`MatMulEngine.matmul` calls models the weight-stationary dataflow
    of ReTransformer/STAR, and costs no further programming pulses.
    """

    def __init__(self, shape: tuple[int, int], tiles: list[_OperandTile]) -> None:
        self.shape = shape
        self._tiles = tiles

    @property
    def num_tiles(self) -> int:
        """Number of crossbar tiles the operand occupies."""
        return len(self._tiles)

    @property
    def tiles(self) -> list[_OperandTile]:
        """The operand's tiles with their ``(k, n)`` placement."""
        return list(self._tiles)


class MatMulEngine:
    """A bank of RRAM crossbar tiles executing GEMMs."""

    name = "STAR MatMul engine"

    def __init__(self, config: MatMulEngineConfig | None = None) -> None:
        self.config = config or MatMulEngineConfig()
        cfg = self.config
        self._tile_config = CrossbarConfig(
            rows=cfg.crossbar_rows,
            cols=cfg.crossbar_cols,
            device=RRAMDeviceConfig(bits_per_cell=cfg.bits_per_cell),
            adc_bits=cfg.adc_bits,
            dac_bits=cfg.dac_bits,
            input_bits=cfg.input_bits,
            noise=cfg.noise,
            differential=True,
        )
        self.access_stats = CrossbarAccessStats()
        self._reference_tile = AnalogCrossbar(self._tile_config)
        self._area_model = CrossbarAreaModel()
        self._adc = ADC(bits=cfg.adc_bits)
        self._dac = DAC(bits=cfg.dac_bits)
        self._tiles_created = 0

    # ------------------------------------------------------------------ #
    # functional path (NN backends, demos and tests)
    # ------------------------------------------------------------------ #
    def new_tile(self) -> AnalogCrossbar:
        """A freshly constructed crossbar tile recording into this engine's stats.

        Each tile receives its own noise seed (base seed + tile index), so
        device noise is independent across the arrays of one engine —
        identically-seeded tiles would draw perfectly correlated deviates
        and bias accuracy-under-noise sweeps.  Tile creation stays
        deterministic for a given engine construction order.
        """
        tile_config = self._tile_config
        if not tile_config.noise.is_ideal:
            noise = replace(tile_config.noise, seed=tile_config.noise.seed + self._tiles_created)
            tile_config = replace(tile_config, noise=noise)
        self._tiles_created += 1
        return AnalogCrossbar(tile_config, stats=self.access_stats)

    def program_operand(self, b: np.ndarray) -> ProgrammedOperand:
        """Write a stationary ``K x N`` operand into a persistent tile bank.

        Each ``crossbar_rows x crossbar_cols`` block of ``b`` (zero-padded
        at the ragged edges) is programmed into its own crossbar tile, once.
        Programming pulses are charged to :attr:`access_stats`.  The
        returned :class:`ProgrammedOperand` can be passed to :meth:`matmul`
        any number of times without re-programming — the weight-stationary
        reuse that PIM accelerators exist for.
        """
        matrix = np.asarray(b, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"operand must be a 2-D matrix, got shape {matrix.shape}")
        rows, cols = self.config.crossbar_rows, self.config.crossbar_cols
        k, n = matrix.shape
        tiles: list[_OperandTile] = []
        for k0 in range(0, k, rows):
            k1 = min(k0 + rows, k)
            for n0 in range(0, n, cols):
                n1 = min(n0 + cols, n)
                block = np.zeros((rows, cols))
                block[: k1 - k0, : n1 - n0] = matrix[k0:k1, n0:n1]
                tile = self.new_tile()
                tile.program(block)
                tiles.append(
                    _OperandTile(
                        k0=k0,
                        k1=k1,
                        n0=n0,
                        n1=n1,
                        crossbar=tile,
                        column_sums=block.sum(axis=0),
                    )
                )
        return ProgrammedOperand(shape=(k, n), tiles=tiles)

    def matmul(self, a: np.ndarray, b: np.ndarray | ProgrammedOperand) -> np.ndarray:
        """Analog ``a @ b`` streaming all rows of ``a`` through the tile bank.

        ``b`` is either a raw matrix — programmed into a fresh tile bank for
        this one call (the dynamic-operand case, e.g. attention's ``QK^T``)
        — or a :class:`ProgrammedOperand` from :meth:`program_operand`,
        reused without any re-programming (the weight-stationary case).

        Every row block streams through
        :meth:`~repro.rram.crossbar.AnalogCrossbar.matvec_batch` in one
        batched VMM per tile: wordlines need non-negative inputs, so each
        row is shifted by its per-row minimum and the whole correction is
        applied as one rank-1 update — the per-row Python loop of the
        original implementation collapses into vectorized NumPy.  A NaN or
        infinite activation raises ``ValueError`` naming it and its
        position.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("matmul expects a 2-D activation matrix")
        finite = np.isfinite(a)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(
                f"activations must be finite, got {a[row, col]} at row {row}, column {col}"
            )
        if isinstance(b, ProgrammedOperand):
            operand = b
        else:
            raw = np.asarray(b, dtype=np.float64)
            if raw.ndim != 2:
                raise ValueError("matmul expects two 2-D matrices")
            if a.shape[1] != raw.shape[0]:
                # reject before programming so failed calls charge no writes
                raise ValueError(f"inner dimensions differ: {a.shape} @ {raw.shape}")
            operand = self.program_operand(raw)
        k, n = operand.shape
        if a.shape[1] != k:
            raise ValueError(f"inner dimensions differ: {a.shape} @ {operand.shape}")
        rows = self.config.crossbar_rows
        m = a.shape[0]
        out = np.zeros((m, n), dtype=np.float64)
        for tile in operand.tiles:
            segment = a[:, tile.k0 : tile.k1]
            offsets = np.min(segment, axis=1)  # wordlines need >= 0 inputs
            padded = np.zeros((m, rows))
            padded[:, : tile.k1 - tile.k0] = segment - offsets[:, None]
            result = tile.crossbar.matvec_batch(padded)
            correction = offsets[:, None] * tile.column_sums[None, :]
            width = tile.n1 - tile.n0
            out[:, tile.n0 : tile.n1] += result[:, :width] + correction[:, :width]
        return out

    # ------------------------------------------------------------------ #
    # stats-derived costs (functional path accounting)
    # ------------------------------------------------------------------ #
    def energy_j_of(self, stats: CrossbarAccessStats) -> float:
        """Energy of the accesses recorded in ``stats``.

        Derived analytically from the counters — cell reads, converter
        activity, sample-and-hold and programming pulses — the same
        decoupled accounting the softmax engine uses: the functional path
        counts accesses, cost never rides the data path.
        """
        device = self._reference_tile.device
        g_mid = 0.5 * (device.config.g_min_s + device.config.g_max_s)
        per_cell_read = float(device.read_energy_j(g_mid))
        sample_hold = self._reference_tile.sample_hold
        return (
            stats.cell_reads * per_cell_read
            + stats.dac_conversions * self._dac.energy_per_conversion_j
            + stats.adc_conversions
            * (self._adc.energy_per_conversion_j + sample_hold.energy_per_sample_j)
            + stats.programming_pulses * device.write_energy_j()
        )

    def latency_s_of(self, stats: CrossbarAccessStats) -> float:
        """Serialized latency of the accesses recorded in ``stats``.

        Array activations are charged one bit-serial cycle each and
        programming pulses are charged row-parallel writes, as if a single
        tile performed all the work back to back; tile-level parallelism is
        the analytical path's concern (:meth:`gemm_latency_s`).
        """
        cfg = self._tile_config
        read_s = stats.array_activations * self._reference_tile.cycle_latency_s()
        write_s = (
            stats.programming_pulses / cfg.physical_cols
        ) * self._reference_tile.device.write_latency_s()
        return read_s + write_s

    # ------------------------------------------------------------------ #
    # per-tile costs
    # ------------------------------------------------------------------ #
    def tile_vmm_latency_s(self) -> float:
        """Latency of one tile VMM (all bit-serial input cycles, serialized)."""
        return self._reference_tile.vmm_latency_s()

    def tile_vmm_overlapped_latency_s(self) -> float:
        """Steady-state tile VMM latency with double-buffered input staging.

        The DAC drive / settle / S&H portion of each bit-serial cycle hides
        under the previous cycle's shared-ADC readout
        (:meth:`~repro.rram.crossbar.AnalogCrossbar.overlapped_vmm_latency_s`);
        the batch cost model charges this rate for rows whose inputs are
        already buffered — rows of requests beyond the first in a batch.
        """
        return self._reference_tile.overlapped_vmm_latency_s()

    def tile_vmm_energy_j(self) -> float:
        """Energy of one tile VMM."""
        return self._reference_tile.vmm_energy_j()

    def tile_area_um2(self) -> float:
        """Area of one tile including DACs, S&H and shared ADCs."""
        cfg = self.config
        return self._area_model.vmm_crossbar_area_um2(
            cfg.crossbar_rows,
            cfg.crossbar_cols * 2,  # differential column pairs
            adc=self._adc,
            dac=self._dac,
        )

    def tile_power_w(self) -> float:
        """Average power of one tile running VMMs back to back."""
        return self.tile_vmm_energy_j() / self.tile_vmm_latency_s()

    # ------------------------------------------------------------------ #
    # engine-level costs
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """Total area of all tiles."""
        return self.config.num_tiles * self.tile_area_um2()

    def area_mm2(self) -> float:
        """Total area of all tiles in mm^2."""
        return self.area_um2() * 1e-6

    def peak_power_w(self) -> float:
        """Power with every tile active."""
        return self.config.num_tiles * self.tile_power_w()

    def _tiles_for(self, shape: GEMMShape) -> int:
        cfg = self.config
        return math.ceil(shape.k / cfg.crossbar_rows) * math.ceil(shape.n / cfg.crossbar_cols)

    def gemm_tile_vmms(self, shape: GEMMShape) -> int:
        """Number of tile VMM activations needed for one GEMM."""
        return self._tiles_for(shape) * shape.m

    def gemm_parallel_tiles(self, shape: GEMMShape, tiles_available: int | None = None) -> int:
        """Tiles working the GEMM in parallel.

        With ``allow_duplication`` the stationary operand is replicated
        across otherwise-idle tiles so different input rows proceed in
        parallel; otherwise parallelism is capped by the number of distinct
        tiles the operand occupies.
        """
        tiles = tiles_available if tiles_available is not None else self.config.num_tiles
        require_positive_int(tiles, "tiles_available")
        if self.config.allow_duplication:
            return tiles
        return min(tiles, self._tiles_for(shape))

    def gemm_streaming_latency_s(
        self,
        shape: GEMMShape,
        batch_size: int = 1,
        cost_model: "BatchCostModel | None" = None,
        tiles_available: int | None = None,
    ) -> float:
        """Latency of streaming ``batch_size * shape.m`` rows through the bank.

        The per-request ``shape`` streams its rows once per batched request
        through one programmed operand.  The first request's row waves are
        charged the serialized tile-VMM latency — keeping ``batch_size = 1``
        bit-identical to the pre-batching formula — and, when the cost
        model double-buffers, every later request's waves stream at the
        overlapped rate (its rows are independent of the row in flight, so
        input staging hides under the previous readout).
        """
        require_positive_int(batch_size, "batch_size")
        model = cost_model or DEFAULT_BATCH_COST
        parallel = self.gemm_parallel_tiles(shape, tiles_available)
        vmms_per_request = self.gemm_tile_vmms(shape)
        first_waves = math.ceil(vmms_per_request / parallel)
        total_waves = math.ceil(vmms_per_request * batch_size / parallel)
        full = self.tile_vmm_latency_s()
        if not model.double_buffering:
            return total_waves * full
        return first_waves * full + (total_waves - first_waves) * self.tile_vmm_overlapped_latency_s()

    def gemm_latency_s(
        self,
        shape: GEMMShape,
        tiles_available: int | None = None,
        batch_size: int = 1,
        cost_model: "BatchCostModel | None" = None,
    ) -> float:
        """Latency of one batched GEMM (operand programming + row streaming).

        With the default :data:`~repro.core.batch_cost.DEFAULT_BATCH_COST`
        and ``batch_size = 1`` this is exactly the pre-batching price:
        resident weights charge no programming and a single request streams
        entirely at the serialized rate.  Larger batches amortise whatever
        the cost model lets them (see :meth:`gemm_batch_cost` for the
        split).
        """
        model = cost_model or DEFAULT_BATCH_COST
        programming = self.programming_latency_s(shape) if model.charges_programming else 0.0
        return programming + self.gemm_streaming_latency_s(
            shape, batch_size=batch_size, cost_model=model, tiles_available=tiles_available
        )

    def gemm_batch_cost(
        self,
        shape: GEMMShape,
        batch_size: int = 1,
        cost_model: "BatchCostModel | None" = None,
        tiles_available: int | None = None,
    ) -> "BatchGEMMCost":
        """The full one-time vs per-row price split of one batched GEMM."""
        from repro.core.batch_cost import BatchGEMMCost

        require_positive_int(batch_size, "batch_size")
        model = cost_model or DEFAULT_BATCH_COST
        programming_latency = (
            self.programming_latency_s(shape) if model.charges_programming else 0.0
        )
        programming_energy = (
            self.programming_energy_j(shape) if model.charges_programming else 0.0
        )
        streaming_latency = self.gemm_streaming_latency_s(
            shape, batch_size=batch_size, cost_model=model, tiles_available=tiles_available
        )
        single_streaming = self.gemm_streaming_latency_s(
            shape, batch_size=1, cost_model=model, tiles_available=tiles_available
        )
        per_request_energy = self.gemm_tile_vmms(shape) * self.tile_vmm_energy_j()
        return BatchGEMMCost(
            shape=shape,
            batch_size=batch_size,
            programming_latency_s=programming_latency,
            programming_energy_j=programming_energy,
            streaming_latency_s=streaming_latency,
            streaming_energy_j=batch_size * per_request_energy,
            single_latency_s=programming_latency + single_streaming,
            single_energy_j=programming_energy + per_request_energy,
        )

    def row_latency_s(self, shape: GEMMShape) -> float:
        """Latency of producing one output row of a GEMM (pipeline granule).

        All tiles holding the stationary operand work in parallel on the same
        input row, so a row takes one tile-VMM latency regardless of ``n``
        (as long as enough tiles are provisioned).
        """
        tiles_needed = self._tiles_for(shape)
        waves = math.ceil(tiles_needed / self.config.num_tiles)
        return waves * self.tile_vmm_latency_s()

    def programming_energy_j(self, shape: GEMMShape) -> float:
        """Energy of writing the stationary ``K x N`` operand into the tiles.

        Only accelerators that rewrite dynamic operands (e.g. PipeLayer
        executing attention) pay this per inference; ReTransformer and STAR
        avoid it through matrix decomposition, but the figure is exposed for
        the ablation benchmarks.
        """
        cells = shape.k * shape.n * 2  # differential pairs
        return cells * self._reference_tile.device.config.write_energy_j

    def programming_latency_s(self, shape: GEMMShape) -> float:
        """Latency of writing the stationary operand (row-parallel writes)."""
        rows_to_write = math.ceil(shape.k / self.config.crossbar_rows) * self.config.crossbar_rows
        return rows_to_write * self._reference_tile.device.config.write_pulse_s
