"""Analog RRAM crossbar performing in-situ vector-matrix multiplication (VMM).

This is the workhorse substrate of every RRAM PIM accelerator: a matrix is
programmed into cell conductances, an input vector is applied as wordline
voltages and, by Kirchhoff's law, each bitline current is the dot product of
the input vector with the corresponding matrix column.

The model is behavioural but captures the effects that matter at
architecture level:

* conductance quantisation to the device's programmable levels;
* bit-serial streaming of multi-bit inputs through low-resolution DACs
  (the ISAAC / ReTransformer operating mode), with shift-and-add
  accumulation of the per-cycle ADC outputs;
* differential (positive/negative column pair) encoding of signed weights;
* programming variation, read noise and stuck-at faults via
  :class:`~repro.rram.noise.NoiseModel`;
* ADC quantisation of bitline currents, with the full-scale range set by the
  worst-case column current;
* per-access energy and latency accounting that the architecture-level cost
  model aggregates.

Two functional entry points share the model: :meth:`AnalogCrossbar.matvec`
processes one input vector, and :meth:`AnalogCrossbar.matvec_batch`
processes a whole ``(batch, rows)`` block with no Python-level per-vector
loop.  The per-vector path delegates to the batched one, and the batched
kernels are built exclusively from row-independent NumPy operations (plus an
exact integer-arithmetic fast path for ideal devices), so the two are
**bit-identical** under every configuration — differential or not, seeded
read noise, IR drop and ADC saturation included.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.rram.converters import ADC, DAC, SampleAndHold
from repro.rram.device import RRAMDevice, RRAMDeviceConfig
from repro.rram.noise import IDEAL_NOISE, NoiseConfig, NoiseModel
from repro.utils.validation import (
    as_1d_float_array,
    as_2d_float_array,
    require_non_negative,
)

__all__ = ["CrossbarConfig", "CrossbarAccessStats", "AnalogCrossbar"]

# Upper bound on the float64 scratch matvec_batch holds at once (8 M
# doubles = 64 MB) — pre-drawn noise deviates on the noisy path, stacked
# code/current buffers on the exact path.  Larger blocks are split into
# chunks; rows are independent and the noise stream is consumed in
# per-vector order, so chunking never changes the results.
_CHUNK_DOUBLES = 1 << 23

# Read noise scales each cell's conductance by ``1 + eps`` with
# ``eps ~ N(0, sigma^2)``, clipped at zero.  Without the clip a column
# current is Gaussian given the inputs, so one deviate per column reproduces
# its law exactly.  The clip fires with probability ``Phi(-1/sigma)`` per
# cell read; while that stays at or below this bound (sigma up to ~0.142)
# the per-column form is used, above it the per-cell one.
_CLIP_PROBABILITY_BOUND = 1e-12

class _Workspace(threading.local):
    """Reusable per-thread scratch arrays for the batched exact kernel.

    Large per-call temporaries exceed the allocator's mmap threshold, so a
    fresh allocation pays page-fault cost on every VMM.  The workspace
    keeps the two hot buffers alive between calls (a shape change simply
    reallocates); it is thread-local, so crossbars driven from concurrent
    sweep workers never share buffers.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape:
            arr = np.empty(shape, dtype=np.float64)
            self._arrays[key] = arr
        return arr


_WORKSPACE = _Workspace()


@dataclass(frozen=True)
class CrossbarConfig:
    """Dimensions and peripheral configuration of one crossbar array.

    Attributes
    ----------
    rows / cols:
        Array dimensions (wordlines x bitlines).  STAR uses 128x128 for the
        MatMul engine and 256x18 / 512x18 arrays inside the Softmax engine.
    device:
        RRAM cell parameters.
    noise:
        Non-ideality configuration.
    adc_bits:
        Resolution of the column ADCs (5 for the MatMul engine, following
        ReTransformer).
    dac_bits:
        Resolution of the wordline DACs (1 = bit-serial input streaming).
    input_bits:
        Precision at which input vectors are quantised before being streamed
        through the DACs, ``ceil(input_bits / dac_bits)`` cycles per VMM.
    differential:
        Encode signed weights on positive/negative column pairs.
    adc_share:
        How many columns share one ADC through a sample-and-hold mux
        (8 is the ISAAC/ReTransformer assumption).
    wire_resistance_ohm:
        Interconnect resistance of one wordline/bitline segment between
        adjacent cells.  0 (default) disables the IR-drop model; a typical
        value for scaled metal is 1-5 ohm per segment.  Cells far from the
        drivers see a lower effective voltage, which the first-order model
        captures as a per-position attenuation of the cell conductance.
    """

    rows: int = 128
    cols: int = 128
    device: RRAMDeviceConfig = field(default_factory=RRAMDeviceConfig)
    noise: NoiseConfig = field(default_factory=lambda: IDEAL_NOISE)
    adc_bits: int = 5
    dac_bits: int = 1
    input_bits: int = 8
    differential: bool = False
    adc_share: int = 8
    wire_resistance_ohm: float = 0.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"crossbar dimensions must be positive, got {self.rows}x{self.cols}"
            )
        if not 1 <= self.dac_bits <= 16:
            raise ValueError(f"dac_bits must be in [1, 16], got {self.dac_bits}")
        if not 1 <= self.input_bits <= 32:
            raise ValueError(f"input_bits must be in [1, 32], got {self.input_bits}")
        if self.adc_share < 1:
            raise ValueError(f"adc_share must be >= 1, got {self.adc_share}")
        require_non_negative(self.wire_resistance_ohm, "wire_resistance_ohm")

    @property
    def physical_cols(self) -> int:
        """Number of physical bitlines after differential expansion."""
        return self.cols * 2 if self.differential else self.cols

    @property
    def num_cells(self) -> int:
        """Total number of RRAM cells in the array."""
        return self.rows * self.physical_cols

    @property
    def input_cycles(self) -> int:
        """Number of bit-serial cycles needed to stream one input vector."""
        return -(-self.input_bits // self.dac_bits)  # ceil division


@dataclass
class CrossbarAccessStats:
    """Cumulative crossbar access counters used for energy/latency accounting.

    Distinct from :class:`repro.core.access_stats.AccessStats`, which counts
    the softmax engine's CAM/LUT/counter/divider accesses — this one counts
    the analog VMM substrate's array, converter and programming accesses.
    Several crossbars (e.g. all tiles of a MatMul engine) can share one
    instance, in which case their accesses accumulate in one place.

    The counters are plain unsynchronized integers: concurrent sweep
    workers should each own their engine/crossbars (and therefore their
    stats); crossbars sharing one stats object must be driven from a
    single thread.
    """

    vmm_ops: int = 0
    array_activations: int = 0
    cell_reads: int = 0
    adc_conversions: int = 0
    dac_conversions: int = 0
    programming_pulses: int = 0

    def merge(self, other: "CrossbarAccessStats") -> None:
        """Accumulate another counter set into this one."""
        self.vmm_ops += other.vmm_ops
        self.array_activations += other.array_activations
        self.cell_reads += other.cell_reads
        self.adc_conversions += other.adc_conversions
        self.dac_conversions += other.dac_conversions
        self.programming_pulses += other.programming_pulses


class AnalogCrossbar:
    """A programmable RRAM crossbar with analog VMM readout.

    Parameters
    ----------
    config:
        Array dimensions and peripheral configuration.
    stats:
        Optional shared access-counter object.  When several crossbars form
        one engine (the MatMul engine's tile bank), passing the engine's
        stats object here makes every tile record into the same counters.
    """

    def __init__(
        self,
        config: CrossbarConfig | None = None,
        stats: CrossbarAccessStats | None = None,
    ) -> None:
        self.config = config or CrossbarConfig()
        self.device = RRAMDevice(self.config.device)
        self.noise = NoiseModel(self.config.noise)
        self.adc = ADC(bits=self.config.adc_bits)
        self.dac = DAC(bits=self.config.dac_bits)
        self.sample_hold = SampleAndHold()
        self.stats = stats if stats is not None else CrossbarAccessStats()
        self._weights: np.ndarray | None = None
        self._conductance_pos: np.ndarray | None = None
        self._conductance_neg: np.ndarray | None = None
        self._exact_levels: np.ndarray | None = None
        self._weight_scale: float = 1.0
        self._ir_drop_factors = self._build_ir_drop_factors()

    def _build_ir_drop_factors(self) -> np.ndarray | None:
        """Per-cell attenuation from wordline/bitline IR drop (first order).

        A cell at row ``r`` and column ``c`` sees its read voltage divided
        across the wire segments between it and the drivers/sense node:
        ``factor = 1 / (1 + g_cell_max * r_wire * (distance_to_driver +
        distance_to_sense))`` — the standard first-order approximation used
        by behavioural PIM simulators.  Returns ``None`` when disabled.
        """
        r_wire = self.config.wire_resistance_ohm
        if r_wire <= 0.0:
            return None
        g_max = self.device.config.g_max_s
        rows = np.arange(self.config.rows)[:, None]
        cols = np.arange(self.config.cols)[None, :]
        # wordline drivers sit at column 0, bitline sense amplifiers below
        # the last row (R - 1)
        distance = cols + (self.config.rows - 1 - rows)
        return 1.0 / (1.0 + g_max * r_wire * distance)

    # ------------------------------------------------------------------ #
    # programming
    # ------------------------------------------------------------------ #
    @property
    def is_programmed(self) -> bool:
        """Whether a weight matrix has been written into the array."""
        return self._conductance_pos is not None

    @property
    def weights(self) -> np.ndarray:
        """The logical weight matrix most recently programmed."""
        if self._weights is None:
            raise RuntimeError("crossbar has not been programmed yet")
        return self._weights.copy()

    def program(self, weights: np.ndarray) -> None:
        """Write a logical ``rows x cols`` weight matrix into the array.

        Weights are linearly mapped onto the conductance window.  With
        ``differential=True`` negative weights go to the negative column of
        each pair; otherwise weights must be non-negative.
        """
        matrix = as_2d_float_array(weights, "weights")
        cfg = self.config
        if matrix.shape != (cfg.rows, cfg.cols):
            raise ValueError(
                f"weight matrix shape {matrix.shape} does not match crossbar "
                f"{cfg.rows}x{cfg.cols}"
            )
        if not cfg.differential and np.any(matrix < 0):
            raise ValueError(
                "negative weights require a differential crossbar (config.differential=True)"
            )

        max_abs = float(np.max(np.abs(matrix)))
        self._weight_scale = max_abs if max_abs > 0 else 1.0
        normalized = matrix / self._weight_scale  # in [-1, 1]

        g_min = self.device.config.g_min_s
        g_max = self.device.config.g_max_s
        span = g_max - g_min

        pos = np.clip(normalized, 0.0, 1.0)
        neg = np.clip(-normalized, 0.0, 1.0)

        target_pos = g_min + pos * span
        target_neg = g_min + neg * span

        # quantise to programmable levels, then apply programming variation
        levels_pos = self.device.conductance_to_level(target_pos)
        levels_neg = self.device.conductance_to_level(target_neg)
        target_pos = self.device.level_to_conductance(levels_pos)
        target_neg = self.device.level_to_conductance(levels_neg)
        self._conductance_pos = self.noise.apply_programming(target_pos, g_min, g_max)
        self._conductance_neg = (
            self.noise.apply_programming(target_neg, g_min, g_max)
            if cfg.differential
            else None
        )
        # With an ideal write path the cells stay exactly on the level grid,
        # which enables matvec_batch's exact integer-arithmetic kernel: the
        # (differential) level matrix is all it needs, and the positive /
        # negative column contributions fold into one exact integer
        # difference ahead of time.
        if self.noise.config.is_programming_ideal:
            levels_eff = levels_pos.astype(np.float64)
            if cfg.differential:
                levels_eff = levels_eff - levels_neg.astype(np.float64)
            self._exact_levels = levels_eff
        else:
            self._exact_levels = None
        self._weights = matrix.copy()
        self.stats.programming_pulses += int(matrix.size) * (2 if cfg.differential else 1)

    # ------------------------------------------------------------------ #
    # compute
    # ------------------------------------------------------------------ #
    def matvec(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """In-situ VMM: returns an estimate of ``inputs @ W``.

        The input vector is quantised to ``input_bits`` and streamed through
        the DACs in ``input_cycles`` bit-serial slices; per-cycle bitline
        currents pass through the column ADCs and are accumulated with the
        appropriate binary weight — exactly the shift-and-add dataflow of
        ISAAC-style PIM tiles.  Delegates to :meth:`matvec_batch` with a
        single-row block, so the per-vector and batched paths are the same
        code and therefore bit-identical by construction.

        Parameters
        ----------
        inputs:
            Length-``rows`` non-negative vector in logical units.
        quantize_output:
            When ``True`` (default) the per-cycle currents pass through the
            ADCs, adding quantisation error exactly as the hardware would.
            ``False`` gives the noiseless analog result (useful to isolate
            error sources in tests).
        """
        vector = as_1d_float_array(inputs, "inputs")
        return self.matvec_batch(vector[None, :], quantize_output=quantize_output)[0]

    def matvec_batch(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """In-situ VMM of a whole ``(batch, rows)`` input block.

        Streams every vector of the block through the bit-serial dataflow in
        pure vectorized NumPy — input quantisation, DAC slicing, noise
        application, ADC conversion and shift-and-add accumulation all act
        on the full block at once.  The result is **bit-identical** to
        calling :meth:`matvec` on each row in order, including under seeded
        read noise: the noise deviates are pre-drawn from the generator in
        exactly the order the per-vector loop would consume them, and every
        reduction uses a row-independent kernel.

        Two kernels back the per-cycle current computation:

        * with ideal devices (no programming/read noise, no IR drop) the
          cells sit exactly on the conductance level grid, so each cycle's
          bitline current is an integer combination of DAC codes and cell
          levels — computed as an exact integer-valued BLAS matmul, which
          floating-point evaluation order cannot perturb;
        * otherwise ``einsum`` contractions are used, whose per-element
          reduction order does not depend on the batch size.  Under read
          noise with ``sigma`` up to ~0.142 they run against fixed matrices
          (the conductances and their squares) and draw one deviate per
          column and cycle, which gives each column current its exact law;
          above that each vector contracts its own per-cell perturbed
          conductances (see :meth:`_accumulate_general`).

        Large noisy blocks are processed in chunks so the pre-drawn noise
        stays within a fixed memory budget; chunking preserves the stream
        order and therefore the results.

        Parameters
        ----------
        inputs:
            ``(batch, rows)`` block of finite, non-negative vectors in
            logical units (NaN, inf and negative entries raise).  Each row
            is scaled to its own maximum, exactly as the per-vector path
            does.
        quantize_output:
            As in :meth:`matvec`.

        Returns
        -------
        ``(batch, cols)`` array estimating ``inputs @ W`` row by row.
        """
        if not self.is_programmed:
            raise RuntimeError("crossbar must be programmed before matvec")
        block = as_2d_float_array(inputs, "inputs")
        cfg = self.config
        if block.shape[1] != cfg.rows:
            raise ValueError(
                f"input length {block.shape[1]} does not match crossbar rows {cfg.rows}"
            )
        if block.size and not (block.min() >= 0.0 and block.max() < np.inf):
            row, col = np.argwhere(~((block >= 0.0) & (block < np.inf)))[0]
            raise ValueError(
                "wordline inputs must be finite, non-negative voltages/counts, "
                f"got {block[row, col]} at row {row}, column {col}"
            )
        batch = block.shape[0]
        if batch == 0:
            return np.zeros((0, cfg.cols), dtype=np.float64)

        if self.noise.config.read_noise_sigma > 0.0:
            per_vector = cfg.input_cycles * self._deviates_per_cycle()
        else:
            per_vector = cfg.input_cycles * (cfg.rows + cfg.cols)  # exact-kernel scratch
        chunk = max(1, _CHUNK_DOUBLES // max(1, per_vector))
        if batch > chunk:
            return np.concatenate(
                [
                    self._matvec_block(block[i : i + chunk], quantize_output)
                    for i in range(0, batch, chunk)
                ],
                axis=0,
            )
        return self._matvec_block(block, quantize_output)

    def _per_column_noise(self) -> bool:
        """Whether read noise is drawn once per column rather than per cell."""
        sigma = self.noise.config.read_noise_sigma
        if sigma <= 0.0:
            return False
        clip_probability = 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))  # Phi(-1/sigma)
        return clip_probability <= _CLIP_PROBABILITY_BOUND

    def _deviates_per_cycle(self) -> int:
        """Read-noise deviates one vector consumes per bit-serial cycle."""
        cfg = self.config
        if self._per_column_noise():
            return 2 * cfg.cols
        cells = cfg.rows * cfg.cols
        return cells * (2 if cfg.differential else 1) + cfg.cols

    def _matvec_block(self, block: np.ndarray, quantize_output: bool) -> np.ndarray:
        """The batched bit-serial dataflow for one in-memory block."""
        cfg = self.config
        batch = block.shape[0]
        v_read = self.device.config.read_voltage_v
        span = self.device.config.g_max_s - self.device.config.g_min_s

        in_max = np.max(block, axis=1)
        in_scale = np.where(in_max > 0.0, in_max, 1.0)
        max_input_code = (1 << cfg.input_bits) - 1
        input_codes = np.rint(block / in_scale[:, None] * max_input_code).astype(np.int64)
        full_scale = cfg.rows * v_read * span

        if (
            self.noise.config.read_noise_sigma <= 0.0
            and self._ir_drop_factors is None
            and self._exact_levels is not None
        ):
            accumulated = self._accumulate_exact(input_codes, quantize_output, full_scale)
        else:
            accumulated = self._accumulate_general(input_codes, quantize_output, full_scale)

        self._record_cycle_access(batch * cfg.input_cycles)
        self.stats.vmm_ops += batch

        # Convert accumulated currents back to logical units.
        #   per-cycle current = sum_r (code_r / dac_max * v_read) * (w_rc / w_scale) * span
        #   shift-and-add over cycles reconstructs code_r = x_r / in_scale * max_input_code
        # hence logical = accumulated * dac_max * in_scale * w_scale
        #                 / (v_read * span * max_input_code)
        dac_max = self.dac.num_levels - 1
        logical = (
            accumulated
            * dac_max
            * in_scale[:, None]
            * self._weight_scale
            / (v_read * span * max_input_code)
        )
        return logical

    def _accumulate_exact(
        self, input_codes: np.ndarray, quantize_output: bool, full_scale: float
    ) -> np.ndarray:
        """Shift-and-add accumulation via the exact integer-arithmetic kernel.

        With on-grid cells (``g = g_min + level * g_step``) and
        code-proportional drive voltages, each cycle's bitline current is an
        integer combination of DAC codes and cell levels (differential
        column pairs fold into one pre-computed level difference, and the
        single-ended ``g_min`` baseline subtraction cancels exactly).  All
        cycles stack into **one** integer-valued BLAS matmul whose products
        and partial sums are exact float64 integers — evaluation order
        cannot perturb them, so the batched result is bit-identical to the
        single-row one.
        """
        cfg = self.config
        batch = input_codes.shape[0]
        dac_levels = self.dac.num_levels
        cycles = cfg.input_cycles
        span = self.device.config.g_max_s - self.device.config.g_min_s
        # conductance step between adjacent programmable levels, and the
        # wordline voltage one DAC code corresponds to
        g_step = span / (self.device.config.num_levels - 1)
        volt_step = self.device.config.read_voltage_v / (dac_levels - 1)

        # dac_levels is always a power of two, so the bit-serial slices come
        # from masks and shifts — identical integers, far fewer passes.  The
        # slices are written straight into the float operand of the stacked
        # matmul, and the scale/ADC chain runs in place on its output: the
        # kernel allocates exactly two large arrays per call.
        mask = dac_levels - 1
        codes_f = _WORKSPACE.get("codes_f", (cycles, batch, cfg.rows))
        remaining = input_codes
        for cycle in range(cycles):
            codes_f[cycle] = remaining & mask
            remaining = remaining >> self.dac.bits
        level_sums = _WORKSPACE.get("level_sums", (cycles * batch, cfg.cols))
        np.matmul(codes_f.reshape(cycles * batch, cfg.rows), self._exact_levels, out=level_sums)
        currents = level_sums.reshape(cycles, batch, cfg.cols)
        np.multiply(currents, g_step * volt_step, out=currents)

        if quantize_output:
            if cfg.differential:
                self.adc.convert_signed(currents, full_scale, out=currents)
            else:
                np.clip(currents, 0.0, None, out=currents)
                self.adc.convert(currents, full_scale, out=currents)

        accumulated = np.zeros((batch, cfg.cols), dtype=np.float64)
        cycle_weight = 1
        for cycle in range(cycles):
            accumulated += currents[cycle] * cycle_weight
            cycle_weight *= dac_levels
        return accumulated

    def _accumulate_general(
        self, input_codes: np.ndarray, quantize_output: bool, full_scale: float
    ) -> np.ndarray:
        """Shift-and-add accumulation through the full analog signal chain.

        Used whenever read noise, IR drop or off-grid (programming-noisy)
        conductances make the exact integer kernel inapplicable.  Every
        contraction uses ``einsum``, whose per-element reduction order is
        independent of the batch size, and read-noise deviates are
        pre-drawn in exactly the order the per-vector loop would draw them
        — keeping this path, too, bit-identical to looped :meth:`matvec`
        calls.

        Read noise takes one of two forms.  Per column, while the clip of
        ``G * (1 + eps)`` at zero has a chance ``Phi(-1/sigma) <= 1e-12``
        per cell read (``sigma`` up to ~0.142): with independent ``eps_rc ~
        N(0, sigma^2)`` a column current ``sum_r V_r * G_rc * (1 + eps_rc)``
        is exactly ``sum_r V_r * G_rc + sqrt(sum_r V_r^2 * G_rc^2) * Z_c``
        with ``Z_c ~ N(0, sigma^2)``, and the two columns of a differential
        pair add their variances.  Both sums are contractions against fixed
        matrices (IR drop is a fixed per-cell scale of ``G``), and each
        cycle draws ``cols`` conductance deviates, then ``cols`` current
        deviates, per vector.  This is exact in law, not draw for draw, up
        to the neglected clip.  Above that ``sigma`` every cell is perturbed
        and clipped on its own: one deviate per cell (positive, then
        negative columns), then ``cols`` current deviates, per cycle.
        """
        cfg = self.config
        batch = input_codes.shape[0]
        v_read = self.device.config.read_voltage_v
        g_min = self.device.config.g_min_s
        dac_levels = self.dac.num_levels

        # effective (IR-dropped) conductances: every read but the per-cell
        # noisy one contracts against these fixed matrices
        g_pos_eff = self._conductance_pos
        g_neg_eff = self._conductance_neg
        if self._ir_drop_factors is not None:
            g_pos_eff = g_pos_eff * self._ir_drop_factors
            if cfg.differential:
                g_neg_eff = g_neg_eff * self._ir_drop_factors

        noise_pos = noise_neg = noise_col = noise_cur = None
        if self.noise.config.read_noise_sigma > 0.0:
            # Pre-draw every deviate of the block in the per-vector loop's
            # consumption order: for each vector, for each cycle — the
            # conductance deviates (per column, or per cell: positive, then
            # negative for differential arrays), then the current deviates.
            per_cycle = self._deviates_per_cycle()
            flat = self.noise.draw_read_deviates(batch * cfg.input_cycles * per_cycle)
            flat = flat.reshape(batch, cfg.input_cycles, per_cycle)
            noise_cur = flat[:, :, per_cycle - cfg.cols :]
            if self._per_column_noise():
                noise_col = flat[:, :, : cfg.cols]
                g_mean = g_pos_eff
                g_var = g_pos_eff * g_pos_eff
                if cfg.differential:
                    g_mean = g_pos_eff - g_neg_eff
                    g_var = g_var + g_neg_eff * g_neg_eff
            else:
                cells = cfg.rows * cfg.cols
                shape = (batch, cfg.input_cycles, cfg.rows, cfg.cols)
                noise_pos = flat[:, :, :cells].reshape(shape)
                if cfg.differential:
                    noise_neg = flat[:, :, cells : 2 * cells].reshape(shape)

        accumulated = np.zeros((batch, cfg.cols), dtype=np.float64)
        remaining = input_codes.copy()
        cycle_weight = 1
        for cycle in range(cfg.input_cycles):
            slice_codes = remaining % dac_levels
            remaining //= dac_levels

            voltages = self.dac.drive(slice_codes, v_read)
            if noise_pos is not None:
                g_pos = self.noise.apply_read_with(self._conductance_pos, noise_pos[:, cycle])
                if self._ir_drop_factors is not None:
                    g_pos = g_pos * self._ir_drop_factors
                currents = np.einsum("br,brc->bc", voltages, g_pos)
                if cfg.differential:
                    g_neg = self.noise.apply_read_with(
                        self._conductance_neg, noise_neg[:, cycle]
                    )
                    if self._ir_drop_factors is not None:
                        g_neg = g_neg * self._ir_drop_factors
                    currents = currents - np.einsum("br,brc->bc", voltages, g_neg)
            elif noise_col is not None:
                spread = np.sqrt(np.einsum("br,rc->bc", voltages * voltages, g_var))
                currents = np.einsum("br,rc->bc", voltages, g_mean) + spread * noise_col[:, cycle]
            else:
                currents = np.einsum("br,rc->bc", voltages, g_pos_eff)
                if cfg.differential:
                    currents = currents - np.einsum("br,rc->bc", voltages, g_neg_eff)
            if not cfg.differential:
                currents = currents - (np.sum(voltages, axis=1) * g_min)[:, None]
            if noise_cur is not None:
                currents = self.noise.perturb_current_with(currents, noise_cur[:, cycle])

            if quantize_output:
                if cfg.differential:
                    currents = self.adc.convert_signed(currents, full_scale)
                else:
                    currents = self.adc.convert(np.clip(currents, 0.0, None), full_scale)

            accumulated += currents * cycle_weight
            cycle_weight *= dac_levels
        return accumulated

    def ideal_matvec(self, inputs: np.ndarray) -> np.ndarray:
        """The mathematically exact ``inputs @ W`` for comparison in tests."""
        vector = as_1d_float_array(inputs, "inputs")
        return vector @ self.weights

    def _record_cycle_access(self, count: int = 1) -> None:
        cfg = self.config
        self.stats.array_activations += count
        self.stats.cell_reads += count * cfg.num_cells
        self.stats.adc_conversions += count * cfg.physical_cols
        self.stats.dac_conversions += count * cfg.rows

    # ------------------------------------------------------------------ #
    # per-access costs (aggregated by repro.arch)
    # ------------------------------------------------------------------ #
    def cycle_input_stage_s(self) -> float:
        """Input portion of one bit-serial cycle: DAC drive + settle + S&H sampling.

        This is the part of a cycle that a *double-buffered* activation
        buffer can hide: while the shared ADCs read out the sampled currents
        of cycle ``i``, the wordline DACs already drive cycle ``i + 1`` and a
        second sample-and-hold bank captures its bitline currents.
        """
        return self.dac.latency_s + self.device.read_latency_s() + self.sample_hold.latency_s

    def cycle_readout_s(self) -> float:
        """Readout portion of one bit-serial cycle: the column-muxed ADC scans."""
        return self.adc.latency_s * self.config.adc_share  # columns muxed onto shared ADCs

    def cycle_latency_s(self) -> float:
        """Latency of one serialized bit-serial cycle: DAC drive + settle + muxed ADC."""
        return self.cycle_input_stage_s() + self.cycle_readout_s()

    def overlapped_cycle_latency_s(self) -> float:
        """Steady-state cycle latency with double-buffered inputs.

        With two S&H banks the input stage of the next cycle overlaps the
        ADC readout of the current one, so the steady-state cycle interval
        is whichever stage is slower — never more than the serialized cycle.
        """
        return max(self.cycle_input_stage_s(), self.cycle_readout_s())

    def vmm_latency_s(self) -> float:
        """Latency of one full VMM (all bit-serial input cycles, serialized)."""
        return self.cycle_latency_s() * self.config.input_cycles

    def overlapped_vmm_latency_s(self) -> float:
        """Steady-state latency of one VMM whose input staging is double-buffered."""
        return self.overlapped_cycle_latency_s() * self.config.input_cycles

    def cycle_energy_j(self) -> float:
        """Energy of one bit-serial cycle (array + DACs + ADCs + S&H)."""
        cfg = self.config
        g_mid = 0.5 * (self.device.config.g_min_s + self.device.config.g_max_s)
        array_energy = float(
            np.sum(self.device.read_energy_j(np.full(cfg.num_cells, g_mid)))
        )
        dac_energy = cfg.rows * self.dac.energy_per_conversion_j
        adc_energy = cfg.physical_cols * self.adc.energy_per_conversion_j
        sh_energy = cfg.physical_cols * self.sample_hold.energy_per_sample_j
        return array_energy + dac_energy + adc_energy + sh_energy

    def vmm_energy_j(self) -> float:
        """Energy of one full VMM (all bit-serial input cycles)."""
        return self.cycle_energy_j() * self.config.input_cycles

    def programming_latency_s(self) -> float:
        """Latency of programming the full array (row-parallel writes)."""
        return self.device.write_latency_s() * self.config.rows

    def programming_energy_j(self) -> float:
        """Energy of programming the full array once."""
        return self.device.write_energy_j() * self.config.num_cells
