"""RRAM content-addressable memory (CAM) crossbar.

A CAM crossbar stores one binary codeword per row using complementary cell
pairs (two RRAM cells per bit, as in a resistive TCAM).  A search applies the
query bits and their complements to the search lines; only the row whose
stored word matches the query keeps its matchline current below the sense
threshold, so the matchline sense amplifiers output a one-hot match vector.

STAR uses CAM crossbars in two places:

* the **CAM/SUB crossbar** (512 x 18) that locates ``x_max`` among the input
  scores before subtraction (Fig. 1 of the paper);
* the **CAM crossbar of the exponential unit** (256 x 18) that maps each
  ``x_i - x_max`` magnitude to a row index whose LUT entry is the
  pre-computed exponential (Fig. 2).

Both store *every representable fixed-point level* rather than arbitrary
data, which is why exact-match search is sufficient.

Searches run over whole ``(num_rows, n)`` query blocks without
materializing match vectors: :meth:`CAMCrossbar.search_max_codes` returns
each row's best OR-merged hit and :meth:`CAMCrossbar.search_histograms` the
per-row match counts.  Search errors (``search_error_rate``) are sampled in
the max search from per-level match counts, exact in law to flipping every
match decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rram.converters import SenseAmplifier
from repro.rram.device import RRAMDeviceConfig
from repro.utils.validation import require_in_range, require_positive

__all__ = ["CAMConfig", "CAMCrossbar"]


@dataclass(frozen=True)
class CAMConfig:
    """Geometry and behaviour of a CAM crossbar.

    Attributes
    ----------
    rows:
        Number of stored codewords (one per wordline / matchline).
    bits:
        Width of each codeword; each bit occupies two complementary cells,
        so the physical column count is ``2 * bits``.
    device:
        RRAM cell parameters (used for energy accounting).
    search_error_rate:
        Probability that a search of one row flips its match decision,
        modelling sense-margin failures under device noise.  0 disables it.
    matchline_capacitance_f:
        Capacitance of one matchline (wire plus the drains of its cells);
        every search precharges all matchlines, which dominates CAM search
        energy.
    seed:
        Seed for the error-injection random stream.
    """

    rows: int = 256
    bits: int = 9
    device: RRAMDeviceConfig = field(default_factory=RRAMDeviceConfig)
    search_error_rate: float = 0.0
    matchline_capacitance_f: float = 50.0e-15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        require_in_range(self.search_error_rate, 0.0, 1.0, "search_error_rate")
        require_positive(self.matchline_capacitance_f, "matchline_capacitance_f")

    @property
    def physical_cols(self) -> int:
        """Physical bitlines: two complementary cells per stored bit."""
        return 2 * self.bits

    @property
    def num_cells(self) -> int:
        """Total RRAM cells in the CAM array."""
        return self.rows * self.physical_cols

    @property
    def capacity(self) -> int:
        """Number of distinct codewords the width can represent."""
        return 1 << self.bits


class CAMCrossbar:
    """Exact-match CAM built from complementary RRAM cell pairs."""

    def __init__(self, config: CAMConfig | None = None) -> None:
        self.config = config or CAMConfig()
        self.sense_amp = SenseAmplifier()
        self._rng = np.random.default_rng(self.config.seed)
        self._stored_codes: np.ndarray | None = None
        self._stored_mask: np.ndarray | None = None
        self._contiguous_count: int | None = None

    # ------------------------------------------------------------------ #
    # programming
    # ------------------------------------------------------------------ #
    @property
    def is_programmed(self) -> bool:
        """Whether codewords have been written."""
        return self._stored_codes is not None

    @property
    def stored_codes(self) -> np.ndarray:
        """The integer codewords stored per row (top to bottom)."""
        if self._stored_codes is None:
            raise RuntimeError("CAM has not been programmed yet")
        return self._stored_codes.copy()

    def program_codes(self, codes: np.ndarray) -> None:
        """Store one integer codeword per row.

        Parameters
        ----------
        codes:
            Array of length ``<= rows`` holding non-negative integers below
            ``2 ** bits``.  Rows beyond ``len(codes)`` are left unused and
            never match.
        """
        arr = np.asarray(codes, dtype=np.int64).ravel()
        cfg = self.config
        if arr.size > cfg.rows:
            raise ValueError(f"{arr.size} codewords exceed the {cfg.rows} CAM rows")
        if arr.size == 0:
            raise ValueError("cannot program an empty codeword list")
        if np.any(arr < 0) or np.any(arr >= cfg.capacity):
            raise ValueError(f"codewords must lie in [0, {cfg.capacity - 1}]")
        self._stored_codes = arr.copy()
        # membership table for the batched search
        self._stored_mask = np.zeros(cfg.capacity, dtype=bool)
        self._stored_mask[arr] = True
        # both STAR CAMs store the contiguous code set {0..k-1}, which lets
        # the batched search skip the membership gather entirely
        count = int(arr.size)
        self._contiguous_count = count if bool(self._stored_mask[:count].all()) else None

    # ------------------------------------------------------------------ #
    # batched search
    # ------------------------------------------------------------------ #
    def _batched_queries(self, queries: np.ndarray, name: str) -> np.ndarray:
        if not self.is_programmed:
            raise RuntimeError("CAM must be programmed before searching")
        block = np.asarray(queries, dtype=np.int64)
        if block.ndim != 2:
            raise ValueError(f"{name} expects a 2D (num_rows, n) query block")
        if block.size and np.any(block < 0):
            raise ValueError("queries must be non-negative codes")
        return block

    def search_max_codes(self, queries: np.ndarray, *, assume_hits: bool = False) -> np.ndarray:
        """Largest stored code matched per row of a ``(num_rows, n)`` block.

        Equivalent to searching every query of a row, OR-merging the match
        vectors and picking the best hit — but computed with one ``np.max``
        instead of materializing ``n x rows`` match matrices.  Queries at or
        beyond ``capacity`` never match (their codeword does not fit the
        search lines); rows where nothing matched return ``-1``.

        With ``assume_hits`` the caller guarantees every query matches a
        stored codeword (true for the CAM/SUB crossbar, which stores every
        representable level), so validation and miss masking are skipped and
        the search collapses to one ``np.max`` over the block.

        A non-zero ``search_error_rate`` flips match decisions; the merged
        lines are then sampled per stored level (:meth:`_sampled_max_codes`).
        """
        if assume_hits:
            block = np.asarray(queries)
            best = block.max(axis=-1)
        else:
            block = self._batched_queries(queries, "search_max_codes")
            if block.size == 0:
                return np.full(block.shape[0], -1, dtype=np.int64)
            contiguous = self._contiguous_count
            if contiguous is not None:
                # stored set is {0..contiguous-1}: a query matches iff below it
                best = np.where(block < contiguous, block, np.int64(-1)).max(axis=-1)
            else:
                safe = np.minimum(block, self.config.capacity - 1)
                hit = self._stored_mask[safe] & (block < self.config.capacity)
                best = np.where(hit, block, -1).max(axis=-1)
        if self.config.search_error_rate > 0.0:
            return self._sampled_max_codes(block, best)
        return best

    def _sampled_max_codes(self, block: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Max search with every (query, stored level) decision flipped at rate p.

        After OR-merging a row's ``n`` match vectors, stored level ``c`` stays
        dark only if each of the ``k_c`` queries holding ``c`` flipped off and
        none of the other ``n - k_c`` flipped on: probability
        ``p^k_c (1 - p)^(n - k_c)``, independently across levels.  One
        uniform per (row, stored level) decides each merged line and the
        highest lit level wins; when every line stays dark the controller
        re-searches and gets the true maximum ``best``.  Exact in law to
        flipping all ``n x levels`` decisions, with ``levels`` draws per row.
        """
        p = self.config.search_error_rate
        n = block.shape[-1]
        num_codes = int(self._stored_codes.max()) + 1
        k = np.arange(n + 1)
        dark = (p**k * (1.0 - p) ** (n - k))[self._code_counts(block, num_codes)]
        lit = self._rng.random(dark.shape) >= dark
        if self._contiguous_count is None:
            lit &= self._stored_mask[:num_codes]
        top = np.where(lit, np.arange(num_codes), -1).max(axis=-1)
        return np.where(top >= 0, top, best)

    def search_histograms(self, queries: np.ndarray, num_codes: int) -> np.ndarray:
        """Per-row histogram of matched codes below ``num_codes``.

        For each row of a ``(num_rows, n)`` query block, counts how many
        queries matched each stored code in ``[0, num_codes)`` — exactly the
        counter-bank state after the row's searches — using one offset
        ``np.bincount`` over the whole block.  Requires error-free searches.
        """
        if num_codes < 1:
            raise ValueError(f"num_codes must be >= 1, got {num_codes}")
        if self.config.search_error_rate > 0.0:
            raise RuntimeError(
                "search_histograms requires search_error_rate == 0; only "
                "search_max_codes samples matchline flips"
            )
        return self._code_counts(self._batched_queries(queries, "search_histograms"), num_codes)

    def _code_counts(self, block: np.ndarray, num_codes: int) -> np.ndarray:
        """Matches per row and stored code below ``num_codes`` (no validation)."""
        num_rows = block.shape[0]
        if block.size == 0:
            return np.zeros((num_rows, num_codes), dtype=np.int64)
        contiguous = self._contiguous_count
        if contiguous is not None:
            # stored set is {0..contiguous-1}: fold everything not counted
            # (misses and codes beyond num_codes) into one sentinel bucket and
            # histogram the whole block with a single offset bincount
            cutoff = min(num_codes, contiguous)
            idx = np.minimum(block, cutoff, dtype=np.int64)
            idx += np.arange(num_rows, dtype=np.int64)[:, None] * (cutoff + 1)
            counts = np.bincount(idx.ravel(), minlength=num_rows * (cutoff + 1))
            counts = counts.reshape(num_rows, cutoff + 1)[:, :cutoff]
            if cutoff == num_codes:
                return counts
            padded = np.zeros((num_rows, num_codes), dtype=counts.dtype)
            padded[:, :cutoff] = counts
            return padded
        safe = np.minimum(block, self.config.capacity - 1)
        # queries at or beyond capacity can never match, even when num_codes
        # exceeds the code space
        counted = self._stored_mask[safe] & (block < min(num_codes, self.config.capacity))
        row_index = np.broadcast_to(
            np.arange(num_rows, dtype=np.int64)[:, None], block.shape
        )
        flat = row_index[counted] * num_codes + block[counted]
        return np.bincount(flat, minlength=num_rows * num_codes).reshape(
            num_rows, num_codes
        )

    # ------------------------------------------------------------------ #
    # per-access costs
    # ------------------------------------------------------------------ #
    def search_latency_s(self) -> float:
        """Latency of one parallel search: precharge + discharge + sense."""
        precharge = 0.5e-9
        discharge = self.config.device.read_pulse_s
        return precharge + discharge + self.sense_amp.latency_s

    def search_energy_j(self) -> float:
        """Energy of one parallel search over all rows.

        Three contributions: precharging every matchline, the discharge
        current through (on average half) the cells while the search lines
        are driven, and the matchline sense amplifiers.
        """
        cfg = self.config
        v = cfg.device.read_voltage_v
        precharge_energy = cfg.rows * cfg.matchline_capacitance_f * v * v
        # on average half the cells conduct during a search
        g_mid = 0.5 * (1.0 / cfg.device.r_on_ohm + 1.0 / cfg.device.r_off_ohm)
        cell_energy = 0.5 * cfg.num_cells * v * v * g_mid * cfg.device.read_pulse_s
        sense_energy = cfg.rows * self.sense_amp.energy_per_sense_j
        return precharge_energy + cell_energy + sense_energy

    def area_um2(self, cell_area_um2: float = 0.2) -> float:
        """Array area: cells plus one sense amplifier per matchline."""
        require_positive(cell_area_um2, "cell_area_um2")
        return self.config.num_cells * cell_area_um2 + self.config.rows * self.sense_amp.area_um2
