"""Parameter-sweep descriptors used by the benchmark harness.

Each experiment in the paper is a sweep over one axis (sequence length for
the latency-breakdown observation, bit-width for the precision analysis,
design for the efficiency comparison).  The descriptors here keep the sweep
points in one place so examples, tests and benchmarks report the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "SequenceLengthSweep",
    "BitwidthSweep",
    "INTRO_SEQUENCE_SWEEP",
    "PRECISION_SWEEP",
]


@dataclass(frozen=True)
class SequenceLengthSweep:
    """Sweep over input sequence lengths for a fixed model."""

    lengths: tuple[int, ...] = (64, 128, 256, 384, 512, 768, 1024)
    batch_size: int = 1

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("a sequence-length sweep needs at least one point")
        if any(length < 1 for length in self.lengths):
            raise ValueError(f"sequence lengths must be positive, got {self.lengths}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.lengths)

    def __len__(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class BitwidthSweep:
    """Sweep over softmax fixed-point bit-widths (integer, fractional) pairs."""

    formats: tuple[tuple[int, int], ...] = (
        (4, 1),
        (5, 1),
        (5, 2),
        (6, 2),
        (6, 3),
        (6, 4),
        (7, 4),
    )

    def __post_init__(self) -> None:
        if not self.formats:
            raise ValueError("a bit-width sweep needs at least one point")
        for integer_bits, frac_bits in self.formats:
            if integer_bits < 1 or frac_bits < 0:
                raise ValueError(
                    f"invalid format ({integer_bits}, {frac_bits}) in bit-width sweep"
                )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.formats)

    def __len__(self) -> int:
        return len(self.formats)

    def total_bits(self) -> tuple[int, ...]:
        """Total bit count of each sweep point."""
        return tuple(integer + frac for integer, frac in self.formats)


# The sweep the intro observation (E1) uses: softmax share vs sequence length.
INTRO_SEQUENCE_SWEEP = SequenceLengthSweep()

# The sweep the precision ablation (E8) uses.
PRECISION_SWEEP = BitwidthSweep()
