"""Energy ledger: named accumulation of energy, latency and area contributions.

Every engine model (STAR's softmax engine, the MatMul engine, the CMOS
baselines, the accelerator baselines) reports its costs by filling a ledger,
which keeps the bookkeeping uniform and lets the benchmark harness print
per-component breakdowns identical in structure to the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["EnergyLedger", "LedgerEntry"]


@dataclass
class LedgerEntry:
    """One named contribution to the ledger."""

    name: str
    energy_j: float = 0.0
    latency_s: float = 0.0
    area_um2: float = 0.0
    count: int = 0

    def add(self, energy_j: float = 0.0, latency_s: float = 0.0, count: int = 1) -> None:
        """Accumulate one more occurrence of this contribution."""
        self.energy_j += energy_j
        self.latency_s += latency_s
        self.count += count


@dataclass
class EnergyLedger:
    """Accumulates energy / latency / area by component name."""

    entries: dict[str, LedgerEntry] = field(default_factory=dict)

    def record(
        self,
        name: str,
        energy_j: float = 0.0,
        latency_s: float = 0.0,
        count: int = 1,
    ) -> None:
        """Add a dynamic (per-operation) contribution under ``name``."""
        entry = self.entries.setdefault(name, LedgerEntry(name=name))
        entry.add(energy_j=energy_j, latency_s=latency_s, count=count)

    def record_area(self, name: str, area_um2: float) -> None:
        """Register the (static) area of component ``name``.

        Area is idempotent per name: recording the same component twice keeps
        the larger figure rather than double counting, because the physical
        block exists once regardless of how many operations it performs.
        """
        entry = self.entries.setdefault(name, LedgerEntry(name=name))
        entry.area_um2 = max(entry.area_um2, area_um2)

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #
    @property
    def total_energy_j(self) -> float:
        """Sum of all recorded energies."""
        return sum(entry.energy_j for entry in self.entries.values())

    @property
    def total_latency_s(self) -> float:
        """Sum of all recorded latencies (serial execution assumption)."""
        return sum(entry.latency_s for entry in self.entries.values())

    @property
    def total_area_um2(self) -> float:
        """Sum of all registered areas."""
        return sum(entry.area_um2 for entry in self.entries.values())

    # ------------------------------------------------------------------ #
    # combination / reporting
    # ------------------------------------------------------------------ #
    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's entries into this one."""
        for name, entry in other.entries.items():
            self.record(
                name, energy_j=entry.energy_j, latency_s=entry.latency_s, count=entry.count
            )
            if entry.area_um2 > 0:
                self.record_area(name, entry.area_um2)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def breakdown(self) -> list[tuple[str, float, float, float]]:
        """(name, energy, latency, area) rows sorted by descending energy."""
        rows = [
            (entry.name, entry.energy_j, entry.latency_s, entry.area_um2)
            for entry in self.entries.values()
        ]
        return sorted(rows, key=lambda row: row[1], reverse=True)

    def format_table(self) -> str:
        """Human-readable per-component table (used by examples and benches)."""
        lines = [f"{'component':<32} {'energy (J)':>14} {'latency (s)':>14} {'area (um^2)':>14}"]
        for name, energy, latency, area in self.breakdown():
            lines.append(f"{name:<32} {energy:>14.4e} {latency:>14.4e} {area:>14.4e}")
        lines.append(
            f"{'TOTAL':<32} {self.total_energy_j:>14.4e} "
            f"{self.total_latency_s:>14.4e} {self.total_area_um2:>14.4e}"
        )
        return "\n".join(lines)
