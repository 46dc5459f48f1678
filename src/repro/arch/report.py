"""Cost reports and cross-design comparison tables.

A :class:`CostReport` is the common currency every engine and baseline model
produces: area, power, latency, energy and the operation count of the
workload it executed.  From it the computing efficiency in GOPs/s/W — the
metric of the paper's Fig. 3 — falls out directly, and
:class:`ComparisonTable` renders the side-by-side ratios that Table I and
Fig. 3 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.utils.units import GIGA, format_si
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["CostReport", "ComparisonTable"]


@dataclass(frozen=True)
class CostReport:
    """Area / power / timing summary of one design executing one workload.

    Attributes
    ----------
    name:
        Design label ("STAR", "ReTransformer", "GPU", ...).
    area_mm2:
        Silicon area of the computing unit.
    power_w:
        Average power while executing the workload.
    latency_s:
        End-to-end execution latency of the workload.
    operations:
        Number of primitive operations (MAC counted as 2 ops, following the
        GOPs convention of the paper) in the workload.
    energy_j:
        Total energy; defaults to ``power_w * latency_s`` when omitted.
    """

    name: str
    area_mm2: float
    power_w: float
    latency_s: float
    operations: float
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.area_mm2, "area_mm2")
        require_positive(self.power_w, "power_w")
        require_positive(self.latency_s, "latency_s")
        require_positive(self.operations, "operations")
        require_non_negative(self.energy_j, "energy_j")
        if self.energy_j == 0.0:
            object.__setattr__(self, "energy_j", self.power_w * self.latency_s)

    @property
    def throughput_ops(self) -> float:
        """Operations per second."""
        return self.operations / self.latency_s

    @property
    def throughput_gops(self) -> float:
        """Throughput in GOPs/s."""
        return self.throughput_ops / GIGA

    @property
    def computing_efficiency_gops_per_watt(self) -> float:
        """GOPs/s/W — the metric of the paper's Fig. 3."""
        return self.throughput_gops / self.power_w

    @property
    def energy_per_op_j(self) -> float:
        """Energy per primitive operation."""
        return self.energy_j / self.operations

    def summary(self) -> dict[str, float]:
        """Dictionary form used by the benchmark harness."""
        return {
            "area_mm2": self.area_mm2,
            "power_w": self.power_w,
            "latency_s": self.latency_s,
            "energy_j": self.energy_j,
            "operations": self.operations,
            "throughput_gops": self.throughput_gops,
            "efficiency_gops_per_watt": self.computing_efficiency_gops_per_watt,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: area={self.area_mm2:.4f} mm^2, power={format_si(self.power_w, 'W')}, "
            f"latency={format_si(self.latency_s, 's')}, "
            f"efficiency={self.computing_efficiency_gops_per_watt:.2f} GOPs/s/W"
        )


class ComparisonTable:
    """Ratio table between one reference design and several alternatives."""

    def __init__(self, reports: Iterable[CostReport]) -> None:
        self._reports = list(reports)
        if not self._reports:
            raise ValueError("a comparison needs at least one report")
        names = [report.name for report in self._reports]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design names in comparison: {names}")

    @property
    def reports(self) -> list[CostReport]:
        """All reports in insertion order."""
        return list(self._reports)

    def get(self, name: str) -> CostReport:
        """Report for the design called ``name``."""
        for report in self._reports:
            if report.name == name:
                return report
        raise KeyError(f"no design named {name!r}; have {[r.name for r in self._reports]}")

    def ratio(self, metric: str, design: str, reference: str) -> float:
        """``metric(design) / metric(reference)`` for any CostReport attribute."""
        design_value = getattr(self.get(design), metric)
        reference_value = getattr(self.get(reference), metric)
        if reference_value == 0:
            raise ZeroDivisionError(f"reference metric {metric} is zero for {reference}")
        return design_value / reference_value

    def area_ratio(self, design: str, reference: str) -> float:
        """Area of ``design`` relative to ``reference`` (Table I convention)."""
        return self.ratio("area_mm2", design, reference)

    def power_ratio(self, design: str, reference: str) -> float:
        """Power of ``design`` relative to ``reference`` (Table I convention)."""
        return self.ratio("power_w", design, reference)

    def efficiency_gain(self, design: str, reference: str) -> float:
        """Computing-efficiency improvement of ``design`` over ``reference`` (Fig. 3)."""
        return self.ratio("computing_efficiency_gops_per_watt", design, reference)

    def format_table(self, reference: str | None = None) -> str:
        """Printable table; ratios are relative to ``reference`` when given."""
        header = (
            f"{'design':<18} {'area (mm^2)':>12} {'power (W)':>12} "
            f"{'latency (s)':>12} {'GOPs/s/W':>12}"
        )
        lines = [header]
        for report in self._reports:
            lines.append(
                f"{report.name:<18} {report.area_mm2:>12.4f} {report.power_w:>12.4f} "
                f"{report.latency_s:>12.3e} "
                f"{report.computing_efficiency_gops_per_watt:>12.2f}"
            )
        if reference is not None:
            lines.append("")
            lines.append(f"ratios vs {reference}:")
            for report in self._reports:
                if report.name == reference:
                    continue
                lines.append(
                    f"  {report.name:<16} area x{self.area_ratio(report.name, reference):.3f}  "
                    f"power x{self.power_ratio(report.name, reference):.3f}  "
                    f"efficiency x{self.efficiency_gain(report.name, reference):.2f}"
                )
        return "\n".join(lines)
