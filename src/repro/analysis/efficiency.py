"""Computing-efficiency comparison across designs (the paper's Fig. 3).

Builds the four designs the paper compares — the Titan RTX GPU, PipeLayer,
ReTransformer and STAR — runs the same BERT-base workload through each of
their cost models and assembles a :class:`repro.arch.report.ComparisonTable`
whose efficiency ratios are the bars of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.report import ComparisonTable, CostReport
from repro.baselines.gpu import GPUModel
from repro.baselines.pipelayer import PipeLayerModel
from repro.baselines.retransformer import ReTransformerModel
from repro.core.accelerator import STARAccelerator
from repro.nn.bert import BertWorkload

__all__ = ["EfficiencyComparison", "Figure3Results"]


@dataclass(frozen=True)
class Figure3Results:
    """The quantities Fig. 3 reports."""

    table: ComparisonTable
    star_efficiency: float
    gain_over_gpu: float
    gain_over_pipelayer: float
    gain_over_retransformer: float

    def summary(self) -> dict[str, float]:
        """Flat dictionary used by the benchmark harness."""
        return {
            "star_gops_per_watt": self.star_efficiency,
            "gain_over_gpu": self.gain_over_gpu,
            "gain_over_pipelayer": self.gain_over_pipelayer,
            "gain_over_retransformer": self.gain_over_retransformer,
        }


class EfficiencyComparison:
    """Runs the Fig. 3 comparison on a configurable workload."""

    def __init__(
        self,
        workload: BertWorkload | None = None,
        gpu: GPUModel | None = None,
        pipelayer: PipeLayerModel | None = None,
        retransformer: ReTransformerModel | None = None,
        star: STARAccelerator | None = None,
    ) -> None:
        self.workload = workload or BertWorkload(seq_len=128)
        self.gpu = gpu or GPUModel()
        self.pipelayer = pipelayer or PipeLayerModel()
        self.retransformer = retransformer or ReTransformerModel()
        self.star = star or STARAccelerator()

    def reports(self) -> list[CostReport]:
        """Cost reports of all four designs on the shared workload."""
        return [
            self.gpu.cost_report(self.workload),
            self.pipelayer.cost_report(self.workload),
            self.retransformer.cost_report(self.workload),
            self.star.cost_report(self.workload),
        ]

    def run(self) -> Figure3Results:
        """Execute the comparison and compute the Fig. 3 ratios."""
        table = ComparisonTable(self.reports())
        star_name = self.star.name
        return Figure3Results(
            table=table,
            star_efficiency=table.get(star_name).computing_efficiency_gops_per_watt,
            gain_over_gpu=table.efficiency_gain(star_name, self.gpu.config.name),
            gain_over_pipelayer=table.efficiency_gain(star_name, self.pipelayer.name),
            gain_over_retransformer=table.efficiency_gain(star_name, self.retransformer.name),
        )
