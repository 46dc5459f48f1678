"""Analyses backing each table and figure: bit-width, accuracy, efficiency, ablations."""

from repro.analysis.ablation import (
    AblationSuite,
    NoiseAblationRow,
    PipelineAblationRow,
    PrecisionAblationRow,
)
from repro.analysis.accuracy import AccuracyAnalyzer, FidelityMetrics
from repro.analysis.bitwidth import BitwidthAnalyzer, BitwidthRequirement
from repro.analysis.breakdown import (
    BreakdownRow,
    LatencyBreakdownAnalyzer,
    StarScheduleAnalyzer,
    StarScheduleRow,
)
from repro.analysis.efficiency import EfficiencyComparison, Figure3Results
from repro.analysis.serving import (
    MD1ValidationRow,
    ServingAnalyzer,
    ServingSweepRow,
    SLOServingAnalyzer,
    SLOSweepRow,
)

__all__ = [
    "BitwidthAnalyzer",
    "BitwidthRequirement",
    "AccuracyAnalyzer",
    "FidelityMetrics",
    "LatencyBreakdownAnalyzer",
    "BreakdownRow",
    "StarScheduleAnalyzer",
    "StarScheduleRow",
    "EfficiencyComparison",
    "Figure3Results",
    "AblationSuite",
    "PipelineAblationRow",
    "PrecisionAblationRow",
    "NoiseAblationRow",
    "ServingAnalyzer",
    "ServingSweepRow",
    "MD1ValidationRow",
    "SLOServingAnalyzer",
    "SLOSweepRow",
]
