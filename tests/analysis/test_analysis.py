"""Tests for the analysis package (bit-width, accuracy, breakdown, efficiency, ablations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ablation import AblationSuite
from repro.analysis.accuracy import AccuracyAnalyzer
from repro.analysis.bitwidth import BitwidthAnalyzer
from repro.analysis.breakdown import LatencyBreakdownAnalyzer
from repro.analysis.efficiency import EfficiencyComparison
from repro.nn.softmax_models import FixedPointSoftmax, ReferenceSoftmax
from repro.utils.fixed_point import CNEWS_FORMAT, FixedPointFormat
from repro.workloads import CNEWS_PROFILE, COLA_PROFILE, DATASET_PROFILES, MRPC_PROFILE


class TestBitwidthAnalysis:
    """E4: the paper's per-dataset precision table."""

    def test_reproduces_paper_bitwidth_table(self):
        analyzer = BitwidthAnalyzer()
        results = {r.dataset: r for r in analyzer.analyze_all(DATASET_PROFILES)}
        assert (results["CNEWS"].integer_bits, results["CNEWS"].frac_bits) == (6, 2)
        assert (results["MRPC"].integer_bits, results["MRPC"].frac_bits) == (6, 3)
        assert (results["CoLA"].integer_bits, results["CoLA"].frac_bits) == (5, 2)
        assert results["CNEWS"].total_bits == 8
        assert results["MRPC"].total_bits == 9
        assert results["CoLA"].total_bits == 7

    def test_result_is_stable_across_seeds(self):
        for seed in (1, 2):
            result = BitwidthAnalyzer(seed=seed).analyze(MRPC_PROFILE)
            assert result.total_bits == 9

    def test_requirement_fmt_property(self):
        result = BitwidthAnalyzer(num_rows=64).analyze(COLA_PROFILE)
        assert result.fmt == FixedPointFormat(result.integer_bits, result.frac_bits)

    def test_tighter_budget_needs_more_bits(self):
        loose = BitwidthAnalyzer(kl_budget=1e-1, num_rows=64).analyze(CNEWS_PROFILE)
        tight = BitwidthAnalyzer(kl_budget=1e-5, num_rows=64).analyze(CNEWS_PROFILE)
        assert tight.frac_bits >= loose.frac_bits

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BitwidthAnalyzer(kl_budget=0)
        with pytest.raises(ValueError):
            BitwidthAnalyzer(num_rows=0)
        with pytest.raises(ValueError):
            BitwidthAnalyzer(range_coverage_percentile=10.0)


class TestAccuracyAnalyzer:
    def test_reference_softmax_has_zero_error(self):
        analyzer = AccuracyAnalyzer(num_rows=32)
        metrics = analyzer.fidelity(ReferenceSoftmax(), CNEWS_PROFILE, seq_len=32)
        assert metrics.mean_kl == pytest.approx(0.0, abs=1e-9)
        assert metrics.max_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_fixed_point_fidelity_improves_with_bits(self):
        analyzer = AccuracyAnalyzer(num_rows=32)
        coarse, fine = (
            analyzer.fidelity(FixedPointSoftmax(FixedPointFormat(6, frac)), CNEWS_PROFILE)
            for frac in (1, 4)
        )
        assert fine.mean_kl < coarse.mean_kl


class TestLatencyBreakdown:
    """E1: the introduction's softmax-share observation."""

    def test_share_monotonically_increases(self):
        rows = LatencyBreakdownAnalyzer().sweep_rows()
        shares = [row.softmax_share for row in rows]
        assert shares == sorted(shares)

    def test_crossover_at_512(self):
        analyzer = LatencyBreakdownAnalyzer()
        assert analyzer.crossover_length() == 512

    def test_share_at_512_is_majority(self):
        row = LatencyBreakdownAnalyzer().row_for(512)
        assert row.softmax_share > 0.5
        assert row.softmax_s > row.matmul_s

    def test_default_sweep_includes_paper_lengths(self):
        lengths = LatencyBreakdownAnalyzer().sweep
        assert 128 in lengths and 512 in lengths
        assert list(lengths) == sorted(lengths)

    def test_custom_sweep(self):
        analyzer = LatencyBreakdownAnalyzer(sweep=(64, 128))
        assert len(analyzer.sweep_rows()) == 2

    def test_format_table(self):
        text = LatencyBreakdownAnalyzer(sweep=(128,)).format_table()
        assert "128" in text and "%" in text


class TestEfficiencyComparison:
    """E6 / Fig. 3."""

    def test_star_wins_and_ratios_land_in_paper_regime(self):
        results = EfficiencyComparison().run()
        assert results.star_efficiency == pytest.approx(612.66, rel=0.25)
        assert results.gain_over_gpu == pytest.approx(30.63, rel=0.35)
        assert results.gain_over_pipelayer == pytest.approx(4.32, rel=0.35)
        assert results.gain_over_retransformer == pytest.approx(1.31, rel=0.25)

    def test_reports_cover_all_four_designs(self):
        comparison = EfficiencyComparison()
        names = {report.name for report in comparison.reports()}
        assert names == {"Titan RTX", "PipeLayer", "ReTransformer", "STAR"}

    def test_summary_keys(self):
        summary = EfficiencyComparison().run().summary()
        assert set(summary) == {
            "star_gops_per_watt",
            "gain_over_gpu",
            "gain_over_pipelayer",
            "gain_over_retransformer",
        }


class TestAblations:
    def test_pipeline_ablation_speedup_greater_than_one(self):
        rows = AblationSuite().pipeline_ablation((128, 256))
        assert all(row.speedup > 1.0 for row in rows)
        assert [row.seq_len for row in rows] == [128, 256]

    def test_precision_ablation_monotone_fidelity(self):
        rows = AblationSuite().precision_ablation(
            CNEWS_PROFILE, formats=((5, 1), (6, 3)), num_rows=6, seq_len=24
        )
        assert rows[0].mean_kl > rows[1].mean_kl
        assert rows[1].area_um2 >= rows[0].area_um2 * 0.5

    def test_noise_ablation_orders_by_severity(self):
        rows = AblationSuite().noise_ablation(
            CNEWS_PROFILE, CNEWS_FORMAT, num_rows=6, seq_len=24
        )
        labels = [row.label for row in rows]
        assert labels == ["ideal", "typical", "aggressive"]
        # noise perturbs individual outputs even when the aggregate KL barely moves
        assert rows[2].max_abs_error >= rows[0].max_abs_error
        # even aggressive noise keeps the distribution close (paper's premise)
        assert rows[2].max_abs_error < 0.2
