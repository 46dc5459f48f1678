"""Tests for the comparison designs: CMOS softmax, Softermax, GPU, PipeLayer, ReTransformer."""

from __future__ import annotations

import pytest

from repro.baselines.cmos_softmax import CMOSSoftmaxConfig, CMOSSoftmaxUnit
from repro.baselines.gpu import GPUConfig, GPUModel, TITAN_RTX
from repro.baselines.pipelayer import PipeLayerConfig, PipeLayerModel
from repro.baselines.retransformer import ReTransformerConfig, ReTransformerModel
from repro.baselines.softermax import SoftermaxConfig, SoftermaxUnit
from repro.core.accelerator import STARAccelerator
from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.nn.bert import BertWorkload
from repro.utils.fixed_point import CNEWS_FORMAT


class TestCMOSSoftmax:
    def test_area_and_power_positive(self):
        unit = CMOSSoftmaxUnit()
        assert unit.area_um2 > 0
        assert unit.power_w > 0
        assert unit.area_mm2 == pytest.approx(unit.area_um2 * 1e-6)

    def test_row_latency_scales_with_passes(self):
        wide = CMOSSoftmaxUnit(CMOSSoftmaxConfig(parallel_lanes=128))
        narrow = CMOSSoftmaxUnit(CMOSSoftmaxConfig(parallel_lanes=32))
        assert narrow.row_latency_s() > wide.row_latency_s()

    def test_wider_datapath_costs_more(self):
        small = CMOSSoftmaxUnit(CMOSSoftmaxConfig(data_bits=8))
        large = CMOSSoftmaxUnit(CMOSSoftmaxConfig(data_bits=16))
        assert large.area_um2 > small.area_um2
        assert large.power_w > small.power_w

    def test_ledger_total_positive(self):
        ledger = CMOSSoftmaxUnit().row_ledger()
        assert ledger.total_energy_j > 0
        assert "exp units" in {entry.name for entry in ledger}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CMOSSoftmaxConfig(vector_length=1)
        with pytest.raises(ValueError):
            CMOSSoftmaxConfig(data_bits=2)


class TestSoftermax:
    def test_cheaper_than_cmos_baseline(self):
        baseline = CMOSSoftmaxUnit()
        softermax = SoftermaxUnit()
        assert softermax.area_um2 < baseline.area_um2
        assert softermax.power_w < baseline.power_w

    def test_table1_ordering_softermax_between_baseline_and_star(self):
        """Table I: STAR softmax < Softermax < CMOS baseline in area and power."""
        baseline = CMOSSoftmaxUnit()
        softermax = SoftermaxUnit()
        star = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        assert star.area_um2() < softermax.area_um2 < baseline.area_um2
        assert star.power_w(128) < softermax.power_w < baseline.power_w

    def test_table1_star_ratios_in_paper_regime(self):
        baseline = CMOSSoftmaxUnit()
        star = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
        area_ratio = star.area_um2() / baseline.area_um2
        power_ratio = star.power_w(128) / baseline.power_w
        # paper: 0.06x area, 0.05x power; allow a generous modelling band
        assert area_ratio < 0.15
        assert power_ratio < 0.10

    def test_row_energy_positive(self):
        unit = SoftermaxUnit()
        assert unit.row_energy_j() > 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SoftermaxConfig(data_bits=2)
        with pytest.raises(ValueError):
            SoftermaxConfig(parallel_lanes=0)


class TestGPUModel:
    def test_softmax_share_grows_with_sequence_length(self):
        gpu = GPUModel()
        shares = [
            gpu.latency_breakdown(BertWorkload(seq_len=length)).softmax_share
            for length in (64, 128, 256, 512, 1024)
        ]
        assert shares == sorted(shares)

    def test_softmax_exceeds_matmul_at_512_but_not_256(self):
        """The paper's introductory observation."""
        gpu = GPUModel()
        assert gpu.latency_breakdown(BertWorkload(seq_len=512)).softmax_share > 0.5
        assert gpu.latency_breakdown(BertWorkload(seq_len=256)).softmax_share < 0.5

    def test_share_at_512_near_paper_value(self):
        share = GPUModel().latency_breakdown(BertWorkload(seq_len=512)).softmax_share
        assert share == pytest.approx(0.592, abs=0.08)

    def test_latency_increases_with_length(self):
        gpu = GPUModel()
        assert gpu.total_latency_s(BertWorkload(seq_len=512)) > gpu.total_latency_s(
            BertWorkload(seq_len=128)
        )

    def test_cost_report_efficiency_regime(self):
        report = GPUModel().cost_report(BertWorkload(seq_len=128))
        assert 5 < report.computing_efficiency_gops_per_watt < 60
        assert report.power_w == TITAN_RTX.board_power_w

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GPUConfig(tensor_core_tflops=0)
        with pytest.raises(ValueError):
            GPUConfig(matmul_kernels_per_layer=0)


class TestAcceleratorBaselines:
    def test_fig3_ordering(self):
        """Fig. 3: GPU < PipeLayer < ReTransformer < STAR in GOPs/s/W."""
        workload = BertWorkload(seq_len=128)
        gpu = GPUModel().cost_report(workload).computing_efficiency_gops_per_watt
        pipelayer = PipeLayerModel().cost_report(workload).computing_efficiency_gops_per_watt
        retransformer = (
            ReTransformerModel().cost_report(workload).computing_efficiency_gops_per_watt
        )
        star = STARAccelerator().cost_report(workload).computing_efficiency_gops_per_watt
        assert gpu < pipelayer < retransformer < star

    def test_fig3_gain_magnitudes(self):
        workload = BertWorkload(seq_len=128)
        star = STARAccelerator().cost_report(workload).computing_efficiency_gops_per_watt
        gpu = GPUModel().cost_report(workload).computing_efficiency_gops_per_watt
        pipelayer = PipeLayerModel().cost_report(workload).computing_efficiency_gops_per_watt
        retransformer = (
            ReTransformerModel().cost_report(workload).computing_efficiency_gops_per_watt
        )
        assert star / gpu == pytest.approx(30.63, rel=0.35)
        assert star / pipelayer == pytest.approx(4.32, rel=0.35)
        assert star / retransformer == pytest.approx(1.31, rel=0.25)

    def test_pipelayer_pays_operand_write_cost(self):
        workload = BertWorkload(seq_len=128)
        model = PipeLayerModel()
        assert model.operand_write_latency_s(workload) > 0
        no_rewrite = ReTransformerModel()
        assert model.inference_latency_s(workload) > no_rewrite.inference_latency_s(workload)

    def test_retransformer_slower_than_star(self):
        workload = BertWorkload(seq_len=128)
        assert ReTransformerModel().inference_latency_s(workload) > STARAccelerator().inference_latency_s(
            workload
        )

    def test_power_and_area_positive(self):
        for model in (PipeLayerModel(), ReTransformerModel()):
            assert model.power_w() > 0
            assert model.area_mm2() > 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PipeLayerConfig(write_verify_pulses=0)
        with pytest.raises(ValueError):
            ReTransformerConfig(num_softmax_units=0)
