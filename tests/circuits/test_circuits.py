"""Tests for repro.circuits: components, technology scaling and the energy ledger."""

from __future__ import annotations

import pytest

from repro.circuits.components import (
    Adder,
    Comparator,
    Counter,
    Divider,
    ExponentialUnit,
    MaxComparatorTree,
    Multiplier,
    OrGateArray,
    Register,
    SRAMBuffer,
    Subtractor,
)
from repro.circuits.energy import EnergyLedger
from repro.circuits.technology import DEFAULT_TECHNOLOGY, REFERENCE_NODE_NM, TechnologyNode


class TestTechnology:
    def test_reference_node_is_identity(self):
        tech = TechnologyNode(feature_nm=REFERENCE_NODE_NM)
        assert tech.area_scale == pytest.approx(1.0)
        assert tech.power_scale == pytest.approx(1.0)
        assert tech.scale_area_um2(100.0) == pytest.approx(100.0)

    def test_smaller_node_shrinks_area_quadratically(self):
        tech = TechnologyNode(feature_nm=16.0)
        assert tech.area_scale == pytest.approx(0.25)
        assert tech.power_scale == pytest.approx(0.5)

    def test_cycle_time(self):
        assert TechnologyNode(clock_hz=2e9).cycle_time_s == pytest.approx(0.5e-9)

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            TechnologyNode(feature_nm=0)


class TestComponents:
    @pytest.mark.parametrize(
        "component",
        [Adder, Subtractor, Comparator, Register, Counter, Divider],
    )
    def test_linear_components_scale_with_bits(self, component):
        small = component.cost(8)
        large = component.cost(16)
        assert large.area_um2 == pytest.approx(2 * small.area_um2)
        assert large.power_w == pytest.approx(2 * small.power_w)
        assert small.area_um2 > 0 and small.power_w > 0

    def test_divider_latency_is_bit_serial(self):
        assert Divider.cost(16).latency_s == pytest.approx(16 * DEFAULT_TECHNOLOGY.cycle_time_s)

    def test_multiplier_scales_with_product_of_widths(self):
        base = Multiplier.cost(8, 8)
        wide = Multiplier.cost(16, 8)
        square = Multiplier.cost(16, 16)
        assert wide.area_um2 == pytest.approx(2 * base.area_um2)
        assert square.area_um2 == pytest.approx(4 * base.area_um2)

    def test_exponential_unit_is_much_bigger_than_adder(self):
        exp = ExponentialUnit.cost(16)
        add = Adder.cost(16)
        assert exp.area_um2 > 10 * add.area_um2
        assert exp.power_w > add.power_w

    def test_max_tree_uses_n_minus_one_comparators(self):
        tree_4 = MaxComparatorTree.cost(4, 8)
        tree_8 = MaxComparatorTree.cost(8, 8)
        assert tree_8.area_um2 / tree_4.area_um2 == pytest.approx(7 / 3)

    def test_max_tree_latency_is_logarithmic(self):
        cycle = DEFAULT_TECHNOLOGY.cycle_time_s
        assert MaxComparatorTree.cost(128, 8).latency_s == pytest.approx(7 * cycle)

    def test_or_gate_array(self):
        cost = OrGateArray.cost(512)
        assert cost.area_um2 > 0
        with pytest.raises(ValueError):
            OrGateArray.cost(0)

    def test_sram_scales_with_bits(self):
        small = SRAMBuffer.cost(1024)
        large = SRAMBuffer.cost(4096)
        assert large.area_um2 > 3 * small.area_um2

    def test_scaled_multiplies_area_and_power_not_latency(self):
        base = Adder.cost(8)
        scaled = base.scaled(4)
        assert scaled.area_um2 == pytest.approx(4 * base.area_um2)
        assert scaled.power_w == pytest.approx(4 * base.power_w)
        assert scaled.latency_s == base.latency_s
        with pytest.raises(ValueError):
            base.scaled(0)

    def test_invalid_widths_raise(self):
        with pytest.raises(ValueError):
            Adder.cost(0)
        with pytest.raises(ValueError):
            Multiplier.cost(0, 4)
        with pytest.raises(ValueError):
            MaxComparatorTree.cost(1, 8)


class TestEnergyLedger:
    def test_record_and_totals(self):
        ledger = EnergyLedger()
        ledger.record("a", energy_j=1e-9, latency_s=1e-6)
        ledger.record("a", energy_j=1e-9, latency_s=1e-6)
        ledger.record("b", energy_j=5e-10, latency_s=2e-6)
        assert ledger.total_energy_j == pytest.approx(2.5e-9)
        assert ledger.total_latency_s == pytest.approx(4e-6)
        assert len(ledger) == 2

    def test_area_is_idempotent_per_component(self):
        ledger = EnergyLedger()
        ledger.record_area("block", 100.0)
        ledger.record_area("block", 100.0)
        assert ledger.total_area_um2 == pytest.approx(100.0)

    def test_merge(self):
        a = EnergyLedger()
        a.record("x", energy_j=1.0)
        b = EnergyLedger()
        b.record("x", energy_j=2.0)
        b.record("y", energy_j=3.0)
        b.record_area("y", 50.0)
        a.merge(b)
        assert a.total_energy_j == pytest.approx(6.0)
        assert a.entries["y"].area_um2 == pytest.approx(50.0)

    def test_breakdown_sorted_by_energy(self):
        ledger = EnergyLedger()
        ledger.record("small", energy_j=1.0)
        ledger.record("big", energy_j=10.0)
        rows = ledger.breakdown()
        assert rows[0][0] == "big"

    def test_format_table_contains_total(self):
        ledger = EnergyLedger()
        ledger.record("x", energy_j=1e-9, latency_s=1e-9)
        table = ledger.format_table()
        assert "TOTAL" in table
        assert "x" in table
