"""Quickstart: simulate STAR's RRAM softmax engine on a row of attention scores.

Run with:  python examples/quickstart.py

The script builds the 8-bit (CNEWS) softmax engine exactly as Section II of
the paper describes — CAM/SUB crossbar, CAM+LUT exponential unit, counters,
VMM crossbar and divider — pushes one row of attention scores through it,
compares the result against the exact floating-point softmax, and prints the
engine's area / power / latency figures used in Table I.
"""

from __future__ import annotations

import numpy as np

from repro.core import RRAMSoftmaxEngine, SoftmaxEngineConfig
from repro.nn import softmax as exact_softmax
from repro.utils import CNEWS_FORMAT, format_si
from repro.workloads import AttentionScoreGenerator, CNEWS_PROFILE


def main() -> None:
    # 1. build the engine with the paper's 8-bit CNEWS format (6 int + 2 frac)
    engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    print(f"Softmax engine configured for format {engine.fmt} "
          f"({engine.fmt.total_bits}-bit, resolution {engine.fmt.resolution})")

    # 2. generate one row of synthetic CNEWS-like attention scores
    generator = AttentionScoreGenerator(CNEWS_PROFILE, seed=0)
    scores = generator.rows(1, 128)[0]
    print(f"\nInput scores: {scores.size} values in [{scores.min():.2f}, {scores.max():.2f}]")

    # 3. run the crossbar-level simulation stage by stage on a one-row block
    #    (engine.softmax_batch chains exactly these three calls)
    cam = engine.cam_sub.process_batch(scores[None, :])
    exp = engine.exponential.process_batch(cam.difference_codes)
    probabilities = engine.divider.divide_batch(exp.exponentials, exp.denominators)[0]
    print(f"x_max found by the CAM search          : {cam.max_values[0]:+.2f} "
          f"(input {np.argmin(cam.difference_codes[0])}, CAM row {cam.max_rows[0]})")
    print(f"denominator from the VMM crossbar      : {exp.denominators[0]:.4f}")
    print(f"largest probability                    : {probabilities.max():.4f}")

    # 4. compare with the exact softmax
    exact = exact_softmax(scores)
    error = np.abs(probabilities - exact)
    print("\nFidelity vs exact floating-point softmax")
    print(f"  max  |error| : {error.max():.5f}")
    print(f"  mean |error| : {error.mean():.6f}")
    print(f"  top-1 match  : {np.argmax(probabilities) == np.argmax(exact)}")

    # 5. the hardware cost figures behind Table I
    print("\nEngine cost model (Table I inputs)")
    print(f"  area    : {engine.area_um2():.0f} um^2 ({engine.area_mm2():.4f} mm^2)")
    print(f"  power   : {format_si(engine.power_w(128), 'W')}")
    print(f"  row latency ({scores.size} elements): {format_si(engine.row_latency_s(128), 's')}")
    print(f"  row energy                     : {format_si(engine.row_energy_j(128), 'J')}")

    print("\nPer-component breakdown for one row:")
    print(engine.row_ledger(128).format_table())


if __name__ == "__main__":
    main()
