"""E2 — Fig. 1 behaviour: the CAM/SUB crossbar finds x_max and subtracts.

Benchmarks the 512 x 18 CAM/SUB crossbar processing full-length score rows
and checks that the produced maxima/differences are exact on the
quantisation grid.
"""

from __future__ import annotations

import numpy as np

from repro.core.cam_sub import CamSubCrossbar
from repro.core.config import SoftmaxEngineConfig
from repro.utils.fixed_point import MRPC_FORMAT
from repro.workloads import CNEWS_PROFILE, AttentionScoreGenerator

from conftest import record


def test_bench_cam_sub_row_processing(benchmark):
    """Find-max + subtract over a 128-element attention-score row."""
    fmt = MRPC_FORMAT
    cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=fmt))
    scores = AttentionScoreGenerator(CNEWS_PROFILE, seed=0).rows(1, 128)

    result = benchmark(cam_sub.process_batch, scores)

    clipped = np.clip(scores, fmt.signed_min_value, fmt.signed_max_value)
    quantised = np.rint(clipped / fmt.resolution) * fmt.resolution
    assert result.max_values[0] == quantised.max()
    np.testing.assert_allclose(result.differences, quantised.max() - quantised, atol=1e-12)
    record(
        benchmark,
        crossbar_rows=cam_sub.config.cam_sub_rows,
        crossbar_physical_cols=2 * cam_sub.config.fmt.magnitude_bits,
        row_latency_ns=round(cam_sub.row_latency_s(128) * 1e9, 2),
        row_energy_pj=round(cam_sub.row_energy_j(128) * 1e12, 2),
        area_um2=round(cam_sub.area_um2(), 1),
    )


def test_bench_fig1_toy_example(benchmark):
    """The 4-input toy example of Fig. 1 (4 x 8 CAM/SUB crossbar workflow)."""
    from repro.utils.fixed_point import FixedPointFormat

    cam_sub = CamSubCrossbar(SoftmaxEngineConfig(fmt=FixedPointFormat(3, 1), cam_sub_rows=16, exp_rows=16))
    scores = np.array([[1.5, 3.0, -2.0, 0.5]])

    result = benchmark(cam_sub.process_batch, scores)

    assert result.max_values[0] == 3.0
    np.testing.assert_allclose(result.differences[0], [1.5, 0.0, 5.0, 2.5])
    record(benchmark, max_value=float(result.max_values[0]), max_row=int(result.max_rows[0]))
