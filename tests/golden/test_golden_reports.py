"""Golden regression tests for the experiment-runner reports.

Every experiment report (one per id in
:data:`repro.experiments.EXPERIMENTS`, E1 latency breakdown through E14
topology-aware routing) is compared line-for-line against a committed
golden file.  One more golden pins a composed serving run — diurnal
traffic with faults, retries, admission control, EDF, the autoscaler and
a shortest-expected-delay router with stealing — every hook of the one
serving loop at once.  E10's golden pins the plain global
FIFO queue with no hooks (see also ``test_tier_identity.py`` for the
explicit ``sample_fraction=0`` guard).  The reports are fully
deterministic (seeded generators, ideal devices or seeded noise), so any
diff is a behaviour change — either a regression to investigate or an
intentional improvement to re-bless:

    PYTHONPATH=src python -m pytest tests/golden --update-goldens

rewrites the golden files from the current code; commit the diff together
with the change that caused it.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.serving import (
    AdmissionController,
    Autoscaler,
    ChipFleet,
    DayCurveArrivals,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    NetworkModel,
    RetryPolicy,
    Router,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_EXPERIMENTS = tuple(EXPERIMENTS)
COMPOSED_RUN = "composed_run"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def check_golden(key: str, name: str, report: str, update: bool) -> None:
    """Compare ``report`` with the golden file ``name`` (or rewrite it)."""
    path = golden_path(name)
    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({key: name, "report": report.splitlines()}, indent=2) + "\n"
        )
        return
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "`python -m pytest tests/golden --update-goldens`"
    )
    expected = json.loads(path.read_text())["report"]
    actual = report.splitlines()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(expected, actual, "golden", "current", lineterm="")
        )
        pytest.fail(
            f"{name} report diverged from its golden file "
            f"(re-bless with --update-goldens if intentional):\n{diff}"
        )


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_report_matches_golden(experiment_id, update_goldens):
    check_golden("experiment", experiment_id, run_experiment(experiment_id), update_goldens)


def composed_run_report() -> str:
    """Every serving hook in one run, on a small fleet."""
    slo = SLOPolicy((SLOClass("interactive", 20e-3), SLOClass("batch", 200e-3)))
    arrivals = DayCurveArrivals(3200.0, period_s=2.0, seq_len=(64, 256), seed=7)
    requests = slo.tag_by_length(arrivals.generate(3000), boundaries=(64,))
    model = FixedServiceModel(
        1e-3,
        request_energy_j=2e-6,
        idle_power_w=0.05,
        sleep_power_w=0.005,
        sleep_entry_latency_s=1e-4,
        wake_latency_s=2e-3,
        wake_energy_j=1e-5,
    )
    simulator = ServingSimulator(
        ChipFleet(model, num_chips=4, speedups=(2.0, 1.0, 1.0, 1.0)),
        DynamicBatcher.edf(max_batch_size=8, max_wait_s=2e-3),
        faults=FaultInjector(mtbf_s=0.2, detection_s=5e-3, repair_s=5e-3, seed=11),
        retry=RetryPolicy(max_attempts=3, deadline_s=0.2),
        admission=AdmissionController(max_queue_depth=64, degraded_max_batch=4),
        autoscaler=Autoscaler(
            interval_s=0.02,
            scale_up_above=0.8,
            scale_down_below=0.4,
            scale_up_queue_depth=32,
            initial_chips=2,
        ),
        router=Router(
            "shortest_expected_delay",
            NetworkModel(link_latency_s=2e-5, steal_latency_s=1e-5),
        ),
    )
    return simulator.run(requests).format_table()


def test_composed_run_matches_golden(update_goldens):
    check_golden("run", COMPOSED_RUN, composed_run_report(), update_goldens)


def test_every_experiment_has_a_golden():
    """A new report cannot land unpinned."""
    missing = [name for name in GOLDEN_EXPERIMENTS if not golden_path(name).exists()]
    assert not missing, f"experiments without a committed golden: {missing}"


def test_goldens_directory_has_no_strays():
    """Every committed golden corresponds to a checked report."""
    names = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert names == set(GOLDEN_EXPERIMENTS) | {COMPOSED_RUN}
