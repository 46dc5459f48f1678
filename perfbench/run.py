#!/usr/bin/env python3
"""Repository benchmark: STAR chip and fleet-serving workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chip_attention --seed 1 --seconds 20 --trace 0

Each repetition sets the workload up from ``--seed``, runs it (reading
the report included) and then checks its outputs outside the timed
phases; repetitions continue until ``--seconds`` have passed (at least
three).  Every step of a set-up and of a run is a timed phase, bracketed
by a fixed reference kernel (see ``PhaseClock``).  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``: ``setup_s`` and ``run_s`` in
reference seconds (see ``reference_seconds``) and the simulated metrics,
which every repetition must reproduce exactly.  ``--trace 1`` wraps the
layer boundaries of the second repetition with recording spans (see
``layers.py``) and reports the per-layer metrics, the tracing overhead
included.  The last line of
standard output is one JSON object; the line before it and
``.perfbench_out/`` hold the environment, every repetition and the spans.
``--workload all`` runs every workload in its own process, one after
another, and prints one result line per workload.
"""

import os

# BLAS/OpenMP pools are pinned to one thread before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
#: Stop starting repetitions once this much wall time has gone (exit < 180 s).
WALL_BUDGET_S = 120.0

WORKLOADS = {
    "chip_attention": ("chip_workload", "ChipAttention"),
    "serve_tiered": ("serving_workloads", "ServeTiered"),
    "serve_routed": ("serving_workloads", "ServeRouted"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The reference kernel counts as this many seconds (about its wall time
#: on an undisturbed core of a 2.1 GHz Xeon development VM).
REFERENCE_KERNEL_S = 0.010

_REFERENCE_MATRIX = None


def reference_kernel() -> float:
    """Wall time of one fixed reference computation (~10 ms).

    Interpreter work (integer arithmetic, dict stores) and small NumPy
    kernels, the two kinds of work the workloads do.  It calls nothing in
    ``repro``, so no change to the program under test moves it.
    """
    global _REFERENCE_MATRIX
    if _REFERENCE_MATRIX is None:
        _REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60_000):
        acc += i * i
        table[i & 255] = acc
    x = _REFERENCE_MATRIX
    for _ in range(200):
        x = np.tanh(x @ _REFERENCE_MATRIX) + 0.5
    return time.perf_counter() - start


class PhaseClock:
    """Wall time of each named phase of one repetition, and its cost in
    reference kernels.

    A workload wraps every step of its set-up and of its run in
    ``with clock("<phase>"):``.  The reference kernel runs before the first
    phase and after every phase; a phase's cost (:attr:`refs`) is its time
    divided by the mean of the kernel times on either side of it, so a
    host that slows both by the same factor leaves the cost unchanged.
    :attr:`total` is the repetition's time, kernels excluded.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.refs: dict[str, float] = {}
        #: Every reference-kernel time measured in this repetition.
        self.reference_s: list[float] = []
        self._last_reference = None

    @contextmanager
    def __call__(self, name: str):
        if self._last_reference is None:
            self._last_reference = self._reference()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            before, self._last_reference = self._last_reference, self._reference()
            reference = 0.5 * (before + self._last_reference)
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.refs[name] = self.refs.get(name, 0.0) + elapsed / reference

    def _reference(self) -> float:
        elapsed = reference_kernel()
        self.reference_s.append(elapsed)
        return elapsed

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def reference_seconds(phases: list[dict[str, float]]) -> float:
    """Sum over phases of each phase's median cost across repetitions, with
    one reference kernel counted as :data:`REFERENCE_KERNEL_S` seconds.

    A shared host switches between speeds some 1.5x apart, for seconds at a
    time; it slows a phase and the kernels beside it alike, so the cost in
    reference seconds stays put where wall time does not.
    """
    kernels = sum(statistics.median(times[name] for times in phases) for name in phases[0])
    return REFERENCE_KERNEL_S * kernels


def load_workload(name: str):
    """The workload object; fails with ImportError outside a full checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    module_name, class_name = WORKLOADS[name]
    module = importlib.import_module(module_name)
    return getattr(module, class_name)()


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a process of its own, one after another."""
    for name in sorted(WORKLOADS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(f"{name}: {child.stdout.splitlines()[-1]}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        workload = load_workload(args.workload)
        from layers import HIGH_VOLUME, install
        from spans import Tracer, finite
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + args.seconds
    reps: list[dict] = []
    failed_checks: list[str] = []
    attempted = 0
    first_answers = None
    tracer = None
    traced_layers: dict[str, float] = {}
    while True:
        traced = bool(args.trace) and len(reps) == 1
        t0 = time.perf_counter()
        setup_clock = PhaseClock()
        state = workload.setup(args.seed, setup_clock)
        run_clock = PhaseClock()
        if traced:
            tracer = Tracer()
            install(tracer)
        try:
            outcome = workload.run(state, run_clock)
        finally:
            if tracer is not None:
                tracer.restore()
        checks = workload.check(state, outcome)
        answers = outcome.sim
        checks.append(
            ("simulated metrics identical across repetitions",
             first_answers is None or answers == first_answers)
        )
        if first_answers is None:
            first_answers = answers
        attempted += len(checks)
        failed_checks += [f"rep {len(reps)}: {name}" for name, ok in checks if not ok]
        rep = {
            "wall_setup_s": setup_clock.total,
            "wall_run_s": run_clock.total,
            "traced": traced,
            "setup_phases_s": setup_clock.seconds,
            "setup_phases_kernels": setup_clock.refs,
            "run_phases_s": run_clock.seconds,
            "run_phases_kernels": run_clock.refs,
            "reference_kernel_s": setup_clock.reference_s + run_clock.reference_s,
        }
        if len(reps) == 0:
            rep["sim"] = answers
            rep["details"] = outcome.details
            offered = workload.offered(state)
        if traced:
            traced_layers = tracer.layer_metrics(HIGH_VOLUME)
            traced_layers.update(workload.layer_metrics(state, outcome))
        reps.append(rep)
        del state, outcome
        gc.collect()
        now = time.perf_counter()
        # stop once another repetition like the last one would overrun
        finish = now + (now - t0)
        if len(reps) >= MIN_REPS and (finish > deadline or finish - started > WALL_BUDGET_S):
            break

    untraced = [r for r in reps if not r["traced"]]
    run_s = reference_seconds([r["run_phases_kernels"] for r in untraced])
    wall_run_s = statistics.median(r["wall_run_s"] for r in untraced)
    values = {
        "setup_s": reference_seconds([r["setup_phases_kernels"] for r in reps]),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "requests_per_s": offered / run_s,
        **first_answers,
    }
    if args.trace:
        traced_run_s = next(r["wall_run_s"] for r in reps if r["traced"])
        rows = traced_layers.get("core.softmax_engine.softmax.rows", 0.0)
        traced_layers["core.softmax_engine.row_path_share"] = (
            traced_layers.get("core.softmax_engine.softmax_row.calls", 0.0) / rows if rows else 0.0
        )
        traced_layers["bench.traced_run_s"] = traced_run_s
        traced_layers["bench.tracing_overhead_s"] = traced_run_s - wall_run_s
        traced_layers["bench.spans"] = float(tracer.num_spans)
        selected = spec["per_layer"]
        values = traced_layers
    else:
        selected = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": finite(float(values.get(m["name"], 0.0))), "unit": m["unit"]}
        for m in selected
    }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "wall_clock": {
            "setup_s": statistics.median(r["wall_setup_s"] for r in reps),
            "run_s": wall_run_s,
            "reference_kernel_s": statistics.median(
                t for r in reps for t in r["reference_kernel_s"]
            ),
        },
        "repetitions": reps,
        "failed_checks": failed_checks,
    }
    if args.trace:
        meta["layers"] = traced_layers  # every span name, not only BENCHMARK.json's
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**meta, "metrics": metrics}, indent=1))
    print(json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": not failed_checks,
                "attempted": attempted,
                "failed": len(failed_checks),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
