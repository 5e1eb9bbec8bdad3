"""frem benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sim-klein-1000 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports frem from ``src``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it is
a JSON report with the machine facts, the workload's parameters and every
metric that applies to the workload (query latencies, per-method rMSE, the
training-mean rMSE the checks compare against, failed_frac). Spans of a traced
run are written to ``perfbench/out/``. A failed output check makes the exit
code 1.

Set-up is done several times and reported as the median; then units of work
run back to back until ``--seconds`` have passed, and times are medians over
units. The traced run repeats one untimed warm-up set-up, then one set-up and
units for ``--seconds`` untraced, then one set-up and one unit traced: the
per-layer metrics describe that traced set-up and unit, and
``trace.overhead_s`` is its wall time minus the untraced set-up and median
unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 3
# One BLAS thread keeps results independent of the core count and keeps the
# process off the second core, which neighbours share.
BLAS_THREADS = 1

END_TO_END = [("setup_s", "s"), ("replicate_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None  # unknown unless the BLAS is an OpenBLAS numpy ships
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "frem_workers": os.environ["FREM_WORKERS"],
        "machine": platform.machine(),
    }


def run_units(wl, state, seconds: float, count: int | None = None):
    """Units back to back: ``count`` of them, or until ``seconds`` have passed."""
    outcomes = []
    t0 = time.perf_counter()
    while not outcomes or (len(outcomes) < count if count is not None
                           else time.perf_counter() - t0 < seconds):
        outcomes.append(wl.run_unit(state))
    return outcomes


def repeat_failures(outcomes) -> list[str]:
    """Every unit repeats the same seeded work, so its results must repeat bit for bit."""
    import numpy as np

    first = outcomes[0]
    problems = []
    for i, o in enumerate(outcomes[1:], start=1):
        if o.rmse != first.rmse:
            problems.append(f"unit {i}: rMSE {o.rmse} differs from unit 0's {first.rmse}")
        if first.predictions is not None and not np.array_equal(
                o.predictions, first.predictions, equal_nan=True):
            problems.append(f"unit {i}: predictions differ from unit 0's")
    return problems


def summarize(wl, outcomes, failures) -> dict:
    """Every report metric that applies to this workload, with its unit."""
    import numpy as np

    first = outcomes[0]
    report = {}
    for method in wl.methods:
        if method in first.rmse:
            report[f"{method}_rmse"] = (first.rmse[method], "rmse")
    report["mean_rmse"] = (first.mean_rmse, "rmse")
    lat = [x for o in outcomes for x in o.latencies]
    if lat:
        report["query_p50_ms"] = (float(np.quantile(lat, 0.5)) * 1e3, "ms")
        report["query_p99_ms"] = (float(np.quantile(lat, 0.99)) * 1e3, "ms")
        report["query_samples"] = (len(lat), "count")
        report["queries_per_s"] = (len(lat) / sum(o.seconds for o in outcomes), "1/s")
    attempted = sum(o.attempted for o in outcomes)
    report["failed_frac"] = (len(failures) / attempted, "ratio")
    return report


def plain_run(wl, args, import_s: float):
    setups, prints = [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        state = wl.build(args.seed)
        wl.warm_up(state)
        setups.append(time.perf_counter() - t0)
        prints.append(wl.fingerprint(state))
    outcomes = run_units(wl, state, args.seconds)
    failures = [f for o in outcomes for f in o.failures] + repeat_failures(outcomes)
    if any(p != prints[0] for p in prints):
        failures.append(f"set-up rounds disagree: {prints}")
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "replicate_s": statistics.median(o.seconds for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    result = {name: (value, units[name]) for name, value in metrics.items()}
    report = dict(result, **summarize(wl, outcomes, failures))
    extra = {"setup_rounds_s": setups, "unit_s": [o.seconds for o in outcomes]}
    return result, report, outcomes, failures, extra


def traced_run(wl, args, import_s: float):
    from layers import PER_LAYER, instrument, per_layer
    from tracing import Tracer

    wl.warm_up(wl.build(args.seed))
    t0 = time.perf_counter()
    state = wl.build(args.seed)
    ref_build = time.perf_counter() - t0
    reference = run_units(wl, state, args.seconds)

    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.counting_warnings():
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                state = wl.build(args.seed)
            build = time.perf_counter() - t0
            traced = run_units(wl, state, args.seconds, count=1)
    finally:
        tracer.restore()

    failures = [f for o in reference + traced for f in o.failures]
    failures += repeat_failures(reference + traced)
    wall = build + traced[0].seconds
    ref_wall = ref_build + statistics.median(o.seconds for o in reference)
    values = per_layer(tracer, wall, wall - ref_wall)
    units = {name: unit for name, unit, _ in PER_LAYER}
    result = {name: (value, units[name]) for name, value in values.items()}
    report = summarize(wl, reference + traced, failures)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    extra = {"traced_wall_s": wall, "spans": str(spans_path.relative_to(ROOT)),
             "reference_unit_s": [o.seconds for o in reference]}
    return result, report, reference + traced, failures, extra


def pin_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["FREM_WORKERS"] = "1"


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (ROOT / "src" / "frem" / "__init__.py").is_file():
        print(f"frem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import frem  # noqa: F401
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    wl.start()
    try:
        run = traced_run if args.trace else plain_run
        result, report, outcomes, failures, extra = run(wl, args, import_s)
    finally:
        wl.stop()

    attempted = sum(o.attempted for o in outcomes)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "params": wl.params(), "why": wl.why,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "failures": failures[:20], **extra,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
