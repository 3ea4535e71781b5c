"""Repository benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload ds1-cold-fit --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off, as
times at the reference host speed (``harness.HostSpeed``); ``--trace 1``
runs one untraced and one traced cycle on the same input and reports
the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads, metrics and the layer predictions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

# One BLAS thread per process: with two shard workers plus the parent,
# processes x threads stays within a 2-core host.  Must be set before
# numpy is imported; forked workers inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402

SETUP_REPEATS = 5
#: One set-up as a user pays it, in a fresh interpreter: start-up,
#: imports, input generation and estimator construction.  The set-up's
#: CPU time is scaled by the reference kernel timed right after it in
#: the same process: the host's two vCPUs change speed independently.
SETUP_SCRIPT = """
import sys, time
sys.path[:0] = {path!r}
import workloads
from repro import Birch
spec = workloads.SPECS[{name!r}]
workloads.make_inputs(spec, {seed})
Birch(workloads.make_config(spec)).close()
setup_s = time.process_time()
from harness import HostSpeed
print(setup_s * HostSpeed().close_block())
"""

END_TO_END_UNITS = {
    "fit_s": "s",
    "ingest_points_per_s": "points/s",
    "refresh_p50_ms": "ms",
    "predict_p50_us": "us",
    "avg_diameter": "data-units",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "guardrails.screen_s": "s",
    "tree.ingest_s": "s",
    "tree.bulk_windows": "count",
    "tree.bulk_absorbed_rows": "count",
    "tree.bulk_fallback_rows": "count",
    "tree.bulk_absorb_ratio": "ratio",
    "tree.rows_per_window": "rows",
    "tree.scalar_rows": "count",
    "tree.splits": "count",
    "tree.merges": "count",
    "rebuild.count": "count",
    "rebuild.s": "s",
    "outliers.spilled": "count",
    "outliers.reabsorbed": "count",
    "pagestore.page_writes": "count",
    "pagestore.page_reads": "count",
    "parallel.dispatch_s": "s",
    "parallel.shard_build_s": "s",
    "parallel.merge_s": "s",
    "parallel.merge_fallbacks": "count",
    "parallel.incidents": "count",
    "parallel.worker_peak_rss_mb": "MiB",
    "phase2.s": "s",
    "phase3.s": "s",
    "phase3.input_entries": "count",
    "phase4.s": "s",
    "birch.finalize_s": "s",
    "serve.compile_s": "s",
    "serve.save_s": "s",
    "serve.load_s": "s",
    "serve.predict_s": "s",
    "serve.queries_per_s": "queries/s",
    "observe.trace_overhead_pct": "%",
    "coverage.ratio": "ratio",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(spec, seed: int) -> float:
    """Median scaled set-up time over ``SETUP_REPEATS`` fresh processes."""
    script = SETUP_SCRIPT.format(path=[HERE, os.path.join(ROOT, "src")],
                                 name=spec.name, seed=seed)
    times = [
        float(subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return harness.median(times)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library sources under {ROOT}/src", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.SPECS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.SPECS)}",
            file=sys.stderr,
        )
        return 2
    spec = workloads.SPECS[args.workload]
    setup_s = measure_setup(spec, args.seed)
    inputs = workloads.make_inputs(spec, args.seed)

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    ops = workloads.Ops()
    metrics: dict[str, float] = {}
    info: dict[str, float] = {}
    try:
        if args.trace:
            metrics = workloads.run_traced(spec, inputs, ops, workdir, args.seed)
            units = PER_LAYER_UNITS
        else:
            cycles, speed = workloads.run_untraced(
                spec, inputs, ops, workdir, args.seconds
            )
            metrics, info = workloads.summarize(cycles, speed)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    except Exception as exc:  # report the run as failed, never hang
        ops.attempted += 1
        ops.failed += 1
        ops.errors.append(f"{type(exc).__name__}: {exc}")
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
        harness.stop_resource_tracker()
    try:
        harness.assert_no_children()
    except harness.LeakError as exc:
        ops.failed += 1
        ops.errors.append(str(exc))

    for error in ops.errors[:20]:
        print(f"FAILED: {error}")
    print(f"workload={spec.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} attempted={ops.attempted} failed={ops.failed}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:28s} {metrics[name]:>14.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:28s} {value:>14.6g} (not scaled, not gated)")
    correct = ops.failed == 0 and set(units) <= set(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(ops.attempted, 1),
                "failed": ops.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
