"""The benchmark's three workloads, driven through the public API only.

Every workload is one client in a closed loop that builds a model,
deploys it (``FrozenModel.from_estimator`` -> ``save`` ->
``FrozenModel.load``) and answers seeded query batches from it:

* ``ds1-cold-fit`` -- one ``Birch.fit`` of DS1 under the paper's Table 2
  defaults (threshold starts at 0 and grows through rebuilds), n_jobs=1;
* ``ds2-warm-sharded`` -- one ``Birch.fit`` of DS2 with a fixed
  threshold of 1.5 on two worker processes, then ``close``;
* ``ds3o-stream-serve`` -- DS3O fed through ``partial_fit`` in
  ``CHUNK_ROWS``-row chunks; every ``REFRESH_EVERY`` chunks the model is
  refreshed (``finalize`` first) and redeployed.

A run repeats the whole cycle on the same input, so every cycle after
the first must reproduce the first byte for byte.  Timings are wall
time scaled to the reference host speed (``harness.HostSpeed``): the
reference kernel is timed between blocks of work (a fit, a deploy with
its predicts, or one refresh interval of the stream) and inside the
single-process ingest calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from harness import (
    HostSpeed,
    SpanLog,
    bulk_ratios,
    check_no_leaks,
    children_cpu,
    coverage,
    cpu_clock,
    median,
)
from repro import Birch, BirchConfig
from repro.datagen import presets
from repro.evaluation.quality import weighted_average_diameter
from repro.guardrails.validation import PointValidator
from repro.observe import ObserveConfig, build_recorder, read_jsonl
from repro.parallel.shm import active_segment_count
from repro.serve import FrozenModel

N_CLUSTERS = 100
QUERY_ROWS = 256
#: Seeded query batches answered after every deploy.
QUERY_BATCHES = 64
QUERY_JITTER = 0.5
#: The stream's ``partial_fit`` size and refresh interval.
CHUNK_ROWS = 100
REFRESH_EVERY = 20
#: Cycles every run makes at least, so the repeat check always runs.
MIN_CYCLES = 2


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape."""

    name: str
    dataset: str
    scale: float
    initial_threshold: float
    n_jobs: int
    stream: bool  # build with partial_fit chunks (else one Birch.fit)
    seeded_data: bool  # the seed draws the points too (else the preset's)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("ds1-cold-fit", "ds1", 0.1, 0.0, 1, False, False),
        Spec("ds2-warm-sharded", "ds2", 0.5, 1.5, 2, False, True),
        Spec("ds3o-stream-serve", "ds3o", 0.25, 0.0, 1, True, False),
    )
}


def _subseed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Inputs:
    """Everything a run needs, generated before timing."""

    points: np.ndarray  # rows given to fit, or streamed
    queries: list[np.ndarray]


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Generate the input of a run with seed ``seed``.

    Under the paper's defaults the points are the preset dataset, one
    fixed dataset as in the paper, and the seed picks only the query
    batches.  There the build cost follows how many rebuilds happen and
    where they fall, which moves with the sample: DS1 fits of different
    samples differed by 20%, and with a per-seed DS3O order the median
    refresh differed by more than 2x.  DS2 under a fixed threshold has
    no rebuild, and the seed draws its points.
    """
    make = getattr(presets, spec.dataset)
    if spec.seeded_data:
        points = make(scale=spec.scale, seed=_subseed(seed, 0)).points
    else:
        points = make(scale=spec.scale).points
    rng = np.random.default_rng(_subseed(seed, 1))
    queries = [
        points[rng.integers(0, points.shape[0], QUERY_ROWS)]
        + rng.normal(0.0, QUERY_JITTER, (QUERY_ROWS, points.shape[1]))
        for _ in range(QUERY_BATCHES)
    ]
    return Inputs(np.ascontiguousarray(points), queries)


def make_config(spec: Spec, trace_path: Optional[str] = None) -> BirchConfig:
    """The estimator configuration (telemetry on only when tracing)."""
    return BirchConfig(
        n_clusters=N_CLUSTERS,
        initial_threshold=spec.initial_threshold,
        n_jobs=spec.n_jobs,
        observe=ObserveConfig(trace_path=trace_path) if trace_path else None,
    )


@dataclass
class Ops:
    """Operations attempted and failed; a failed output check fails its op."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)


@dataclass
class Cycle:
    """Measurements of one build -> deploy -> serve cycle.

    Times are seconds at the reference host speed; ``raw`` keeps the
    unscaled wall times by kind, and ``wall_s`` is the whole cycle's.
    """

    build_s: float = 0.0  # fit (+ close), or every partial_fit + last finalize
    ingest_s: float = 0.0  # inside fit or partial_fit
    refresh_s: list[float] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)
    raw: dict[str, list[float]] = field(default_factory=dict)  # unscaled
    build_wall_s: float = 0.0
    wall_s: float = 0.0
    screen_s: float = 0.0  # CPU time of the traced cycle's screening
    points: int = 0
    avg_diameter: float = 0.0
    serve_queries: float = 0.0
    digest: str = ""
    results: list = field(default_factory=list)  # the fit's or each finalize's


def _result_problems(result, what: str) -> list[str]:
    problems = []
    if not result.conservation_ok:
        problems.append(f"{what}: conservation ledger does not balance")
    if result.n_clusters != N_CLUSTERS:
        problems.append(f"{what}: {result.n_clusters} clusters, want {N_CLUSTERS}")
    return problems


class _Block:
    """Raw wall times of one block of work, scaled when the block ends."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw: dict[str, list[float]] = {}

    def add(self, key: str, seconds: float) -> None:
        self.raw.setdefault(key, []).append(seconds)

    def close(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        factor = self.speed.close_block()
        raw, self.raw = self.raw, {}
        return {k: [t * factor for t in v] for k, v in raw.items()}, raw


def run_cycle(
    spec: Spec,
    inputs: Inputs,
    ops: Ops,
    workdir: str,
    speed: HostSpeed,
    log: Optional[SpanLog] = None,
    trace_path: Optional[str] = None,
) -> Cycle:
    """One closed-loop cycle; spans go to ``log`` only when tracing."""
    span = log.span if log is not None else (lambda name: nullcontext())
    wall = time.perf_counter
    cycle = Cycle()
    digest = hashlib.sha256()
    artifact = os.path.join(workdir, "model.frz")
    serve_recorder = build_recorder(ObserveConfig()) if trace_path else None
    block = _Block(speed)
    finalize_s: list[float] = []
    cycle_start = wall()

    def end_block() -> None:
        scaled, raw = block.close()
        for key, times in raw.items():
            cycle.raw.setdefault(key, []).extend(times)
        cycle.ingest_s += sum(scaled.get("ingest", []))
        finalize_s.extend(scaled.get("finalize", []))
        cycle.refresh_s.extend(scaled.get("refresh", []))
        cycle.predict_s.extend(scaled.get("predict", []))
        cycle.build_s += sum(scaled.get("build", []))

    def deploy(birch: Birch) -> None:
        start = wall()
        problems: list[str] = []
        if spec.stream:
            with span("birch.finalize"):
                result = birch.finalize()
            block.add("finalize", wall() - start)
            cycle.results.append(result)
            problems = _result_problems(result, "refresh")
            digest.update(np.ascontiguousarray(result.centroids).tobytes())
        with span("serve.compile"):
            model = FrozenModel.from_estimator(birch, recorder=serve_recorder)
        with span("serve.save"):
            model.save(artifact)
        with span("serve.load"):
            served = FrozenModel.load(artifact, recorder=serve_recorder)
        block.add("refresh", wall() - start)
        if served.n_clusters != N_CLUSTERS:
            problems.append(f"refresh: served model has {served.n_clusters} clusters")
        ops.record(problems)
        for i, batch in enumerate(inputs.queries):
            start = wall()
            with span("serve.predict"):
                labels = served.predict(batch)
            block.add("predict", wall() - start)
            problems = []
            if i == 0:
                if not np.array_equal(labels, birch.predict(batch)):
                    problems.append("predict: FrozenModel disagrees with Birch.predict")
                digest.update(labels.tobytes())
            ops.record(problems)

    def screen(rows: np.ndarray) -> None:
        start = cpu_clock()
        with span("guardrails.screen"):
            PointValidator().screen(rows)
        cycle.screen_s += cpu_clock() - start

    with Birch(make_config(spec, trace_path)) as birch:
        if spec.stream:
            rows = inputs.points
            n_chunks = math.ceil(rows.shape[0] / CHUNK_ROWS)
            for c in range(n_chunks):
                chunk = rows[c * CHUNK_ROWS : (c + 1) * CHUNK_ROWS]
                if log is not None:
                    screen(chunk)
                with speed.sampled() as paused:
                    start = wall()
                    with span("birch.partial_fit"):
                        birch.partial_fit(chunk)
                    block.add("ingest", wall() - start - paused())
                ops.record([])
                if (c + 1) % REFRESH_EVERY == 0 or c + 1 == n_chunks:
                    deploy(birch)
                    end_block()
            cycle.build_s = cycle.ingest_s + finalize_s[-1]
            last = cycle.results[-1]
        else:
            if log is not None:
                screen(inputs.points)
            sampling = speed.sampled() if spec.n_jobs == 1 else nullcontext(lambda: 0.0)
            with sampling as paused:
                start = wall()
                with span("birch.fit"):
                    last = birch.fit(inputs.points)
                    if spec.n_jobs > 1:
                        birch.close()  # a one-shot user pays pool start and stop
                fit_s = wall() - start - paused()
            block.add("build", fit_s)
            block.add("ingest", fit_s)
            cycle.results.append(last)
            problems = _result_problems(last, "fit")
            if spec.n_jobs > 1 and last.parallel_incidents:
                problems.append(
                    f"fit: {len(last.parallel_incidents)} parallel incident(s)"
                )
            ops.record(problems)
            digest.update(np.ascontiguousarray(last.centroids).tobytes())
            digest.update(np.ascontiguousarray(last.labels).tobytes())
            end_block()
            deploy(birch)
            end_block()
    cycle.wall_s = wall() - cycle_start
    raw = cycle.raw
    cycle.build_wall_s = (
        sum(raw["ingest"]) + raw["finalize"][-1] if spec.stream else raw["build"][0]
    )
    cycle.points = inputs.points.shape[0]
    cycle.avg_diameter = weighted_average_diameter(last.clusters)
    if serve_recorder is not None:
        cycle.serve_queries = serve_recorder.counters.get("serve.queries", 0)
    cycle.digest = digest.hexdigest()
    return cycle


def run_untraced(
    spec: Spec, inputs: Inputs, ops: Ops, workdir: str, seconds: float
) -> tuple[list[Cycle], HostSpeed]:
    """Cycles on the run's input until ``seconds`` is spent.

    Every cycle must give the same output as the first.
    """
    cycles: list[Cycle] = []
    speed = HostSpeed()
    start = time.perf_counter()
    while True:
        try:
            cycle = run_cycle(spec, inputs, ops, workdir, speed)
        finally:
            check_no_leaks(active_segment_count)
        if cycles and cycle.digest != cycles[0].digest:
            ops.record([f"cycle {len(cycles)}: output differs from cycle 0"])
        cycles.append(cycle)
        elapsed = time.perf_counter() - start
        if len(cycles) >= MIN_CYCLES and elapsed * (1 + 1 / len(cycles)) > seconds:
            return cycles, speed


def run_traced(
    spec: Spec, inputs: Inputs, ops: Ops, workdir: str, seed: int
) -> dict[str, float]:
    """One untraced and one traced cycle; per-layer metrics from the latter."""
    def cpu() -> float:
        return cpu_clock() + children_cpu()

    speed = HostSpeed()
    start = cpu()
    try:
        plain = run_cycle(spec, inputs, ops, workdir, speed)
    finally:
        check_no_leaks(active_segment_count)
    untraced_s = cpu() - start

    log = SpanLog(run_id=f"{spec.name}-{seed}-{os.getpid()}")
    trace_path = os.path.join(workdir, "journal.jsonl")
    start = cpu()
    try:
        with log.span("cycle"):
            traced = run_cycle(spec, inputs, ops, workdir, speed, log, trace_path)
    finally:
        check_no_leaks(active_segment_count)
    if traced.digest != plain.digest:
        ops.record(["traced cycle output differs from the untraced cycle"])
    # The traced cycle also screens its input for guardrails.screen_s,
    # and both cycles time the reference kernel; neither is tracing
    # overhead.
    traced_s = cpu() - start - traced.screen_s
    return layer_metrics(spec, traced, log, trace_path, untraced_s, traced_s)


# -- per-layer metrics ---------------------------------------------------------

#: Public calls the program reports no finer span inside; their self
#: time is the part of the wall time no layer explains.
UNEXPLAINED = frozenset({"birch.fit", "birch.partial_fit", "birch.finalize"})


def _adopt_journal(log: SpanLog, path: str) -> None:
    reported = []
    for event in read_jsonl(path):
        seconds = event.get("seconds")
        if not isinstance(seconds, (int, float)):
            continue
        name = str(event["event"])
        if name == "phase":
            name = str(event["name"])
        reported.append((name, float(event["ts"]), float(seconds)))
    log.adopt(reported)


def layer_metrics(
    spec: Spec, cycle: Cycle, log: SpanLog, trace_path: str, untraced_s: float,
    traced_s: float,
) -> dict[str, float]:
    """Per-layer numbers from one traced cycle's spans and telemetry."""
    _adopt_journal(log, trace_path)
    last = cycle.results[-1]
    counters = dict(last.telemetry.counters)
    timings = last.timings
    fit_result = None if spec.stream else cycle.results[0]
    predict_s = log.total("serve.predict")
    out = {
        "guardrails.screen_s": log.total("guardrails.screen"),
        "tree.ingest_s": timings.phase1_ingest,
        "tree.bulk_windows": counters.get("bulk.windows", 0),
        "tree.bulk_absorbed_rows": counters.get("bulk.absorbed_rows", 0),
        "tree.bulk_fallback_rows": counters.get("bulk.fallback_rows", 0),
        **bulk_ratios(counters),
        "tree.scalar_rows": counters.get("scalar.rows", 0),
        "tree.splits": counters.get("io.splits", 0),
        "tree.merges": counters.get("io.merges", 0),
        "rebuild.count": counters.get("io.rebuilds", 0),
        "rebuild.s": timings.phase1_rebuilds,
        "outliers.spilled": counters.get("outlier.spilled", 0),
        "outliers.reabsorbed": counters.get("outlier.reabsorbed", 0),
        "pagestore.page_writes": counters.get("io.page_writes", 0),
        "pagestore.page_reads": counters.get("io.page_reads", 0),
        "parallel.dispatch_s": log.total("pool.dispatch"),
        "parallel.shard_build_s": log.total("shard.build"),
        "parallel.merge_s": log.total("merge.round"),
        "parallel.merge_fallbacks": counters.get("bulkcf.fallbacks", 0),
        "parallel.incidents": len(fit_result.parallel_incidents) if fit_result else 0,
        "parallel.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if spec.n_jobs > 1
            else 0.0
        ),
        "phase2.s": sum(r.timings.phase2 for r in cycle.results),
        "phase3.s": sum(r.timings.phase3 for r in cycle.results),
        "phase3.input_entries": last.tree_stats["leaf_entry_count"],
        "phase4.s": fit_result.timings.phase4 if fit_result else 0.0,
        "birch.finalize_s": log.total("birch.finalize"),
        "serve.compile_s": log.total("serve.compile"),
        "serve.save_s": log.total("serve.save"),
        "serve.load_s": log.total("serve.load"),
        "serve.predict_s": predict_s,
        "serve.queries_per_s": cycle.serve_queries / predict_s if predict_s else 0.0,
        "observe.trace_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "coverage.ratio": coverage(log.spans, UNEXPLAINED),
    }
    return {k: float(v) for k, v in out.items()}


def summarize(
    cycles: list[Cycle], speed: HostSpeed
) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics over every cycle of an untraced run.

    Returns the gated metrics (times at the reference host speed) and,
    separately, unscaled figures printed for reference only.
    """
    def raw(key: str) -> float:
        return median([t for c in cycles for t in c.raw[key]])

    refreshes = [s for c in cycles for s in c.refresh_s]
    predicts = [s for c in cycles for s in c.predict_s]
    return {
        "fit_s": median([c.build_s for c in cycles]),
        "ingest_points_per_s": sum(c.points for c in cycles)
        / sum(c.ingest_s for c in cycles),
        "refresh_p50_ms": 1e3 * median(refreshes),
        "predict_p50_us": 1e6 * median(predicts),
        "avg_diameter": cycles[0].avg_diameter,
    }, {
        "cycles": len(cycles),
        "kernel_ms": 1e3 * median(speed.kernel_s),
        "fit_wall_s": median([c.build_wall_s for c in cycles]),
        "refresh_wall_p50_ms": 1e3 * raw("refresh"),
        "predict_wall_p50_us": 1e6 * raw("predict"),
    }
