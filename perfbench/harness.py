"""Measurement helpers for the repository benchmark.

Kept free of any ``repro`` import so the unit tests in
``test_harness.py`` run without the library on the path.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import resource
import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

#: Median time of :func:`reference_kernel` on the host the bounds were
#: set on (2-vCPU VM, Python 3.11.7, numpy 2.4): the host speed that
#: normalised timings are expressed at.
REFERENCE_KERNEL_S = 0.018


class LeakError(RuntimeError):
    """A run left a worker process or shared-memory segment behind."""


def median(samples: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- clocks --------------------------------------------------------------------


def cpu_clock() -> float:
    """CPU seconds of this process (all threads, user + system)."""
    return time.process_time()


def children_cpu() -> float:
    """CPU seconds of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@functools.lru_cache(maxsize=None)
def _kernel_data() -> tuple[list, dict, list, np.ndarray]:
    """~6 MB of small arrays and lists scattered over the heap, visited
    in a fixed random order: a working set like a CF tree's, beyond L2.
    Built on first use, so importing this module stays cheap."""
    rng = np.random.default_rng(12345)
    rows = [rng.random(4) for _ in range(40000)]
    lists = {i: [float(v) for v in rows[i]] for i in range(0, 40000, 2)}
    return rows, lists, rng.permutation(40000).tolist(), rng.random(4)


def reference_kernel(rounds: int = 3600) -> float:
    """A fixed piece of work shaped like BIRCH's Phase 1, ~20 ms.

    A Python-level loop of short numpy distance computations and dict
    lookups over a scattered working set, the mix of interpreter, small
    numpy calls and cache misses the library spends its time in.  It
    does not touch the library, so no change to the program changes
    its cost.
    """
    rows, lists, order, point = _kernel_data()
    total = 0.0
    nearest = math.inf
    for r in range(rounds):
        i = order[(r * 7) % 40000]
        d = float(((rows[i] - point) ** 2).sum())
        total += d + lists[i - (i & 1)][0]
        nearest = min(nearest, d)
    return total + nearest


class HostSpeed:
    """Scale wall times to the speed of the host the bounds were set on.

    The benchmark host is a share of a larger machine whose speed swings
    by 20-50% within seconds and drifts over minutes, with no steal and
    with CPU time moving as much as wall time.  The drift moves every
    timing of a run together, so no statistic inside one run removes
    it.  Instead the benchmark times :func:`reference_kernel` at the
    boundaries between blocks of work (a build, or ~0.5 s of calls) and,
    inside a long single-process call, every ``interval`` seconds (see
    :meth:`sampled`).  Each block's wall times are scaled by
    ``REFERENCE_KERNEL_S`` over the mean kernel time in and around the
    block, so a scaled time is in seconds at the reference host's speed.
    """

    def __init__(
        self,
        kernel: Callable[[], object] = reference_kernel,
        reference_s: float = REFERENCE_KERNEL_S,
        clock: Callable[[], float] = time.perf_counter,
        samples: int = 2,
        interval: float = 0.3,
    ):
        self._kernel = kernel
        self._clock = clock
        self._samples = samples
        self._interval = interval
        self._due = interval
        self.reference_s = reference_s
        self.kernel_s: list[float] = []
        self._inner: list[float] = []
        kernel()  # untimed: builds the kernel's data and warms the caches
        self._before = self._boundary()

    def _time_kernel(self) -> float:
        start = self._clock()
        self._kernel()
        elapsed = self._clock() - start
        self.kernel_s.append(elapsed)
        return elapsed

    def _boundary(self) -> list[float]:
        return [self._time_kernel() for _ in range(self._samples)]

    @contextmanager
    def sampled(self) -> Iterator[Callable[[], float]]:
        """Time the kernel every ``interval`` s spent inside such calls.

        A ``SIGALRM`` handler interrupts the call between bytecodes to
        time the kernel.  The timer keeps its remaining time from one
        call to the next, so calls shorter than ``interval`` are sampled
        too.  Yields a function that returns the seconds the
        handler has taken so far, to subtract from the call's wall time.
        Only for calls that run in this process alone: beside worker
        processes the kernel would compete with them for the cores.
        """
        paused = 0.0

        def handler(signum, frame) -> None:
            nonlocal paused
            start = self._clock()
            self._inner.append(self._time_kernel())
            paused += self._clock() - start

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self._due, self._interval)
        try:
            yield lambda: paused
        finally:
            self._due = signal.setitimer(signal.ITIMER_REAL, 0)[0] or self._interval
            signal.signal(signal.SIGALRM, previous)

    def close_block(self) -> float:
        """End a block of work; return the factor for its wall times."""
        after = self._boundary()
        window = self._before + self._inner + after
        self._before, self._inner = after, []
        return self.reference_s / (sum(window) / len(window))


# -- spans ---------------------------------------------------------------------


class SpanLog:
    """In-memory spans: name, start, end, parent index and one run id.

    Times are ``time.time()`` seconds, the clock the program's JSONL
    journal stamps its events with, so benchmark spans and journal spans
    can be nested into one tree.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.time):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": self._clock(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = self._clock()

    def adopt(self, reported: Sequence[tuple[str, float, float]]) -> None:
        """Add spans the program reported as ``(name, end, seconds)``.

        Each one's parent is the shortest span that contains it, so
        journal spans nest under the benchmark call that caused them
        and under each other.
        """
        first = len(self.spans)
        for name, end, seconds in reported:
            self.spans.append(
                {
                    "name": name,
                    "start": end - seconds,
                    "end": end,
                    "parent": None,
                    "run_id": self.run_id,
                }
            )
        for index in range(first, len(self.spans)):
            nest(self.spans, index)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def nest(spans: list[dict], index: int, tolerance: float = 2e-4) -> None:
    """Set ``spans[index]['parent']`` to its shortest enclosing span."""
    child = spans[index]
    length = child["end"] - child["start"]
    best: Optional[int] = None
    for j, other in enumerate(spans):
        if j == index or other["end"] is None:
            continue
        other_length = other["end"] - other["start"]
        if other_length <= length:
            continue
        if (
            other["start"] - tolerance <= child["start"]
            and child["end"] <= other["end"] + tolerance
        ):
            if best is None or other_length < (
                spans[best]["end"] - spans[best]["start"]
            ):
                best = j
    child["parent"] = best


def self_times(spans: Sequence[Mapping]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so self times never go negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((s["end"] - s["start"]) - covered)
    return result


def coverage(spans: Sequence[Mapping], unexplained: frozenset[str]) -> float:
    """Share of the root spans' wall time that named layers explain.

    Self time of a root span, or of a span named in ``unexplained``
    (public calls whose inside the program reports no finer span for),
    counts as unexplained; every other span's self time is explained.
    """
    selfs = self_times(spans)
    wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    explained = sum(
        t
        for s, t in zip(spans, selfs)
        if s["parent"] is not None and s["name"] not in unexplained
    )
    return explained / wall if wall > 0 else 0.0


# -- counters ------------------------------------------------------------------


def bulk_ratios(counters: Mapping[str, float]) -> dict[str, float]:
    """Absorb ratio and rows per window of the bulk ingest path.

    Every speculative window ends either with its whole width absorbed
    or at a row that falls back to scalar insertion, so a window touches
    its absorbed rows plus at most one fallback row.
    """
    windows = counters.get("bulk.windows", 0)
    absorbed = counters.get("bulk.absorbed_rows", 0)
    fallback = counters.get("bulk.fallback_rows", 0)
    touched = absorbed + fallback
    return {
        "tree.bulk_absorb_ratio": absorbed / touched if touched else 0.0,
        "tree.rows_per_window": touched / windows if windows else 0.0,
    }


# -- leaks ---------------------------------------------------------------------


def check_no_leaks(segment_count: Callable[[], int]) -> None:
    """Raise :class:`LeakError` if a child process or segment survives.

    ``segment_count`` reports the parent-owned shared-memory segments
    still open (``repro.parallel.shm.active_segment_count``).
    """
    alive = multiprocessing.active_children()
    if alive:
        for child in alive:
            child.join(timeout=5.0)
        raise LeakError(
            f"{len(alive)} child process(es) still alive: "
            f"{[c.pid for c in alive]}"
        )
    segments = segment_count()
    if segments:
        raise LeakError(f"{segments} shared-memory segment(s) still open")


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if it started.

    Creating a shared-memory segment launches the tracker as a child of
    this process; it would otherwise outlive the benchmark briefly.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def assert_no_children() -> None:
    """Raise :class:`LeakError` if this process has any child left."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise LeakError(
        "a child process is still running" if pid == 0 else f"child {pid} was left"
    )
