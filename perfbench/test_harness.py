"""Tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

import harness
from harness import (
    LeakError,
    SpanLog,
    bulk_ratios,
    check_no_leaks,
    HostSpeed,
    coverage,
    self_times,
)


class TestHostSpeed:
    def test_block_factor_uses_the_kernel_times_around_the_block(self):
        ticks = iter([0.0, 0.02, 1.0, 1.04]).__next__
        speed = HostSpeed(kernel=lambda: None, reference_s=0.02, clock=ticks, samples=1)
        assert speed.close_block() == pytest.approx(0.02 / 0.03)
        assert speed.kernel_s == pytest.approx([0.02, 0.04])

    def test_reference_kernel_is_deterministic(self):
        assert harness.reference_kernel(100) == harness.reference_kernel(100)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run_id": "t"}


class TestSelfTime:
    def test_nested_and_overlapping_children_are_subtracted_once(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 4.0, 0),
            _span("a.inner", 2.0, 3.0, 1),
            _span("b", 3.5, 6.0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span("root", 0.0, 2.0, None), _span("late", 1.5, 3.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_reported_spans_nest_under_the_call_that_caused_them(self):
        clock = iter([0.0, 10.0]).__next__
        log = SpanLog("run", clock=clock)
        with log.span("birch.fit"):
            pass
        # (name, end, seconds) in emission order: children end first.
        log.adopt([("shard.build", 5.0, 3.0), ("phase1", 6.0, 5.0), ("phase4", 9.0, 2.0)])
        parents = {s["name"]: s["parent"] for s in log.spans}
        assert parents == {"birch.fit": None, "shard.build": 2, "phase1": 0, "phase4": 0}
        assert self_times(log.spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])
        assert coverage(log.spans, frozenset({"birch.fit"})) == pytest.approx(0.7)
        assert {s["run_id"] for s in log.spans} == {"run"}


def test_bulk_ratios_from_counters():
    counters = {
        "bulk.windows": 1000.0,
        "bulk.absorbed_rows": 3000.0,
        "bulk.fallback_rows": 1000.0,
    }
    assert bulk_ratios(counters) == {
        "tree.bulk_absorb_ratio": 0.75,
        "tree.rows_per_window": 4.0,
    }
    assert bulk_ratios({}) == {
        "tree.bulk_absorb_ratio": 0.0,
        "tree.rows_per_window": 0.0,
    }


class TestLeakCheck:
    def test_raises_while_a_child_process_is_alive(self):
        child = multiprocessing.get_context("spawn").Process(
            target=time.sleep, args=(30,), daemon=True
        )
        child.start()
        try:
            with pytest.raises(LeakError):
                check_no_leaks(lambda: 0)
        finally:
            child.terminate()
            child.join(timeout=10)
        assert not child.is_alive()
        check_no_leaks(lambda: 0)

    def test_raises_on_an_open_segment(self):
        with pytest.raises(LeakError):
            check_no_leaks(lambda: 1)


def test_metric_tables_match_benchmark_json():
    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
