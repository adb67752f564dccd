"""Tests of the benchmark's own machinery (not of the library).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
from common import HostClock, percentile, tail  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from parity import scalar_parity  # noqa: E402
from tracer import Tracer  # noqa: E402


class _Work:
    def outer(self, tracer_sleep):
        time.sleep(tracer_sleep)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.002)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.wrap(_Work, "outer", "outer")
    tracer.wrap(_Work, "inner", "inner")
    try:
        _Work().outer(0.004)
    finally:
        tracer.unwrap_all()
    spans = tracer.summary()
    assert spans.count("outer") == 1 and spans.count("inner") == 2
    assert spans.self_s("outer") == pytest.approx(spans.total("outer") - spans.total("inner"))
    assert spans.self_s("inner") == pytest.approx(spans.total("inner"))
    assert spans.top_level_union_s() == pytest.approx(spans.total("outer"))


def test_unwrap_restores_the_original_method():
    original = _Work.inner
    tracer = Tracer()
    tracer.wrap(_Work, "inner", "inner")
    assert _Work.inner is not original
    tracer.unwrap_all()
    assert _Work.inner is original
    work = _Work()
    tracer.wrap(work, "inner", "inner")
    tracer.unwrap_all()
    assert "inner" not in vars(work)


def test_union_merges_overlapping_spans():
    tracer = Tracer()
    tracer.add_span("a", 0.0, 2.0)
    tracer.add_span("b", 1.0, 3.0)
    tracer.add_span("c", 5.0, 6.0)
    assert tracer.summary().top_level_union_s() == pytest.approx(4.0)


def test_layer_metrics_report_every_metric_and_add_up():
    tracer = Tracer()
    tracer.wrap(_Work, "outer", "dataflow.tick")
    try:
        start = time.perf_counter()
        _Work().outer(0.001)
        time.sleep(0.003)
        wall = time.perf_counter() - start
    finally:
        tracer.unwrap_all()
    metrics = layer_metrics(tracer, wall_s=wall, overhead_frac=0.0)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["render.frames"] == (0.0, "count")
    spans = tracer.summary()
    attributed = spans.top_level_union_s()
    assert attributed + metrics["trace.unattributed_s"][0] == pytest.approx(wall)


def test_percentiles():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile(range(101), 99) == pytest.approx(99.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(range(10000), 99.9) == pytest.approx(9989.001)
    assert tail(range(100), 90.0) == pytest.approx(89.1)
    for count, q in ((9999, 99.9), (99, 90.0)):
        with pytest.raises(RuntimeError, match="samples beyond"):
            tail(range(count), q)
    # A fleet run flies until it holds samples_for_tail(q) ticks.
    for q in (90.0, 99.5, 99.9):
        tail(range(common.samples_for_tail(q)), q)
        with pytest.raises(RuntimeError, match="samples beyond"):
            tail(range(common.samples_for_tail(q) - 2), q)


def test_host_clock_scales_by_the_latest_probe(monkeypatch):
    probes = iter([2 * common.REFERENCE_PROBE_S, common.REFERENCE_PROBE_S / 2])
    monkeypatch.setattr(common, "probe_s", lambda: next(probes))
    host = HostClock()
    # A host twice as slow as the reference halves every time ...
    assert host.scale(0.004) == pytest.approx(0.002)
    # ... until PROBE_EVERY_S of host time has gone by and it re-probes.
    assert host.scale(common.PROBE_EVERY_S) == pytest.approx(common.PROBE_EVERY_S / 2)
    assert host.scale(0.004) == pytest.approx(0.008)
    assert len(host.probes) == 2


def test_tracer_pause_leaves_no_spans():
    tracer = Tracer()
    tracer.wrap(_Work, "inner", "inner")
    try:
        with tracer.paused():
            _Work().inner()
        _Work().inner()
    finally:
        tracer.unwrap_all()
    assert tracer.summary().count("inner") == 1


def test_parity_with_nothing_to_check_fails():
    assert scalar_parity(None, [], random.Random(0), 6) == (1, 1, 0)


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run fails with no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-orchard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
