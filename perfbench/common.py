"""Helpers shared by every perfbench workload: percentiles, memory,
host fingerprint and the result record a workload returns."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Repository root: perfbench/ sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their detail records and span dumps (git-ignored).
OUT_DIR = ROOT / ".perfbench"


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to ``(value, unit)``; ``detail``
    carries the workload-specific figures that are not benchmark
    metrics (checks, counts, the workload's own metric names)."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Samples a tail percentile must have beyond it to be reported.
TAIL_SAMPLES = 10


def samples_for_tail(q: float) -> int:
    """Samples a run needs for :func:`tail` at the *q*-th percentile."""
    return math.ceil(TAIL_SAMPLES * 100.0 / (100.0 - q))


def tail(values, q: float) -> float:
    """The *q*-th percentile of *values*, which must have at least
    :data:`TAIL_SAMPLES` samples beyond it.

    Each workload fixes its tail percentile, so a baseline and a
    candidate are always compared at the same one; a run too short to
    estimate it fails instead of falling back to a lower percentile."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < TAIL_SAMPLES - 1e-9:
        raise RuntimeError(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it, "
            f"{len(values)} samples give {beyond:.1f}"
        )
    return percentile(values, q)


#: Host time :func:`probe_s` takes on the reference host.  Calibrated
#: figures are host times scaled by ``REFERENCE_PROBE_S / probe time``.
REFERENCE_PROBE_S = 500e-6
#: Host time between two probes while a :class:`HostClock` runs.
PROBE_EVERY_S = 0.025


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_PROBE_ARRAY = np.random.default_rng(0).random((60, 80))


def _probe_work() -> float:
    """Fixed work in about the mix of a fleet tick: interpreted object,
    dict and float work (~60 %), then small numpy kernels (~40 %)."""
    table = {}
    points = []
    total = 0.0
    for i in range(300):
        point = _Point(i * 0.5, i * 0.25)
        points.append(point)
        table[i & 63] = point
        total += math.hypot(point.x - point.y, 1.0)
    for point in points:
        total += table[int(point.x) & 63].y
    array = _PROBE_ARRAY
    for _ in range(12):
        array = np.sqrt(array * array + 1.0) - 0.5
    return total + float(array[0, 0])


def probe_s(calls: int = 3) -> float:
    """Host time of :func:`_probe_work`, the fastest of *calls*.

    A shared host can change speed by up to 1.6x for seconds to minutes
    at a time, with CPU time equal to wall time (README.md, "Steadiness
    on a shared host"); the probe measures the speed the host runs the
    workloads' kind of code at that moment."""
    best = math.inf
    clock = time.perf_counter
    for _ in range(calls):
        start = clock()
        _probe_work()
        best = min(best, clock() - start)
    return best


class HostClock:
    """Scales host times to the reference host's speed.

    :meth:`scale` multiplies a time by ``REFERENCE_PROBE_S / p``, where
    ``p`` is the latest probe; a new probe is taken once
    :data:`PROBE_EVERY_S` of host time has gone by, so every stretch of
    about 25 ms is scaled by the host's speed just before it."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._probe()

    def _probe(self) -> None:
        self.probes.append(probe_s())
        self._factor = REFERENCE_PROBE_S / self.probes[-1]
        self._since = 0.0

    def scale(self, host_s: float) -> float:
        self._since += host_s
        scaled = host_s * self._factor
        if self._since >= PROBE_EVERY_S:
            self._probe()
        return scaled


def median_setup(build, repeats: int = 5):
    """Run *build* ``repeats`` times; return ``(median calibrated
    seconds, last value)``.  Each build is scaled by a probe taken just
    before it.  Every value but the last is released with its
    ``close()`` (when it has one) before the next build."""
    times = []
    value = None
    for index in range(repeats):
        factor = REFERENCE_PROBE_S / probe_s()
        start = time.perf_counter()
        value = build()
        times.append((time.perf_counter() - start) * factor)
        if index < repeats - 1:
            close = getattr(value, "close", None)
            if close is not None:
                close()
    return statistics.median(times), value


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (plus reaped children) in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def git_sha() -> str:
    """The checkout's commit: ``git rev-parse`` when it is a repository,
    else ``unknown`` (benchmark checkouts are plain file trees)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def fingerprint() -> dict:
    """Host facts every result records: cores, Python, numpy, git sha."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def write_detail(name: str, payload: dict) -> Path:
    """Write *payload* as ``.perfbench/<name>.json``; returns the path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path
