"""External span tracing: wrap a layer's public calls from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.wrap`
replaces a class method (or one object's method) with a wrapper that
records a span — name, start, end, parent span and the current tag
(fleet tick or request id) — and :meth:`Tracer.unwrap_all` puts the
originals back, so an untraced run executes exactly the library code.

Spans live in flat typed arrays while the run goes (about 28 bytes a
span) and are written out once, by :meth:`Tracer.dump`, at exit.  A
span's *self time* is its duration minus the durations of its direct
children; the layer metrics of :mod:`perfbench.layers` are computed
from self times, totals and the counters that ``after`` hooks add.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder for one thread, plus explicit spans
    (:meth:`add_span`) that any thread may add."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.tags = array("q")
        #: Tag stamped on every new span (the fleet tick, a request id).
        self.tag = -1
        #: While False, wrapped calls run untimed (see :meth:`paused`).
        self.recording = True
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, bool, object]] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        """The integer id of span name *name* (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording --------------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace every call of ``owner.attr`` as a span called *name*.

        *owner* is a class (every instance is traced) or one object.
        ``after(counters, args, result)`` runs once the call returned,
        to count the work the call did (frames, misses...).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        nid = self.name_id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, tags, stack, counters = self.parents, self.tags, self._stack, self.counters
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            tags.append(tracer.tag)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def paused(self):
        """Run the block with wrapped calls untimed and uncounted, so
        work outside the measured window leaves no spans."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def add_span(self, name: str, start: float, end: float, tag: int = -1) -> None:
        """Record a finished top-level span (thread-safe)."""
        with self._lock:
            nid = self.name_id(name)
            self.name_ids.append(nid)
            self.parents.append(-1)
            self.tags.append(tag)
            self.starts.append(start)
            self.ends.append(end)

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *key* (thread-safe)."""
        with self._lock:
            self.counters[key] += amount

    # -- analysis -----------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (one entry per span)."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tags, dtype=np.int64).copy(),
        }

    def summary(self) -> "SpanSummary":
        """Per-name totals, self times, counts and durations."""
        return SpanSummary(self.names, self.arrays())

    def dump(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Aggregates over a tracer's spans, by span name."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]) -> None:
        self.names = names
        self.spans = spans
        ids = spans["name_id"]
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        child_time = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child_time, parent[nested], duration[nested])
        self.duration = duration
        self.self_time = duration - child_time
        width = len(names)
        self._total = np.bincount(ids, weights=duration, minlength=width)
        self._self = np.bincount(ids, weights=self.self_time, minlength=width)
        self._count = np.bincount(ids, minlength=width)

    def _index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def total(self, name: str) -> float:
        """Summed wall time of every *name* span (children included)."""
        index = self._index(name)
        return float(self._total[index]) if index is not None else 0.0

    def self_s(self, name: str) -> float:
        """Summed self time of every *name* span."""
        index = self._index(name)
        return float(self._self[index]) if index is not None else 0.0

    def count(self, name: str) -> int:
        """Number of *name* spans."""
        index = self._index(name)
        return int(self._count[index]) if index is not None else 0

    def durations(self, name: str) -> np.ndarray:
        """Durations of every *name* span, in recording order."""
        index = self._index(name)
        if index is None:
            return np.zeros(0)
        return self.duration[self.spans["name_id"] == index]

    def top_level_union_s(self) -> float:
        """Wall time covered by at least one top-level span.

        Top-level spans of one thread never overlap, so this is their
        sum; concurrent spans (a server's queue waits) are merged."""
        top = self.spans["parent"] < 0
        starts = self.spans["start"][top]
        ends = self.spans["end"][top]
        if len(starts) == 0:
            return 0.0
        order = np.argsort(starts, kind="stable")
        covered = 0.0
        run_start, run_end = starts[order[0]], ends[order[0]]
        for start, end in zip(starts[order[1:]], ends[order[1:]]):
            if start > run_end:
                covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        return float(covered + run_end - run_start)
