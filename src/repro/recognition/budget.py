"""Real-time budget accounting for the recognition pipeline.

The paper reports 38 ms (0°) and 27 ms (65°) per frame and argues the
approach can reach 30–60 fps after optimisation.  Absolute numbers are
hardware-bound, so the library instead *measures* each stage and checks
the result against a configurable frame budget — the reproducible claim
is "comfortably within a real-time budget on unoptimised Python", and
the latency benchmark reports the same stage split the paper discusses
(pre-processing dominant, SAX conversion + string search cheap).

Stages form a two-level hierarchy through dotted names: a stage timed
as ``"preprocess.threshold"`` is a *sub-stage* nested inside the
wall-clock of its parent ``"preprocess"``.  Totals and the budget check
count only top-level stages (a parent already covers its children), so
the batched vision front-end can publish its internal stage split
without double-counting; ``stage_fraction`` addresses either level.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["StageTiming", "FrameBudget", "BudgetReport"]


@dataclass(frozen=True, slots=True)
class StageTiming:
    """Wall-clock duration of one pipeline stage."""

    stage: str
    duration_s: float


@dataclass
class FrameBudget:
    """Collects stage timings for one processed frame (or frame batch).

    ``frame_count`` supports batched pipelines: stage timings then cover
    the whole batch and the budget check applies to the *amortised*
    per-frame cost, which is the quantity a frame-stream consumer pays.
    """

    budget_s: float = 1.0 / 30.0  # the paper's 30 fps target
    timings: list[StageTiming] = field(default_factory=list)
    frame_count: int = 1

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ValueError("budget must be positive")
        if self.frame_count < 1:
            raise ValueError("frame count must be >= 1")
        self._active: list[str] = []  # stack of currently open stage names

    @property
    def current_stage(self) -> str | None:
        """Name of the innermost stage currently being timed, if any."""
        return self._active[-1] if self._active else None

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage."""
        start = time.perf_counter()
        self._active.append(name)
        try:
            yield
        finally:
            self._active.pop()
            self.timings.append(StageTiming(name, time.perf_counter() - start))

    @contextmanager
    def substage(self, name: str) -> Iterator[None]:
        """Time a sub-stage of whatever stage is currently open.

        Recorded as ``"<parent>.<name>"`` inside a :meth:`stage` block
        (nested inside the parent's wall-clock, excluded from totals);
        recorded as a plain top-level stage when no stage is open, so a
        direct caller still gets a meaningful total.
        """
        parent = self.current_stage
        full_name = f"{parent}.{name}" if parent else name
        with self.stage(full_name):
            yield

    def total_s(self) -> float:
        """Total measured time across top-level stages (whole batch).

        Dotted sub-stages (``"preprocess.threshold"``) are excluded:
        their wall-clock already lies inside their parent stage.
        """
        return sum(t.duration_s for t in self.timings if "." not in t.stage)

    def per_frame_s(self) -> float:
        """Amortised time per frame."""
        return self.total_s() / self.frame_count

    def within_budget(self) -> bool:
        """``True`` when the (per-frame amortised) cost fit the budget."""
        return self.per_frame_s() <= self.budget_s

    def report(self) -> "BudgetReport":
        """Freeze the current timings into a report."""
        return BudgetReport(
            budget_s=self.budget_s,
            stages=tuple(self.timings),
            total_s=self.total_s(),
            frame_count=self.frame_count,
        )


@dataclass(frozen=True)
class BudgetReport:
    """Immutable stage-timing summary for one frame (or frame batch)."""

    budget_s: float
    stages: tuple[StageTiming, ...]
    total_s: float
    frame_count: int = 1

    @property
    def per_frame_s(self) -> float:
        """Amortised time per frame."""
        return self.total_s / self.frame_count

    @property
    def within_budget(self) -> bool:
        """``True`` when the (per-frame amortised) cost fit the budget."""
        return self.per_frame_s <= self.budget_s

    def stage_fraction(self, stage: str) -> float:
        """Fraction of total time spent in *stage* (0 when unmeasured)."""
        if self.total_s <= 0:
            return 0.0
        spent = sum(t.duration_s for t in self.stages if t.stage == stage)
        return spent / self.total_s

    def summary(self) -> str:
        """One-line human-readable split."""
        parts = ", ".join(f"{t.stage}={t.duration_s * 1e3:.1f}ms" for t in self.stages)
        verdict = "OK" if self.within_budget else "OVER"
        if self.frame_count > 1:
            return (
                f"total={self.total_s * 1e3:.1f}ms over {self.frame_count} frames "
                f"({self.per_frame_s * 1e3:.2f}ms/frame) "
                f"[{verdict} @ {self.budget_s * 1e3:.1f}ms]: {parts}"
            )
        return f"total={self.total_s * 1e3:.1f}ms [{verdict} @ {self.budget_s * 1e3:.1f}ms]: {parts}"
