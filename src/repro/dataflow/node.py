"""Dataflow nodes: named processing stages with per-node metrics.

A :class:`Node` is one stage of a linear pipeline: its
:meth:`~Node.process` takes the token list the previous stage returned
and returns the tokens for the next one.  Nodes never call each other
directly — the :class:`~repro.dataflow.graph.Graph` hands the tokens
down the chain — so a stage can be measured, replaced or wrapped
without its neighbours noticing.

Every node owns a :class:`NodeMetrics`: invocation count, tokens in and
out, and cumulative and worst-case processing latency (the per-node
analogue of the recognition
:class:`~repro.recognition.budget.FrameBudget`).  The graph rolls these
up into :class:`~repro.dataflow.graph.GraphStats`, so per-stage latency
is a built-in property of the runtime rather than ad-hoc
instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Node",
    "NodeMetrics",
    "NodeStats",
]


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Immutable snapshot of one node's runtime counters."""

    name: str
    ticks: int
    items_in: int
    items_out: int
    busy_s: float
    max_tick_s: float

    @property
    def mean_tick_s(self) -> float:
        """Mean processing latency per invocation."""
        if self.ticks == 0:
            return 0.0
        return self.busy_s / self.ticks


class NodeMetrics:
    """Mutable runtime counters behind a node's :class:`NodeStats`."""

    def __init__(self) -> None:
        self.ticks = 0
        self.items_in = 0
        self.items_out = 0
        self.busy_s = 0.0
        self.max_tick_s = 0.0

    def record(self, items_in: int, items_out: int, elapsed_s: float) -> None:
        """Account one completed :meth:`Node.process` invocation."""
        self.ticks += 1
        self.items_in += items_in
        self.items_out += items_out
        self.busy_s += elapsed_s
        self.max_tick_s = max(self.max_tick_s, elapsed_s)

    def snapshot(self, name: str) -> NodeStats:
        """Freeze the counters into a :class:`NodeStats`."""
        return NodeStats(
            name=name,
            ticks=self.ticks,
            items_in=self.items_in,
            items_out=self.items_out,
            busy_s=self.busy_s,
            max_tick_s=self.max_tick_s,
        )


class Node:
    """Base class for one pipeline stage.

    Subclasses implement :meth:`process`.  The first node of a graph is
    its *source*: the graph invokes it every tick (with no tokens); any
    later node is invoked only when the stage before it returned at
    least one token.

    Parameters
    ----------
    name:
        Unique name within the graph.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.metrics = NodeMetrics()

    def process(self, tokens: list) -> list:
        """Map one tick's input tokens onto the tokens for the next stage."""
        raise NotImplementedError

    def close(self) -> None:
        """Release node-owned resources; called once by the graph."""

    def stats(self) -> NodeStats:
        """Snapshot this node's runtime counters."""
        return self.metrics.snapshot(self.name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
