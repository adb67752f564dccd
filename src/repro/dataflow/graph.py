"""The dataflow executor: an ordered chain of nodes, ticked in order.

A :class:`Graph` owns an ordered list of
:class:`~repro.dataflow.node.Node`\\ s.  :meth:`Graph.tick` calls them
one after another, handing each the token list the previous one
returned, so one tick moves data the whole length of the pipeline and a
fleet tick stays a single deterministic sweep (the migration contract:
a graph-scheduled fleet replays the legacy lockstep loop byte-for-byte).
The first node runs every tick; a later node that gets no token is
skipped, and so is the rest of the chain.

A node raising mid-tick **fails the graph loudly**: the error is
re-raised as :class:`NodeFailure` naming the node and tick, and the
graph closes every node first, so owned resources are always released
(:meth:`Graph.close` is idempotent and also runs on context-manager
exit).  Errors from those ``close()`` calls never mask the failure:
they ride on :attr:`NodeFailure.close_error`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.dataflow.node import Node, NodeStats

__all__ = [
    "Graph",
    "GraphError",
    "GraphStats",
    "NodeFailure",
]


class GraphError(RuntimeError):
    """Invalid graph structure or use of a closed/failed graph."""


class NodeFailure(RuntimeError):
    """A node raised during :meth:`Graph.tick`; names the node.

    ``__cause__`` is the node's exception.  ``close_error`` is the
    :class:`GraphError` raised while closing the failed graph, if any
    node's ``close()`` also raised (``None`` otherwise).
    """

    def __init__(self, node_name: str, tick: int, cause: BaseException) -> None:
        super().__init__(
            f"node {node_name!r} failed on graph tick {tick}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.node_name = node_name
        self.tick = tick
        self.close_error: GraphError | None = None


@dataclass(frozen=True)
class GraphStats:
    """Per-node counters for one graph."""

    ticks: int
    nodes: tuple[NodeStats, ...]

    def node(self, name: str) -> NodeStats:
        """Look up one node's stats by name."""
        for stats in self.nodes:
            if stats.name == name:
                return stats
        raise KeyError(f"no node named {name!r}")

    def as_dict(self) -> dict:
        """JSON-ready view: per-node token counts and latency."""
        return {
            "ticks": self.ticks,
            "nodes": {
                n.name: {
                    "ticks": n.ticks,
                    "items_in": n.items_in,
                    "items_out": n.items_out,
                    "busy_s": round(n.busy_s, 6),
                    "mean_tick_ms": round(n.mean_tick_s * 1e3, 4),
                    "max_tick_ms": round(n.max_tick_s * 1e3, 4),
                }
                for n in self.nodes
            },
        }


class Graph:
    """A named, ordered chain of nodes.

    Build with :meth:`add`, then drive with :meth:`tick` (one
    synchronous sweep).  Use as a context manager to guarantee
    :meth:`close`.
    """

    def __init__(self, name: str = "graph", tap=None) -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._ticks = 0
        self._closed = False
        self._failed: NodeFailure | None = None
        # Observability hook: called as tap(tick, node, tokens_in,
        # tokens_out) after each node processes.  Must be a pure reader
        # (the flight recorder's zero-intrusion contract) and must not
        # raise — an exception here fails the tick like a node would.
        self._tap = tap

    def add(self, node: Node) -> Node:
        """Append *node* to the chain; returns it for chaining."""
        if any(existing.name == node.name for existing in self._nodes):
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes.append(node)
        return node

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The graph's nodes, in chain order."""
        return tuple(self._nodes)

    def tick(self) -> None:
        """Run one synchronous sweep down the chain.

        Each node gets the tokens the one before it returned (the first
        gets none).  A node exception closes the graph and re-raises as
        :class:`NodeFailure`.
        """
        if self._failed is not None:
            raise GraphError(
                f"graph {self.name!r} already failed: {self._failed}"
            ) from self._failed
        if self._closed:
            raise GraphError(f"graph {self.name!r} is closed")
        tokens: list = []
        for index, node in enumerate(self._nodes):
            if index and not tokens:
                break
            started = time.perf_counter()
            try:
                # Looked up per call, so a process wrapped on the
                # instance after construction is the one that runs.
                outputs = node.process(tokens)
            except Exception as exc:
                self._fail(node, exc)
            node.metrics.record(len(tokens), len(outputs), time.perf_counter() - started)
            if self._tap is not None:
                self._tap(self._ticks, node, tokens, outputs)
            tokens = outputs
        self._ticks += 1

    def _fail(self, node: Node, exc: Exception) -> None:
        """Close the graph after *node* raised *exc*; raise :class:`NodeFailure`."""
        failure = NodeFailure(node.name, self._ticks, exc)
        self._failed = failure
        try:
            self.close()
        except GraphError as close_error:
            failure.close_error = close_error
            failure.add_note(str(close_error))
        raise failure from exc

    def close(self) -> None:
        """Close every node.  Idempotent.

        Runs on context-manager exit and on node failure, so
        node-owned resources are released even when a tick raises;
        stats stay readable after close.
        """
        if self._closed:
            return
        self._closed = True
        errors: list[BaseException] = []
        for node in self._nodes:
            try:
                node.close()
            except Exception as exc:  # noqa: BLE001 — close everything first
                errors.append(exc)
        if errors:
            raise GraphError(
                f"errors closing graph {self.name!r}: "
                + "; ".join(f"{type(e).__name__}: {e}" for e in errors)
            )

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (or a node failed)."""
        return self._closed

    def __enter__(self) -> "Graph":
        """Context-manager entry: returns the graph."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    def stats(self) -> GraphStats:
        """Per-node counters, in chain order."""
        return GraphStats(
            ticks=self._ticks,
            nodes=tuple(node.stats() for node in self._nodes),
        )
