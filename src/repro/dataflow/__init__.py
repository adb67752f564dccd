"""Linear dataflow runtime: an ordered chain of nodes with per-node metrics.

The fleet tick path used to be a lockstep monolith inside the
scheduler; this package decomposes such pipelines into explicit
:class:`~repro.dataflow.node.Node`\\ s that a
:class:`~repro.dataflow.graph.Graph` calls in order each tick, handing
each the token list the previous one returned.  That tick-synchronous
schedule (one deterministic sweep per tick) is the
byte-identical-transcript contract.  Per-node latency and token counts
are built into the runtime; see the "Dataflow runtime" section of
``docs/ARCHITECTURE.md``.
"""

from repro.dataflow.graph import Graph, GraphError, GraphStats, NodeFailure
from repro.dataflow.node import Node, NodeMetrics, NodeStats

__all__ = [
    "Graph",
    "GraphError",
    "GraphStats",
    "Node",
    "NodeFailure",
    "NodeMetrics",
    "NodeStats",
]
