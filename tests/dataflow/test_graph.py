"""Graph executor: the linear chain, its metrics and loud failure."""

import pytest

from repro.dataflow import Graph, GraphError, Node, NodeFailure


class EmitNode(Node):
    """Source emitting one preloaded item per tick."""

    def __init__(self, items, name="emit"):
        super().__init__(name)
        self._items = list(items)

    def process(self, tokens):
        if not self._items:
            return []
        return [self._items.pop(0)]


class BurstNode(Node):
    """Source emitting *all* preloaded items on its first tick."""

    def __init__(self, items, name="burst"):
        super().__init__(name)
        self._items = list(items)

    def process(self, tokens):
        items, self._items = self._items, []
        return items


class DoubleNode(Node):
    """Doubles every item it is handed."""

    def process(self, tokens):
        return [2 * x for x in tokens]


class CollectNode(Node):
    """Sink collecting everything it receives; records close()."""

    def __init__(self, name="collect"):
        super().__init__(name)
        self.items = []
        self.close_calls = 0

    def process(self, tokens):
        self.items.extend(tokens)
        return []

    def close(self):
        self.close_calls += 1


class FailNode(Node):
    """Raises on the first item it sees."""

    def __init__(self, name="fail"):
        super().__init__(name)
        self.close_calls = 0

    def process(self, tokens):
        raise RuntimeError("boom")

    def close(self):
        self.close_calls += 1


def linear(*nodes):
    graph = Graph()
    for node in nodes:
        graph.add(node)
    return graph


class TestWiring:
    def test_duplicate_node_name_rejected(self):
        graph = Graph()
        graph.add(EmitNode([], name="x"))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add(CollectNode(name="x"))


class TestExecution:
    def test_one_tick_moves_data_the_whole_pipe(self):
        # source -> double -> sink all in ONE tick.
        sink = CollectNode()
        graph = linear(EmitNode([3]), DoubleNode("double"), sink)
        graph.tick()
        assert sink.items == [6]

    def test_non_source_skipped_when_no_items(self):
        sink = CollectNode()
        graph = linear(EmitNode([1]), sink)
        graph.tick()
        graph.tick()  # source emits nothing; sink must not be invoked
        assert graph.stats().node("collect").ticks == 1
        assert graph.stats().ticks == 2

    def test_metrics_count_items_and_latency(self):
        sink = CollectNode()
        graph = linear(BurstNode([1, 2, 3]), sink)
        graph.tick()
        burst = graph.stats().node("burst")
        collect = graph.stats().node("collect")
        assert (burst.items_in, burst.items_out) == (0, 3)
        assert (collect.items_in, collect.items_out) == (3, 0)
        assert collect.busy_s >= 0.0
        assert collect.mean_tick_s == pytest.approx(collect.busy_s)

    def test_tap_sees_each_node_tokens_in_and_out(self):
        calls = []
        graph = Graph(tap=lambda *args: calls.append(args))
        emit = graph.add(EmitNode([3]))
        double = graph.add(DoubleNode("double"))
        graph.tick()
        graph.tick()
        assert calls == [(0, emit, [], [3]), (0, double, [3], [6]), (1, emit, [], [])]


class TestFailure:
    def build_failing(self):
        fail = FailNode()
        sink = CollectNode()
        graph = linear(BurstNode([1]), fail, sink)
        return graph, fail, sink

    def test_node_failure_raises_and_names_the_node(self):
        graph, _, _ = self.build_failing()
        with pytest.raises(NodeFailure, match="node 'fail' failed on graph tick 0"):
            graph.tick()

    def test_failure_closes_graph_and_every_node(self):
        graph, fail, sink = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        assert graph.closed
        assert fail.close_calls == 1
        assert sink.close_calls == 1

    def test_close_errors_do_not_mask_the_node_failure(self):
        class BadCloseNode(FailNode):
            def process(self, tokens):
                raise ValueError("bad frame")

            def close(self):
                super().close()
                raise OSError("close failed")

        sink = CollectNode()
        graph = linear(BurstNode([1]), BadCloseNode(name="bad"), sink)
        with pytest.raises(NodeFailure, match="node 'bad' failed on graph tick 0") as info:
            graph.tick()
        failure = info.value
        assert isinstance(failure.__cause__, ValueError)
        assert isinstance(failure.close_error, GraphError)
        assert "OSError: close failed" in str(failure.close_error)
        assert graph.closed
        assert sink.close_calls == 1  # the other nodes still closed

    def test_ticking_a_failed_graph_raises(self):
        graph, _, _ = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        with pytest.raises(GraphError, match="already failed"):
            graph.tick()

    def test_close_is_idempotent(self):
        graph, fail, _ = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        graph.close()
        graph.close()
        assert fail.close_calls == 1

    def test_context_manager_always_closes(self):
        sink = CollectNode()
        with linear(EmitNode([1]), sink) as graph:
            graph.tick()
        assert graph.closed
        assert sink.close_calls == 1

    def test_ticking_a_closed_graph_raises(self):
        graph = linear(EmitNode([1]), CollectNode())
        graph.close()
        with pytest.raises(GraphError, match="closed"):
            graph.tick()

    def test_stats_readable_after_close(self):
        sink = CollectNode()
        graph = linear(EmitNode([1]), sink)
        graph.tick()
        graph.close()
        assert graph.stats().node("collect").items_in == 1
