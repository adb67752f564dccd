"""Which public calls the traced run wraps, and the per-layer metrics.

Layers are named after the ``repro`` modules they time.  Every traced
run reports every metric of :data:`LAYER_METRICS`; a layer a workload
does not load reads 0 there.
"""

from __future__ import annotations

from repro.dataflow.graph import Graph
from repro.drone.agent import DroneAgent
from repro.human.agent import HumanAgent
from repro.mission.executor import MissionExecutor
from repro.mission.surveillance import SurveillanceExecutor
from repro.protocol.recognizer import RecognizerPerception
from repro.recorder import FlightRecorder
from repro.signaling.ring import AllRoundLightRing
from repro.simulation.wind import WindModel
from repro.simulation.world import World

from common import percentile
from tracer import Tracer

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "world.step_s": "s",
    "world.drone_s": "s",
    "world.led_s": "s",
    "world.led_calls": "count",
    "world.wind_s": "s",
    "world.human_s": "s",
    "dataflow.ticks": "count",
    "dataflow.tick_s": "s",
    "dataflow.node_s": "s",
    "dataflow.overhead_s": "s",
    "dataflow.tick_p50_ms": "ms",
    "dataflow.tick_p99_ms": "ms",
    "mission.tick_s": "s",
    "mission.predict_s": "s",
    "mission.active_mean": "count",
    "perception.query_s": "s",
    "perception.queries": "count",
    "perception.lookup_s": "s",
    "perception.miss_ratio": "ratio",
    "perception.frames_per_call": "count",
    "render.s": "s",
    "render.frames": "count",
    "render.ms_per_frame": "ms",
    "preprocess.s": "s",
    "preprocess.ms_per_frame": "ms",
    "preprocess.rejected_ratio": "ratio",
    "match.s": "s",
    "match.frames": "count",
    "match.accept_ratio": "ratio",
    "service.batches": "count",
    "service.batch_fill": "count",
    "service.queue_wait_ms": "ms",
    "service.worker_busy_s": "s",
    "gateway.admitted": "count",
    "gateway.shed": "count",
    "gateway.queue_wait_ms": "ms",
    "recorder.record_s": "s",
    "recorder.events": "count",
    "recorder.bytes": "bytes",
    "recorder.finalize_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Fleet-graph nodes whose ``process`` the traced run wraps.
NODE_SPAN_PREFIX = "node."

_LED_METHODS = ("set_heading", "set_navigation", "trigger_safety", "extinguish")


def _count_lookup(counters, args, result) -> None:
    counters["lookup.in"] += sum(1 for query in args[1] if query is not None)
    counters["lookup.out"] += len(result)


def _count_render(counters, args, result) -> None:
    counters["render.frames"] += len(args[1])


def _count_preprocess(counters, args, result) -> None:
    counters["preprocess.frames"] += len(result)
    counters["preprocess.rejected"] += sum(1 for pre in result if not pre.ok)


def _count_match(counters, args, result) -> None:
    counters["match.frames"] += len(args[1])
    counters["match.usable"] += sum(1 for pre in args[2] if pre.ok)
    counters["match.accepted"] += sum(1 for sign in result if sign is not None)


def wrap_perception(tracer: Tracer) -> None:
    """Trace the recognition layers through ``RecognizerPerception``'s seams."""
    tracer.wrap(RecognizerPerception, "query", "perception.query")
    tracer.wrap(RecognizerPerception, "pending_misses", "perception.lookup", _count_lookup)
    tracer.wrap(RecognizerPerception, "render_batch", "render", _count_render)
    tracer.wrap(RecognizerPerception, "preprocess_batch", "preprocess", _count_preprocess)
    tracer.wrap(RecognizerPerception, "match_batch", "match", _count_match)


def wrap_fleet(tracer: Tracer, recorded: bool = False) -> None:
    """Trace the world step, dataflow, mission and perception layers
    (and the flight recorder when *recorded*)."""

    def _next_tick(counters, args, result) -> None:
        tracer.tag += 1

    tracer.wrap(Graph, "tick", "dataflow.tick", _next_tick)
    tracer.wrap(World, "step", "world.step")
    tracer.wrap(DroneAgent, "update", "world.drone")
    for method in _LED_METHODS:
        tracer.wrap(AllRoundLightRing, method, "world.led")
    tracer.wrap(WindModel, "update", "world.wind")
    tracer.wrap(WindModel, "velocity_at", "world.wind")
    tracer.wrap(HumanAgent, "update", "world.human")
    for executor in (MissionExecutor, SurveillanceExecutor):
        tracer.wrap(executor, "tick", "mission.tick")
        tracer.wrap(executor, "pending_observation", "mission.predict")
    wrap_perception(tracer)
    if recorded:
        tracer.wrap(FlightRecorder, "record", "recorder.record")
        tracer.wrap(FlightRecorder, "finalize", "recorder.finalize")


def wrap_graph_nodes(tracer: Tracer, graph: Graph) -> None:
    """Trace each node's ``process`` of one built graph."""
    for node in graph.nodes:
        tracer.wrap(node, "process", NODE_SPAN_PREFIX + node.name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, overhead_frac: float, extra=None) -> dict:
    """Every :data:`LAYER_METRICS` entry as ``name -> (value, unit)``.

    *wall_s* is the traced window's wall time; *extra* overrides the
    entries a workload measures itself (service, gateway, recorder
    bytes)."""
    spans = tracer.summary()
    counters = tracer.counters
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    values["world.step_s"] = spans.total("world.step")
    values["world.drone_s"] = spans.self_s("world.drone")
    values["world.led_s"] = spans.total("world.led")
    values["world.led_calls"] = spans.count("world.led")
    values["world.wind_s"] = spans.total("world.wind")
    values["world.human_s"] = spans.total("world.human")
    ticks = spans.durations("dataflow.tick")
    values["dataflow.ticks"] = len(ticks)
    values["dataflow.tick_s"] = float(ticks.sum())
    values["dataflow.node_s"] = sum(
        spans.total(name) for name in spans.names if name.startswith(NODE_SPAN_PREFIX)
    )
    if len(ticks):
        values["dataflow.overhead_s"] = values["dataflow.tick_s"] - values["dataflow.node_s"]
        values["dataflow.tick_p50_ms"] = percentile(ticks, 50.0) * 1e3
        values["dataflow.tick_p99_ms"] = percentile(ticks, 99.0) * 1e3
    values["mission.tick_s"] = spans.total("mission.tick")
    values["mission.predict_s"] = spans.total("mission.predict")
    values["mission.active_mean"] = _ratio(spans.count("mission.tick"), len(ticks))
    values["perception.query_s"] = spans.total("perception.query")
    values["perception.queries"] = spans.count("perception.query")
    values["perception.lookup_s"] = spans.total("perception.lookup")
    values["perception.miss_ratio"] = _ratio(counters["lookup.out"], counters["lookup.in"])
    values["perception.frames_per_call"] = _ratio(
        counters["render.frames"], spans.count("render")
    )
    values["render.s"] = spans.total("render")
    values["render.frames"] = counters["render.frames"]
    values["render.ms_per_frame"] = _ratio(values["render.s"] * 1e3, counters["render.frames"])
    values["preprocess.s"] = spans.total("preprocess")
    values["preprocess.ms_per_frame"] = _ratio(
        values["preprocess.s"] * 1e3, counters["preprocess.frames"]
    )
    values["preprocess.rejected_ratio"] = _ratio(
        counters["preprocess.rejected"], counters["preprocess.frames"]
    )
    values["match.s"] = spans.total("match")
    values["match.frames"] = counters["match.frames"]
    values["match.accept_ratio"] = _ratio(counters["match.accepted"], counters["match.usable"])
    values["recorder.record_s"] = spans.total("recorder.record")
    values["recorder.events"] = spans.count("recorder.record")
    values["recorder.finalize_s"] = spans.total("recorder.finalize")
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - spans.top_level_union_s()
    values["trace.overhead_frac"] = overhead_frac
    values.update(extra or {})
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS.items()}
