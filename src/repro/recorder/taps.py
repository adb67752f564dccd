"""Read-only taps that feed a :class:`FlightRecorder` from a live run.

:class:`FleetRecorderTap` is the scheduler-side attachment: its
:meth:`~FleetRecorderTap.graph_tap` rides the
:class:`~repro.dataflow.graph.Graph` observability hook (called after
each node processes) to capture cache misses leaving ``lookup`` and the
verdicts ``match`` resolved them to, while :meth:`~FleetRecorderTap.on_tick`
— called by :class:`~repro.mission.fleet.FleetScheduler` after each
graph sweep — captures world-log deltas (negotiation transitions,
escalations, mission lifecycle), perception-counter deltas and a
per-tick summary of stage activity and of the tokens handed down each
hop of the stage chain (read off the nodes' counters).  Surveillance
escalations are also taken straight off each executor's
:class:`~repro.simulation.events.EventEmitter` via a wildcard
subscription.

Every tap is a pure reader: verdicts are read through
:meth:`~repro.protocol.recognizer.RecognizerPerception.peek` (no LRU
promotion, no counters), world logs are sliced by offset, and emitter
subscriptions only buffer.  The zero-intrusion fuzz suite
(``tests/recorder/``) asserts recorder-on and recorder-off runs are
byte-identical.

:func:`service_observer` and :func:`gateway_observer` adapt the
recorder to the :class:`~repro.service.RecognitionService` and
:class:`~repro.gateway.server.RecognitionGateway` observer callbacks;
their records land on the timing-dependent *ops* stream.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.protocol.recognizer import ObservationQuery, RecognizerPerception
from repro.recorder.events import canonical_line, encode_value
from repro.recorder.recorder import FlightRecorder

__all__ = ["FleetRecorderTap", "gateway_observer", "service_observer"]

#: World-log kinds recorded as ``negotiation`` (protocol transitions).
NEGOTIATION_KINDS = frozenset({"sign_observed", "protocol_state", "negotiation_started"})


def query_digest(payload: dict) -> str:
    """Short stable digest linking a verdict back to its observation."""
    line = canonical_line(encode_value(payload))
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def _query_payload(query: ObservationQuery) -> dict:
    settings = query.settings
    return {
        "sign": query.sign.value,
        "lean_deg": query.lean_deg,
        "human_x": query.human_x,
        "human_y": query.human_y,
        "facing_deg": query.facing_deg,
        "camera": [query.camera_x, query.camera_y, query.camera_z],
        "settings": {
            "background": settings.background_intensity,
            "figure": settings.figure_intensity,
            "noise": settings.noise_sigma,
            "seed": settings.seed,
        },
        "dims": list(query.dim_key),
    }


class FleetRecorderTap:
    """Accumulates one fleet run's events into a :class:`FlightRecorder`.

    Built by :class:`~repro.mission.fleet.FleetScheduler` when a
    recorder is attached; not normally constructed by hand.
    """

    def __init__(self, recorder: FlightRecorder, missions: Sequence) -> None:
        self._recorder = recorder
        self._missions = list(missions)
        self._log_offsets = [len(m.world.log) for m in self._missions]
        self._has_bus = []
        self._bus_buffer: list[tuple[str, object]] = []
        self._core_labels: dict[int, str] = {}
        self._stats_prev: dict[str, tuple] = {}
        self._eventful = False
        self._node_activity: dict[str, list[int]] = {}
        self._report_recorded = False
        self._hops: list | None = None
        for mission in self._missions:
            emitter = getattr(mission.executor, "emitter", None)
            self._has_bus.append(emitter is not None)
            if emitter is not None:
                emitter.subscribe("", self._bus_listener(mission.name))
        # Resolve the distinct perception cores once (labelled in
        # mission order) — on_tick reads their counters every tick, so
        # the per-tick loop must not re-discover them.
        self._tracked_cores: list[tuple[str, RecognizerPerception]] = []
        for mission in self._missions:
            perception = mission.perception
            if (
                isinstance(perception, RecognizerPerception)
                and perception.core_key not in self._core_labels
            ):
                self._tracked_cores.append((self._core_label(perception), perception))

    # -- capture points ----------------------------------------------------------------

    def record_start(self, scheduler) -> None:
        """Record the ``start`` event: fleet composition and clock."""
        missions = []
        for mission in self._missions:
            missions.append(
                {
                    "name": mission.name,
                    "wind": mission.wind.name if mission.wind is not None else None,
                    "lighting": (
                        mission.lighting.name if mission.lighting is not None else None
                    ),
                }
            )
        self._recorder.record(
            "start",
            data={
                "missions": missions,
                "time_step_s": scheduler.time_step_s,
                "batch_perception": scheduler.batch_perception,
            },
        )

    def graph_tap(self, tick: int, node, tokens_in: list, tokens_out: list) -> None:
        """Graph observability hook: per-node activity plus the
        recognition traffic leaving ``lookup`` and ``match``."""
        self._node_activity[node.name] = [len(tokens_in), len(tokens_out)]
        if node.name == "lookup":
            for token in tokens_out:
                for batch in token.batches:
                    core = self._core_label(batch.perception)
                    for query in batch.misses:
                        payload = _query_payload(query)
                        self._eventful = True
                        self._recorder.record(
                            "observation",
                            tick=tick,
                            node=core,
                            data={"query": payload, "digest": query_digest(payload)},
                        )
        elif node.name == "match":
            for token in tokens_out:
                for batch in token.batches:
                    core = self._core_label(batch.perception)
                    for query in batch.misses:
                        cached, sign = batch.perception.peek(query)
                        self._eventful = True
                        self._recorder.record(
                            "verdict",
                            tick=tick,
                            node=core,
                            data={
                                "digest": query_digest(_query_payload(query)),
                                "label": sign.value if sign is not None else None,
                                "cached": cached,
                            },
                        )

    def on_tick(self, tick: int, graph) -> None:
        """Scheduler hook, after one graph sweep: world-log deltas,
        bus traffic, perception deltas and the tick summary record."""
        for index, mission in enumerate(self._missions):
            log = mission.world.log
            size = len(log)
            if size != self._log_offsets[index]:
                for event in log.since(self._log_offsets[index]):
                    self._record_world_event(tick, index, mission, event)
                self._log_offsets[index] = size
        for mission_name, event in self._bus_buffer:
            kind = "escalation" if event.kind == "escalation" else "bus"
            self._eventful = True
            self._recorder.record(
                kind,
                tick=tick,
                node=mission_name,
                data={
                    "t": event.time_s,
                    "source": event.source,
                    "kind": event.kind,
                    "detail": _sorted_detail(event.detail),
                },
            )
        self._bus_buffer.clear()
        perception = self._perception_deltas()
        if perception:
            self._eventful = True
        if self._eventful:
            data = {"nodes": dict(sorted(self._node_activity.items()))}
            if perception:
                data["perception"] = perception
            data["channels"] = self._hop_counters(graph)
            self._recorder.record("tick", tick=tick, data=data)
        self._eventful = False
        self._node_activity = {}

    def record_report(self, report) -> None:
        """Record the final ``report`` event (first call only)."""
        if self._report_recorded:
            return
        self._report_recorded = True
        missions = {}
        for name, mission_report in sorted(report.reports.items()):
            outcome = {
                "traps_read": mission_report.traps_read,
                "negotiations": mission_report.negotiations,
                "safety_events": mission_report.safety_events,
                "duration_s": mission_report.duration_s,
            }
            for extra in (
                "negotiations_granted",
                "negotiations_denied",
                "negotiations_failed",
                "laps_completed",
                "challenges",
                "compliant",
            ):
                value = getattr(mission_report, extra, None)
                if value is not None:
                    outcome[extra] = value
            skipped = getattr(mission_report, "skipped_traps", None)
            if skipped is not None:
                outcome["skipped_traps"] = list(skipped)
            missions[name] = outcome
        stats = report.perception_stats
        self._recorder.record(
            "report",
            data={
                "ticks": report.ticks,
                "sim_duration_s": report.sim_duration_s,
                "missions": missions,
                "escalations": report.escalations,
                "perception": (
                    {
                        "observations": stats.observations,
                        "gated": stats.gated,
                        "cache_hits": stats.cache_hits,
                        "frames_classified": stats.frames_classified,
                        "batch_calls": stats.batch_calls,
                    }
                    if stats is not None
                    else None
                ),
            },
        )

    # -- internals ---------------------------------------------------------------------

    def _bus_listener(self, mission_name: str):
        def listen(event) -> None:
            self._bus_buffer.append((mission_name, event))

        return listen

    def _core_label(self, perception: RecognizerPerception) -> str:
        key = perception.core_key
        label = self._core_labels.get(key)
        if label is None:
            label = f"core{len(self._core_labels)}"
            self._core_labels[key] = label
        return label

    def _record_world_event(self, tick: int, index: int, mission, event) -> None:
        if event.kind == "escalation" and self._has_bus[index]:
            return  # captured off the event bus already
        if event.kind in NEGOTIATION_KINDS:
            kind = "negotiation"
        elif event.kind == "escalation":
            kind = "escalation"
        else:
            kind = "world"
        self._eventful = True
        self._recorder.record(
            kind,
            tick=tick,
            node=mission.name,
            data={
                "t": event.time_s,
                "source": event.source,
                "kind": event.kind,
                "detail": _sorted_detail(event.detail),
            },
        )

    def _perception_deltas(self) -> dict:
        deltas: dict[str, dict[str, int]] = {}
        for label, perception in self._tracked_cores:
            stats = perception.stats
            snapshot = (
                stats.observations,
                stats.gated,
                stats.cache_hits,
                stats.frames_classified,
                stats.batch_calls,
            )
            previous = self._stats_prev.get(label, (0, 0, 0, 0, 0))
            if snapshot != previous:
                deltas[label] = {
                    "observations": snapshot[0] - previous[0],
                    "gated": snapshot[1] - previous[1],
                    "cache_hits": snapshot[2] - previous[2],
                    "frames_classified": snapshot[3] - previous[3],
                    "batch_calls": snapshot[4] - previous[4],
                }
                self._stats_prev[label] = snapshot
        return deltas

    def _hop_counters(self, graph) -> dict:
        """Per-hop ``[puts, gets, drops, refusals]`` under the recorded
        ``"<src>.ticks-><dst>.ticks"`` names: every token a stage
        returns is handed on within the same tick, so both counts are
        the source stage's cumulative ``items_out`` and nothing is
        ever dropped or refused."""
        hops = self._hops
        if hops is None:
            nodes = graph.nodes
            hops = self._hops = [
                (f"{src.name}.ticks->{dst.name}.ticks", src.metrics)
                for src, dst in zip(nodes, nodes[1:])
            ]
        return {name: [m.items_out, m.items_out, 0, 0] for name, m in hops}


def _sorted_detail(detail: dict) -> dict:
    return {key: detail[key] for key in sorted(detail)}


def service_observer(recorder: FlightRecorder):
    """Adapter: a :class:`~repro.service.RecognitionService` observer
    that records ``service`` ops events (batch flushes, shard
    dispatches)."""

    def observe(event: str, data: dict) -> None:
        recorder.record("service", node=event, data=data)

    return observe


def gateway_observer(recorder: FlightRecorder):
    """Adapter: a :class:`~repro.gateway.server.RecognitionGateway`
    observer that records ``gateway`` ops events (admissions, sheds,
    failovers)."""

    def observe(event: str, data: dict) -> None:
        recorder.record("gateway", node=event, data=data)

    return observe
