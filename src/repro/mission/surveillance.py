"""Surveillance missions: guard drones, patrol loops, escalations.

The trap-reading mission (:mod:`repro.mission.executor`) is a steady
workload — a fixed route, negotiation only when a trap is blocked.
This module adds the *bursty* counterpart the fleet layer is sized
for: a guard drone flies a waypoint patrol loop, and any human who is
not on the authorized roster (an **intruder**) is intercepted and
*challenged* through the paper's Figure-3 protocol — the same
attention-poke / space-request exchange, reused as "identify yourself
and yield".  A granted request is compliance; a denial or an
unanswered challenge raises an **escalation event** on a per-mission
:class:`~repro.simulation.events.EventEmitter` bus, which
:meth:`~repro.mission.fleet.FleetScheduler.report` surfaces in
:class:`~repro.mission.fleet.FleetReport.escalation_events`.

:class:`SurveillanceExecutor` duck-types the
:class:`~repro.mission.executor.MissionExecutor` step API
(``start`` / ``tick`` / ``pending_observation`` / ``finished`` /
``report``), so it drops into a :class:`~repro.mission.fleet.FleetMission`
slot unchanged and its perception queries ride the same batched
seven-stage dataflow graph; :func:`build_surveillance_fleet` mirrors
:func:`~repro.mission.fleet.build_fleet` (shared recogniser core,
per-mission lighting views, optional shard-worker service) while
scheduling intruder bursts on each world's event queue.  Everything is
seeded: the same fleet parameters replay the same patrols, challenges
and escalations tick for tick, which ``benchmarks/bench_longtail.py``
asserts unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from repro.drone.agent import DroneAgent
from repro.drone.patterns import CruisePattern, LandingPattern, TakeOffPattern
from repro.geometry.vec import Vec2, Vec3
from repro.human.agent import HumanAgent
from repro.human.persona import VISITOR
from repro.mission.fleet import (
    FleetMission,
    FleetScheduler,
    _legacy_spec,
)
from repro.mission.orchard import Orchard, OrchardConfig, generate_orchard
from repro.mission.spec import FleetSpec
from repro.protocol.negotiation import (
    NegotiationConfig,
    NegotiationController,
    NegotiationState,
)
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.recognizer import RecognizerPerception
from repro.protocol.safety import SafetyLimits, SafetyMonitor
from repro.recognition.pipeline import SaxSignRecognizer
from repro.service import RecognitionService, ServiceClassifier
from repro.simulation.events import EventEmitter, SimEvent

__all__ = [
    "SurveillancePhase",
    "SurveillanceConfig",
    "SurveillanceReport",
    "SurveillanceExecutor",
    "build_surveillance_fleet",
]

#: Challenge tunables trimmed for guard duty: an intruder gets one poke
#: retry and shorter waits than a cooperative trap negotiation, so an
#: unresponsive intruder escalates quickly instead of stalling a lap.
GUARD_CHALLENGE_CONFIG = NegotiationConfig(
    attention_timeout_s=8.0,
    answer_timeout_s=10.0,
    max_poke_retries=1,
    max_request_retries=1,
)


class SurveillancePhase(Enum):
    """Guard-mission phases."""

    IDLE = "idle"
    TAKING_OFF = "taking_off"
    PATROLLING = "patrolling"
    CHALLENGING = "challenging"
    RETURNING = "returning"
    LANDING = "landing"
    DONE = "done"
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class SurveillanceConfig:
    """Patrol parameters of one guard mission."""

    waypoints: tuple[Vec2, ...]
    laps: int = 1
    patrol_altitude_m: float = 5.0
    detection_radius_m: float = 8.0

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a patrol needs at least two waypoints")
        if self.laps < 1:
            raise ValueError("need at least one lap")
        if self.patrol_altitude_m <= 0 or self.detection_radius_m <= 0:
            raise ValueError("altitude and detection radius must be positive")


@dataclass
class SurveillanceReport:
    """Outcome of one guard mission.

    Field-compatible with the slice of
    :class:`~repro.mission.executor.MissionReport` the fleet report
    aggregates (``traps_read`` / ``negotiations`` / ``safety_events``),
    so mixed fleets sum cleanly.
    """

    laps_completed: int = 0
    challenges: int = 0
    compliant: int = 0
    escalations: list[SimEvent] = field(default_factory=list)
    safety_events: int = 0
    duration_s: float = 0.0

    @property
    def traps_read(self) -> int:
        """Guards read no traps; present for fleet aggregation."""
        return 0

    @property
    def negotiations(self) -> int:
        """Every challenge is one protocol round."""
        return self.challenges

    @property
    def escalation_count(self) -> int:
        """Number of escalation events this mission raised."""
        return len(self.escalations)


class SurveillanceExecutor:
    """Drives one guard drone around a patrol loop, challenging intruders.

    Duck-types the :class:`~repro.mission.executor.MissionExecutor`
    step API, so a :class:`~repro.mission.fleet.FleetScheduler` drives
    it through the shared dataflow graph unchanged.  A human whose name
    is not in *authorized* is an intruder: the first time one enters
    ``detection_radius_m`` of the drone, the patrol is preempted and a
    challenge (the Figure-3 protocol) runs.  Outcomes:

    * **granted** — the intruder complied; they halt in place and the
      patrol resumes (``intruder_compliant`` on the bus, no escalation);
    * **denied** — explicit refusal: ``escalation`` event with reason
      ``non_compliant``;
    * **failed** — attention never gained or no readable answer:
      ``escalation`` with reason ``unresponsive``.

    Escalations are emitted on :attr:`emitter` (and mirrored into the
    world log for transcripts); each intruder is challenged at most
    once per mission.
    """

    def __init__(
        self,
        orchard: Orchard,
        drone: DroneAgent,
        config: SurveillanceConfig,
        perception: Perception | None = None,
        authorized: Sequence[str] | None = None,
        safety_limits: SafetyLimits | None = None,
        challenge_config: NegotiationConfig | None = None,
        emitter: EventEmitter | None = None,
    ) -> None:
        self.orchard = orchard
        self.drone = drone
        self.config = config
        self.perception = perception if perception is not None else OraclePerception()
        self.authorized = (
            set(authorized)
            if authorized is not None
            else {h.name for h in orchard.humans}
        )
        self.safety = SafetyMonitor(drone, safety_limits)
        self.challenge_config = (
            challenge_config if challenge_config is not None else GUARD_CHALLENGE_CONFIG
        )
        self.emitter = emitter if emitter is not None else EventEmitter()
        self.home = drone.state.position.horizontal()
        self.phase = SurveillancePhase.IDLE
        self.report = SurveillanceReport()
        self.name = f"guard_{drone.name}"
        self._waypoint_index = 0
        self._lap = 0
        self._challenge: NegotiationController | None = None
        self._challenged: set[str] = set()
        self._intruder: HumanAgent | None = None
        self._started_at_s = 0.0

    # -- public API ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """``True`` once the patrol is done or aborted."""
        return self.phase in (SurveillancePhase.DONE, SurveillancePhase.ABORTED)

    @property
    def escalation_events(self) -> tuple[SimEvent, ...]:
        """Escalations raised so far (the fleet report collects these)."""
        return tuple(self.emitter.of_kind("escalation"))

    def start(self, world) -> None:
        """Take off and begin the patrol loop."""
        if self.phase is not SurveillancePhase.IDLE:
            raise RuntimeError("surveillance mission already started")
        self._started_at_s = world.now_s
        self.drone.fly_pattern(TakeOffPattern(self.config.patrol_altitude_m), world)
        self.phase = SurveillancePhase.TAKING_OFF
        world.record(
            self.name,
            "surveillance_started",
            waypoints=len(self.config.waypoints),
            laps=self.config.laps,
        )

    # -- world entity protocol ----------------------------------------------------------

    def position3(self) -> Vec3:
        """Entity protocol: co-located with the drone."""
        return self.drone.state.position

    def update(self, world, dt: float) -> None:
        """World-entity driver: delegates to the :meth:`tick` step API."""
        self.tick(world)

    # -- step API ---------------------------------------------------------------------

    def tick(self, world) -> SurveillancePhase:
        """Advance the guard state machine one non-blocking step."""
        if self.finished or self.phase is SurveillancePhase.IDLE:
            return self.phase
        self.safety.check(world)
        if self.drone.modes.in_emergency:
            self._abort(world, "drone emergency")
            return self.phase

        handler = {
            SurveillancePhase.TAKING_OFF: self._tick_taking_off,
            SurveillancePhase.PATROLLING: self._tick_patrolling,
            SurveillancePhase.CHALLENGING: self._tick_challenging,
            SurveillancePhase.RETURNING: self._tick_returning,
            SurveillancePhase.LANDING: self._tick_landing,
        }[self.phase]
        handler(world)
        return self.phase

    def pending_observation(self, world):
        """The perception query the next :meth:`tick` will issue, if any.

        Delegates to the active challenge (the only component that
        observes), exactly like the trap mission — so guard missions
        batch through the fleet graph's recognition stages unchanged.
        """
        if self.phase is not SurveillancePhase.CHALLENGING or self._challenge is None:
            return None
        return self._challenge.pending_observation(world)

    # -- phase handlers ----------------------------------------------------------------

    def _tick_taking_off(self, world) -> None:
        if not self.drone.is_idle:
            return
        self._head_to_waypoint(world)
        self.phase = SurveillancePhase.PATROLLING

    def _tick_patrolling(self, world) -> None:
        intruder = self._detect_intruder()
        if intruder is not None:
            self._begin_challenge(world, intruder)
            return
        if not self.drone.is_idle:
            return
        # Arrived at the current waypoint: advance, counting laps.
        self._waypoint_index += 1
        if self._waypoint_index >= len(self.config.waypoints):
            self._waypoint_index = 0
            self._lap += 1
            self.report.laps_completed = self._lap
            world.record(self.name, "lap_completed", lap=self._lap)
            if self._lap >= self.config.laps:
                self.drone.fly_pattern(
                    CruisePattern(
                        destination=self.home,
                        flying_height_m=self.config.patrol_altitude_m,
                    ),
                    world,
                )
                self.phase = SurveillancePhase.RETURNING
                return
        self._head_to_waypoint(world)

    def _tick_challenging(self, world) -> None:
        assert self._challenge is not None and self._intruder is not None
        self._challenge.tick(world)
        if not self._challenge.finished:
            return
        outcome = self._challenge.outcome
        assert outcome is not None
        intruder = self._intruder
        self._challenge = None
        self._intruder = None
        if outcome.state is NegotiationState.CONCLUDED and outcome.space_granted:
            self.report.compliant += 1
            intruder.stop_walking()
            self._emit(world, "intruder_compliant", human=intruder.name)
        elif outcome.state is NegotiationState.CONCLUDED:
            self._escalate(world, intruder, "non_compliant")
        else:
            self._escalate(world, intruder, "unresponsive")
        self._head_to_waypoint(world)
        self.phase = SurveillancePhase.PATROLLING

    def _tick_returning(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.drone.fly_pattern(LandingPattern(), world)
        self.phase = SurveillancePhase.LANDING

    def _tick_landing(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = SurveillancePhase.DONE
        world.record(
            self.name,
            "surveillance_done",
            laps=self.report.laps_completed,
            challenges=self.report.challenges,
            escalations=self.report.escalation_count,
        )

    # -- helpers ----------------------------------------------------------------------

    def _head_to_waypoint(self, world) -> None:
        self.drone.fly_pattern(
            CruisePattern(
                destination=self.config.waypoints[self._waypoint_index],
                flying_height_m=self.config.patrol_altitude_m,
            ),
            world,
        )

    def _detect_intruder(self) -> HumanAgent | None:
        """The nearest unchallenged intruder inside detection range."""
        here = self.drone.state.position.horizontal()
        candidates = [
            human
            for human in self._all_humans()
            if human.name not in self.authorized
            and human.name not in self._challenged
            and human.position.distance_to(here) <= self.config.detection_radius_m
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.position.distance_to(here), h.name))

    def _all_humans(self) -> list[HumanAgent]:
        """Every human in the world (roster members and intruders)."""
        return [e for e in self.orchard.world.entities if isinstance(e, HumanAgent)]

    def _begin_challenge(self, world, intruder: HumanAgent) -> None:
        self._challenged.add(intruder.name)
        self._intruder = intruder
        self.report.challenges += 1
        self.drone.abort_patterns(world)  # preempt the patrol leg
        self._challenge = NegotiationController(
            self.drone,
            intruder,
            perception=self.perception,
            config=self.challenge_config,
            name=f"challenge_{self.report.challenges}",
        )
        self._challenge.start(world)
        self.phase = SurveillancePhase.CHALLENGING
        self._emit(world, "intruder_detected", human=intruder.name)

    def _emit(self, world, kind: str, **detail) -> SimEvent:
        """Publish *kind* on the bus and mirror it into the world log."""
        event = SimEvent(
            time_s=world.now_s, source=self.name, kind=kind, detail=dict(detail)
        )
        self.emitter.emit(event)
        world.record(self.name, kind, **detail)
        return event

    def _escalate(self, world, intruder: HumanAgent, reason: str) -> None:
        event = self._emit(world, "escalation", human=intruder.name, reason=reason)
        self.report.escalations.append(event)

    def _abort(self, world, reason: str) -> None:
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = SurveillancePhase.ABORTED
        world.record(self.name, "surveillance_aborted", reason=reason)


def _patrol_rectangle(cfg: OrchardConfig, margin_m: float = 2.0) -> tuple[Vec2, ...]:
    """A rectangular patrol loop around the orchard's tree grid."""
    x_max = (cfg.trees_per_row - 1) * cfg.tree_spacing_m + margin_m
    y_max = (cfg.rows - 1) * cfg.row_spacing_m + margin_m
    lo = -margin_m
    return (
        Vec2(lo, lo),
        Vec2(x_max, lo),
        Vec2(x_max, y_max),
        Vec2(lo, y_max),
    )


#: Legacy keyword names accepted by the :func:`build_surveillance_fleet`
#: shim, in the order of the pre-spec signature.  ``challenge_config``
#: maps to :attr:`~repro.mission.spec.FleetSpec.negotiation`.
_LEGACY_SURVEILLANCE_KWARGS = (
    "base_seed",
    "config",
    "intruders",
    "burst_start_s",
    "burst_spacing_s",
    "laps",
    "winds",
    "lightings",
    "challenge_config",
    "batch_perception",
    "workers",
    "recorder",
)


def build_surveillance_fleet(
    spec: "FleetSpec | int | None" = None, /, **kwargs
) -> FleetScheduler:
    """Build a ready-to-run fleet of guard missions.

    The one supported calling convention is a single
    :class:`~repro.mission.spec.FleetSpec`::

        build_surveillance_fleet(FleetSpec(count=8, intruders=3))

    Mirrors :func:`~repro.mission.fleet.build_fleet`: mission ``i``
    draws orchard seed ``base_seed + i``, wind ``winds[i % len]`` and a
    lighting view of one shared
    :class:`~repro.protocol.recognizer.RecognizerPerception` core (with
    an optional shard-worker service when ``workers > 0``).  On top,
    each mission gets :attr:`~repro.mission.spec.FleetSpec.intruders`
    unauthorized humans staged outside the patrol rectangle; intruder
    *j* starts walking toward the orchard interior at
    ``burst_start_s + j * burst_spacing_s`` (via the world's event
    queue) — the whole burst lands within a few seconds, the bursty
    workload the benchmark measures.  The spec's ``negotiation`` field
    carries what this builder's legacy signature called
    ``challenge_config``; its trap-fleet-only knobs
    (``perception``/``per_frame``/``backend``) are ignored here.

    Everything derives from ``base_seed``, so the same spec replays the
    same patrols, challenges and escalations exactly.  An optional
    ``recorder`` (:class:`~repro.recorder.FlightRecorder`) is attached
    to the scheduler exactly as in
    :func:`~repro.mission.fleet.build_fleet`; escalations are captured
    straight off each guard's event bus.

    The legacy keyword form (``build_surveillance_fleet(8, laps=2)``)
    is kept as a :class:`DeprecationWarning` shim that builds the
    equivalent spec — it produces an identical fleet and will be
    removed in a future release.
    """
    if isinstance(spec, FleetSpec):
        if kwargs:
            raise TypeError(
                "pass either a FleetSpec or legacy keyword arguments, not both"
            )
        return _build_surveillance_fleet_from_spec(spec)
    return _build_surveillance_fleet_from_spec(
        _legacy_spec(
            spec,
            kwargs,
            builder="build_surveillance_fleet",
            allowed=_LEGACY_SURVEILLANCE_KWARGS,
            renames={"challenge_config": "negotiation"},
        )
    )


def _build_surveillance_fleet_from_spec(spec: FleetSpec) -> FleetScheduler:
    """Construct the guard fleet described by *spec*."""
    base_seed = spec.base_seed
    intruders = spec.intruders
    workers = spec.workers
    recorder = spec.recorder
    cfg = (
        spec.config
        if spec.config is not None
        else OrchardConfig(
            rows=2,
            trees_per_row=4,
            traps_per_row=0,
            workers=1,
            visitors=0,
            supervisor_present=False,
            blocking_fraction=0.0,
        )
    )
    service: RecognitionService | None = None
    service_obs = None
    if recorder is not None:
        # Imported lazily: repro.recorder.replay imports this module.
        from repro.recorder.taps import service_observer

        service_obs = service_observer(recorder)
    if workers:
        recognizer = SaxSignRecognizer()
        recognizer.enroll_canonical_views()
        service = RecognitionService(
            recognizer.database, workers=workers, observer=service_obs
        ).start()
        shared = RecognizerPerception(
            recognizer=recognizer,
            classifier=ServiceClassifier(service, tag="surveillance"),
        )
    else:
        shared = RecognizerPerception()
    try:
        waypoints = _patrol_rectangle(cfg)
        winds = spec.winds
        lightings = spec.lightings
        missions: list[FleetMission] = []
        for index in range(spec.count):
            wind = winds[index % len(winds)] if winds else None
            lighting = lightings[index % len(lightings)] if lightings else None
            mission_cfg = replace(
                cfg,
                seed=base_seed + index,
                wind_mean_mps=wind.speed_mps if wind is not None else cfg.wind_mean_mps,
            )
            orchard = generate_orchard(mission_cfg)
            world = orchard.world
            drone = DroneAgent("drone", position=spec.drone_home)
            world.add_entity(drone)
            # Stage the intruder burst: unauthorized visitors outside
            # the patrol rectangle, released onto in-orchard targets in
            # quick succession via the world event queue.
            centre = Vec2(
                (cfg.trees_per_row - 1) * cfg.tree_spacing_m / 2.0,
                (cfg.rows - 1) * cfg.row_spacing_m / 2.0,
            )
            for j in range(intruders):
                stage = Vec2(-6.0 - 2.0 * j, centre.y + (j - intruders / 2.0) * 2.0)
                intruder = HumanAgent(
                    name=f"intruder_{j}",
                    persona=VISITOR,
                    position=stage,
                    seed=base_seed * 1000 + index * 100 + j,
                )
                world.add_entity(intruder)
                target = Vec2(centre.x + 1.5 * j, centre.y)
                release_s = spec.burst_start_s + j * spec.burst_spacing_s

                def _release(agent=intruder, destination=target) -> None:
                    agent.walk_to(destination)

                world.events.schedule(release_s, _release)
            settings = lighting.render_settings() if lighting is not None else None
            mission_perception = (
                shared.with_render_settings(settings)
                if settings is not None
                else shared
            )
            executor = SurveillanceExecutor(
                orchard,
                drone,
                config=SurveillanceConfig(waypoints=waypoints, laps=spec.laps),
                perception=mission_perception,
                authorized={h.name for h in orchard.humans},
                challenge_config=spec.negotiation,
            )
            missions.append(
                FleetMission(
                    name=f"guard_{index:02d}",
                    orchard=orchard,
                    drone=drone,
                    executor=executor,
                    perception=mission_perception,
                    wind=wind,
                    lighting=lighting,
                )
            )
        return FleetScheduler(
            missions,
            batch_perception=spec.batch_perception,
            service=service,
            recorder=recorder,
        )
    except BaseException:
        if service is not None:
            service.stop()
        raise
