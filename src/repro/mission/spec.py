"""FleetSpec: one declarative description of a fleet to build.

:func:`~repro.mission.fleet.build_fleet` and
:func:`~repro.mission.surveillance.build_surveillance_fleet` used to
duplicate ~10 keyword arguments (seed, orchard config, scenario
conditions, negotiation tunables, perception backend, workers,
recorder...).  :class:`FleetSpec` is the single frozen dataclass that
carries all of them, so both builders take one spec and drive the
same tick-synchronous fleet graph:

>>> from repro.mission import FleetSpec, build_fleet
>>> scheduler = build_fleet(FleetSpec(count=4, base_seed=100))

Legacy keyword calls (``build_fleet(4, base_seed=100)``) keep working
through a :class:`DeprecationWarning` shim that constructs the
equivalent spec — the contract test asserts shim/spec equivalence.

Field applicability: the trap-reading fleet reads every field except
the surveillance-only ones (``intruders``/``burst_start_s``/
``burst_spacing_s``/``laps``); the surveillance fleet ignores the
trap-fleet-only ``perception``/``per_frame``/``backend`` knobs (guards
always use the shared recogniser core, service-backed when
``workers > 0``).  ``negotiation`` unifies what the legacy builders
called ``negotiation_config`` and ``challenge_config``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.vec import Vec2
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.protocol.perception import Perception
from repro.simulation.scenarios import (
    DEFAULT_LIGHTINGS,
    DEFAULT_WINDS,
    Lighting,
    WindCondition,
)

__all__ = [
    "DEFAULT_DRONE_HOME",
    "FLEET_BACKENDS",
    "FleetSpec",
]

#: Default launch pad, shared by both fleet builders.
DEFAULT_DRONE_HOME = Vec2(-6.0, -4.0)

#: Recognised classifier backends (see ``build_fleet``).
FLEET_BACKENDS = ("auto", "inprocess", "service", "gateway")


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to build a fleet, in one frozen value.

    Parameters
    ----------
    count:
        Number of missions (>= 1).  Mission ``i`` draws orchard seed
        ``base_seed + i``, wind ``winds[i % len(winds)]`` and lighting
        ``lightings[i % len(lightings)]``.
    base_seed:
        Seed offset for the per-mission orchards (and intruder walks).
    config:
        Orchard layout/config template; each builder's default when
        ``None``.
    perception:
        ``"recognizer"`` (shared batched core, per-mission lighting
        views), ``"oracle"``, or a concrete
        :class:`~repro.protocol.perception.Perception` instance used
        directly for every mission.  Trap fleet only.
    winds / lightings:
        Scenario condition pools (cycled per mission index).
    negotiation:
        Protocol tunables — the trap fleet's ``negotiation_config``
        and the surveillance fleet's ``challenge_config``, unified.
    batch_perception:
        Aggregate per-tick queries into one batched recognition pass.
    per_frame:
        Scalar per-frame reference mode (trap fleet only).
    drone_home:
        Launch pad for every mission's drone.
    workers:
        Shard worker processes behind the service/gateway backends.
    backend:
        Where the shared core's ``sax_match`` runs (``"auto"``,
        ``"inprocess"``, ``"service"``, ``"gateway"``); trap fleet
        only — the surveillance fleet is service-backed iff
        ``workers > 0``.
    recorder:
        Optional :class:`~repro.recorder.FlightRecorder` attached to
        the scheduler.
    intruders / burst_start_s / burst_spacing_s / laps:
        Surveillance-fleet workload shape (ignored by the trap fleet):
        intruder *j* of mission *i* starts walking at
        ``burst_start_s + j * burst_spacing_s``.
    """

    count: int
    base_seed: int = 0
    config: OrchardConfig | None = None
    perception: str | Perception = "recognizer"
    winds: Sequence[WindCondition] = DEFAULT_WINDS
    lightings: Sequence[Lighting] = DEFAULT_LIGHTINGS
    negotiation: NegotiationConfig | None = None
    batch_perception: bool = True
    per_frame: bool = False
    drone_home: Vec2 = DEFAULT_DRONE_HOME
    workers: int = 0
    backend: str = "auto"
    recorder: object = field(default=None, compare=False)
    intruders: int = 2
    burst_start_s: float = 4.0
    burst_spacing_s: float = 1.5
    laps: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("fleet needs at least one mission")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.backend not in FLEET_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {FLEET_BACKENDS}"
            )
        if self.intruders < 0:
            raise ValueError("intruder count must be non-negative")
        if self.burst_spacing_s < 0:
            raise ValueError("burst_spacing_s must be non-negative")
        if self.laps < 1:
            raise ValueError("need at least one lap")
        # Normalise the condition pools so equal specs compare equal
        # regardless of list/tuple input.
        object.__setattr__(self, "winds", tuple(self.winds))
        object.__setattr__(self, "lightings", tuple(self.lightings))
