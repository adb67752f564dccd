"""Self-describing recordings: record a run, replay it bit-exactly.

A recording's ``header`` carries the exact *recipe* that produced the
run — the :func:`~repro.mission.fleet.build_fleet` or
:func:`~repro.mission.surveillance.build_surveillance_fleet` keyword
arguments with dataclass configs flattened to dicts and wind/lighting
conditions reduced to their registered names.  That makes every
recording replayable with no side channel: :func:`replay` reads the
recipe back, re-drives a fresh fleet with a fresh recorder attached,
and byte-compares the two deterministic streams
(:func:`~repro.recorder.diffing.first_divergence` localises any
mismatch to node/tick/field).

The determinism contract this leans on is the repo's oldest: the same
fleet parameters replay the same missions tick for tick, across
in-process, service and gateway backends alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.mission.fleet import FleetReport, FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.mission.surveillance import build_surveillance_fleet
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder.diffing import Divergence, deterministic_only, first_divergence
from repro.recorder.events import decode_value, parse_line
from repro.recorder.recorder import FlightRecorder, read_lines
from repro.simulation import longtail, scenarios
from repro.simulation.scenarios import Lighting, WindCondition

__all__ = [
    "ReplayResult",
    "make_recipe",
    "recipe_of",
    "record_fleet_run",
    "record_surveillance_run",
    "replay",
    "run_recipe",
]

_ALLOWED_KEYS = {
    "fleet": frozenset(
        {
            "count",
            "base_seed",
            "config",
            "perception",
            "winds",
            "lightings",
            "negotiation_config",
            "batch_perception",
            "per_frame",
            "workers",
            "backend",
        }
    ),
    "surveillance": frozenset(
        {
            "count",
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
        }
    ),
}

_CONFIG_KEYS = frozenset({"config", "negotiation_config", "challenge_config"})
_CONDITION_KEYS = frozenset({"winds", "lightings"})


def _condition_registries() -> tuple[dict[str, WindCondition], dict[str, Lighting]]:
    winds: dict[str, WindCondition] = {}
    lightings: dict[str, Lighting] = {}
    for module in (scenarios, longtail):
        for value in vars(module).values():
            if isinstance(value, WindCondition):
                winds[value.name] = value
            elif isinstance(value, Lighting):
                lightings[value.name] = value
    return winds, lightings


def _encode_kwargs(builder: str, kwargs: dict) -> dict:
    allowed = _ALLOWED_KEYS[builder]
    encoded = {}
    for key, value in kwargs.items():
        if key not in allowed:
            raise ValueError(f"{key!r} is not a recordable {builder} recipe argument")
        if key in _CONFIG_KEYS:
            encoded[key] = asdict(value) if value is not None else None
        elif key in _CONDITION_KEYS:
            encoded[key] = [condition.name for condition in value]
        elif key == "perception":
            if not isinstance(value, str):
                raise ValueError(
                    "recordable runs need a named perception ('recognizer'/'oracle'),"
                    " not a perception instance"
                )
            encoded[key] = value
        elif isinstance(value, (bool, int, float, str)) or value is None:
            encoded[key] = value
        else:
            raise ValueError(f"recipe value for {key!r} is not recordable: {value!r}")
    return encoded


def _decode_kwargs(builder: str, encoded: dict) -> dict:
    if builder not in _ALLOWED_KEYS:
        raise ValueError(f"unknown recipe builder: {builder!r}")
    winds, lightings = _condition_registries()
    decoded = {}
    for key, value in encoded.items():
        if key not in _ALLOWED_KEYS[builder]:
            raise ValueError(f"{key!r} is not a {builder} recipe argument")
        if key == "config" and value is not None:
            decoded[key] = OrchardConfig(**value)
        elif key in ("negotiation_config", "challenge_config") and value is not None:
            decoded[key] = NegotiationConfig(**value)
        elif key in _CONDITION_KEYS:
            registry = winds if key == "winds" else lightings
            try:
                decoded[key] = tuple(registry[name] for name in value)
            except KeyError as exc:
                raise ValueError(f"unknown {key} condition in recipe: {exc}") from None
        else:
            decoded[key] = value
    return decoded


def make_recipe(builder: str, **kwargs) -> dict:
    """Encode builder *kwargs* as a replayable recipe dict.

    The seam for callers that drive :func:`~repro.mission.fleet.build_fleet`
    themselves (to own the timing or the fleet object) but still want a
    self-describing recording: build the recipe here, pass it to
    :meth:`~repro.recorder.recorder.FlightRecorder.write_header`, then
    attach the recorder via ``build_fleet(recorder=...)``.
    """
    if builder not in _ALLOWED_KEYS:
        raise ValueError(f"unknown recipe builder: {builder!r}")
    return {"builder": builder, "kwargs": _encode_kwargs(builder, kwargs)}


def recipe_of(path: str) -> dict:
    """Read the recipe out of a recording's ``header`` record."""
    for line in read_lines(path):
        record = parse_line(line)
        if record.get("kind") == "header":
            recipe = decode_value(record.get("data", {})).get("recipe")
            if not isinstance(recipe, dict):
                raise ValueError(f"recording {path} has no replayable recipe")
            return recipe
    raise ValueError(f"recording {path} has no header record")


def run_recipe(
    recipe: dict, recorder: FlightRecorder, timeout_s: float | None = None
) -> FleetReport:
    """Build and run the fleet a *recipe* describes, recording into
    *recorder* (header included).  Returns the run's report."""
    builder = recipe.get("builder")
    kwargs = _decode_kwargs(str(builder), dict(recipe.get("kwargs", {})))
    if "count" not in kwargs:
        raise ValueError("recipe kwargs must include 'count'")
    recorder.write_header(recipe)
    # Recipe keys keep the legacy builder names (committed recordings
    # replay unchanged); map the negotiation aliases onto the unified
    # FleetSpec field and build through the spec API directly.
    fields = {
        ("negotiation" if key in ("negotiation_config", "challenge_config") else key): value
        for key, value in kwargs.items()
    }
    spec = FleetSpec(recorder=recorder, **fields)
    if builder == "fleet":
        fleet = build_fleet(spec)
    else:
        fleet = build_surveillance_fleet(spec)
    if timeout_s is not None:
        return fleet.run(timeout_s=timeout_s)
    return fleet.run()


def record_fleet_run(
    path: str | None, timeout_s: float | None = None, **kwargs
) -> FleetReport:
    """Run :func:`~repro.mission.fleet.build_fleet` with a recorder.

    *kwargs* are the ``build_fleet`` arguments (``count`` required);
    they are embedded as the recording's recipe, so the file at *path*
    (or the in-memory recording) is replayable as-is.
    """
    return run_recipe(make_recipe("fleet", **kwargs), FlightRecorder(path), timeout_s=timeout_s)


def record_surveillance_run(
    path: str | None, timeout_s: float | None = None, **kwargs
) -> FleetReport:
    """Run :func:`~repro.mission.surveillance.build_surveillance_fleet`
    with a recorder; mirrors :func:`record_fleet_run`."""
    return run_recipe(
        make_recipe("surveillance", **kwargs), FlightRecorder(path), timeout_s=timeout_s
    )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a recording against a fresh run."""

    recording_path: str  #: the recording that was replayed
    fresh_path: str | None  #: where the fresh recording was written (if anywhere)
    identical: bool  #: deterministic streams byte-identical
    divergence: Divergence | None  #: first mismatch when not identical
    events: int  #: deterministic events compared
    report: FleetReport  #: the fresh run's fleet report

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.identical:
            return (
                f"replay OK: {self.events} deterministic events byte-identical"
                f" ({self.recording_path})"
            )
        assert self.divergence is not None
        return f"replay DIVERGED: {self.divergence.describe()}"


def replay(
    path: str, out: str | None = None, timeout_s: float | None = None
) -> ReplayResult:
    """Re-drive the run recorded at *path* and byte-compare the streams.

    Reads the recipe from the recording's header, runs a fresh fleet
    with a fresh recorder (written to *out* when given), and compares
    the two deterministic event streams byte-for-byte — the
    replay-fidelity contract.  Ops events (service/gateway timing) are
    excluded by construction.
    """
    recipe = recipe_of(path)
    fresh = FlightRecorder(out)
    report = run_recipe(recipe, fresh, timeout_s=timeout_s)
    original = deterministic_only(read_lines(path))
    divergence = first_divergence(original, fresh.deterministic_lines())
    return ReplayResult(
        recording_path=path,
        fresh_path=out,
        identical=divergence is None,
        divergence=divergence,
        events=len(original),
        report=report,
    )
