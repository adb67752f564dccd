"""FleetSpec: validation, the unified builder API, and the legacy shims.

The spec satellite's contract: ``build_fleet(FleetSpec(...))`` and the
legacy keyword call produce *identical* fleets (same transcripts, same
outcomes), with the legacy path raising exactly one
``DeprecationWarning``; ``build_surveillance_fleet`` mirrors both, with
its legacy ``challenge_config`` mapping onto the unified
``negotiation`` field.
"""

import warnings

import pytest

from repro.geometry.vec import Vec2
from repro.mission import (
    DEFAULT_DRONE_HOME,
    FleetSpec,
    OrchardConfig,
    build_fleet,
)
from repro.mission.fleet import mission_transcript
from repro.mission.surveillance import build_surveillance_fleet
from repro.protocol import NegotiationConfig
from repro.simulation.scenarios import DEFAULT_LIGHTINGS, DEFAULT_WINDS

SMALL = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
FAST_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)


def transcripts(scheduler):
    return {m.name: mission_transcript(m.world) for m in scheduler.missions}


def outcomes(scheduler):
    return {
        m.name: (
            m.report.traps_read,
            tuple(getattr(m.report, "skipped_traps", ())),
            m.report.negotiations,
            round(m.report.duration_s, 6),
        )
        for m in scheduler.missions
    }


class TestValidation:
    def test_defaults(self):
        spec = FleetSpec(count=4)
        assert spec.base_seed == 0
        assert spec.backend == "auto"
        assert spec.drone_home == DEFAULT_DRONE_HOME
        assert spec.winds == tuple(DEFAULT_WINDS)
        assert spec.lightings == tuple(DEFAULT_LIGHTINGS)

    @pytest.mark.parametrize(
        ("fields", "match"),
        [
            (dict(count=0), "at least one mission"),
            (dict(count=1, workers=-1), "non-negative"),
            (dict(count=1, backend="cluster"), "unknown backend"),
            (dict(count=1, intruders=-1), "non-negative"),
            (dict(count=1, burst_spacing_s=-0.1), "non-negative"),
            (dict(count=1, laps=0), "at least one lap"),
        ],
    )
    def test_rejects_bad_fields(self, fields, match):
        with pytest.raises(ValueError, match=match):
            FleetSpec(**fields)

    def test_condition_pools_normalise_to_tuples(self):
        spec = FleetSpec(count=1, winds=list(DEFAULT_WINDS), lightings=list(DEFAULT_LIGHTINGS))
        assert spec == FleetSpec(count=1)
        assert isinstance(spec.winds, tuple)
        assert isinstance(spec.lightings, tuple)

    def test_frozen(self):
        spec = FleetSpec(count=1)
        with pytest.raises(AttributeError):
            spec.count = 2

    def test_recorder_excluded_from_equality(self):
        assert FleetSpec(count=1, recorder=object()) == FleetSpec(count=1)


class TestShimEquivalence:
    """Spec and legacy calls build identical fleets; shim warns once."""

    def test_build_fleet_shim_matches_spec(self):
        spec = FleetSpec(
            count=2,
            base_seed=5,
            config=SMALL,
            perception="oracle",
            negotiation=FAST_NEGOTIATION,
        )
        via_spec = build_fleet(spec)
        with pytest.warns(DeprecationWarning, match="FleetSpec"):
            via_shim = build_fleet(
                2,
                base_seed=5,
                config=SMALL,
                perception="oracle",
                negotiation_config=FAST_NEGOTIATION,
            )
        via_spec.run()
        via_shim.run()
        assert transcripts(via_shim) == transcripts(via_spec)
        assert outcomes(via_shim) == outcomes(via_spec)

    def test_surveillance_shim_maps_challenge_config(self):
        spec = FleetSpec(
            count=1,
            base_seed=9,
            intruders=1,
            negotiation=FAST_NEGOTIATION,
        )
        via_spec = build_surveillance_fleet(spec)
        with pytest.warns(DeprecationWarning, match="FleetSpec"):
            via_shim = build_surveillance_fleet(
                1,
                base_seed=9,
                intruders=1,
                challenge_config=FAST_NEGOTIATION,
            )
        via_spec.run()
        via_shim.run()
        assert transcripts(via_shim) == transcripts(via_spec)
        assert outcomes(via_shim) == outcomes(via_spec)

    def test_count_accepted_as_legacy_keyword(self):
        with pytest.warns(DeprecationWarning):
            fleet = build_fleet(count=1, config=SMALL, perception="oracle")
        try:
            assert len(fleet.missions) == 1
        finally:
            fleet.close()

    def test_spec_call_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        fleet.close()


class TestCallingConventionErrors:
    def test_spec_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            build_fleet(FleetSpec(count=1), base_seed=3)

    def test_missing_count_rejected(self):
        with pytest.raises(TypeError, match="count"):
            build_fleet(base_seed=3)

    def test_unknown_legacy_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_fleet(1, shard_count=4)

    def test_surveillance_rejects_trap_only_keyword(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_surveillance_fleet(1, backend="service")


class TestSpecFieldRouting:
    def test_drone_home_honoured_by_both_builders(self):
        home = Vec2(-2.0, -1.0)
        trap = build_fleet(
            FleetSpec(count=1, config=SMALL, perception="oracle", drone_home=home)
        )
        guard = build_surveillance_fleet(FleetSpec(count=1, drone_home=home))
        try:
            assert trap.missions[0].drone.state.position.horizontal() == home
            assert guard.missions[0].drone.state.position.horizontal() == home
        finally:
            trap.close()
            guard.close()

    def test_surveillance_ignores_trap_only_fields(self):
        # perception/per_frame/backend are trap-fleet knobs; the guard
        # fleet builds regardless of their values.
        fleet = build_surveillance_fleet(
            FleetSpec(count=1, perception="oracle", per_frame=True, backend="auto")
        )
        fleet.close()
