"""Scalar-path verdict parity: the perception output check of fleet-orchard."""

from __future__ import annotations

import random

from repro.geometry.vec import Vec2
from repro.human.agent import HumanAgent
from repro.human.persona import WORKER
from repro.protocol.recognizer import RecognizerPerception
from repro.simulation.world import World


def signaller(query_fields, world: World) -> HumanAgent:
    """A human standing, facing and signing as *query_fields* says
    (any object with the ``ObservationQuery`` human fields)."""
    human = HumanAgent(
        name="signaller",
        persona=WORKER,
        position=Vec2(query_fields.human_x, query_fields.human_y),
        facing_deg=query_fields.facing_deg,
        dimensions=query_fields.dimensions,
    )
    human.show_sign(query_fields.sign, world, lean_deg=query_fields.lean_deg)
    return human


def scalar_parity(recognizer, resolved, rng: random.Random, samples: int) -> tuple[int, int, int]:
    """Re-resolve a seeded sample of ``(query, verdict)`` pairs on the
    scalar per-frame path; returns ``(checked, unreproduced, mismatches)``.

    The observed human is rebuilt from the query's fields, so the scalar
    perception renders the identical frame.  A sample whose rebuilt
    query differs from the original is *unreproduced*: the check
    verified nothing, so the caller counts it as failed, as it does a
    mismatched verdict.  An empty *resolved* is one unreproduced sample."""
    if not resolved:
        return 1, 1, 0
    scalar = RecognizerPerception(recognizer=recognizer, per_frame=True, memoize=False)
    world = World()
    checked = unreproduced = mismatches = 0
    for query, verdict in rng.sample(resolved, min(samples, len(resolved))):
        human = signaller(query, world)
        view = scalar.with_render_settings(query.settings)
        checked += 1
        if view.query(query.camera_position, human) != query:
            unreproduced += 1
        elif view.observe(query.camera_position, human) != verdict:
            mismatches += 1
    return checked, unreproduced, mismatches
