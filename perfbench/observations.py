"""Seeded observation inputs: a signaller and a camera pose each.

Signs, leans, positions, azimuths, distances, altitudes and lightings
are drawn from the seed inside the recognizer's trust envelope, and
batch sizes cycle through a seeded order of 1-16, so every run sees
the same size mix.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from repro.geometry.vec import Vec3
from repro.human.pose import BodyDimensions
from repro.human.signs import MarshallingSign
from repro.simulation.scenarios import DEFAULT_LIGHTINGS
from repro.simulation.world import World

from parity import signaller

MAX_BATCH = 16
SETTINGS = tuple(lighting.render_settings() for lighting in DEFAULT_LIGHTINGS)

#: The human fields of one observation (what ``parity.signaller`` reads).
Signaller = namedtuple(
    "Signaller", "sign lean_deg human_x human_y facing_deg dimensions"
)


class QuerySource:
    """Seeded, never-repeating observation inputs, batch by batch."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sizes: list[int] = []
        self.world = World()

    def observation(self):
        """``(camera position, human, settings index)`` inside the envelope."""
        rng = self.rng
        facing = rng.uniform(0.0, 360.0)
        spec = Signaller(
            sign=rng.choice(tuple(MarshallingSign)),
            lean_deg=rng.uniform(-10.0, 10.0),
            human_x=rng.uniform(-20.0, 20.0),
            human_y=rng.uniform(-20.0, 20.0),
            facing_deg=facing,
            dimensions=BodyDimensions(),
        )
        azimuth = rng.uniform(-22.0, 22.0)
        distance = rng.uniform(3.0, 8.0)
        altitude = rng.uniform(2.5, 6.0)
        bearing = math.radians(facing + azimuth)
        camera = Vec3(
            spec.human_x + distance * math.sin(bearing),
            spec.human_y + distance * math.cos(bearing),
            altitude,
        )
        return camera, signaller(spec, self.world), rng.randrange(len(SETTINGS))

    def batch(self) -> list:
        """The next batch; sizes run through 1..16 once per cycle, in
        seeded order."""
        if not self.sizes:
            self.sizes = list(range(1, MAX_BATCH + 1))
            self.rng.shuffle(self.sizes)
        return [self.observation() for _ in range(self.sizes.pop())]
