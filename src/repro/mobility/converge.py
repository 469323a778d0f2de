"""Event-crowd motion: destination-directed convergence on a venue.

The third crowd shape the scenario engine needs (alongside the taxi-like
waypoint wander and shortest-path network motion): a spectator heading
for a stadium walks *toward* it with mild heading noise, arrives, and
then mills around the venue — short random steps inside a small radius —
for the rest of the trace.  The milling phase is what keeps a converged
crowd generating occasional safe-region escapes instead of freezing the
whole cohort on one point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.trajectory import Trajectory


@dataclass(frozen=True)
class ConvergeParams:
    """Tuning of the crowd-convergence motion model."""

    speed: float = 5.0  # nominal approach distance per timestamp
    speed_jitter: float = 0.25  # relative std-dev of per-step speed noise
    heading_jitter: float = 0.12  # radians of per-step direction noise
    mill_radius: float = 25.0  # how far arrived members drift from the venue
    mill_step: float = 3.0  # nominal milling distance per timestamp


def generate_converge_trajectory(
    world: Rect,
    n_timestamps: int,
    venue: Point,
    params: ConvergeParams,
    rng: random.Random,
    start: Point | None = None,
) -> Trajectory:
    """One trajectory converging on ``venue`` then milling around it.

    A step works on the coordinates as floats and builds one ``Point``,
    already clamped to the world.
    """
    if n_timestamps < 1:
        raise ValueError("need at least one timestamp")
    pos = start if start is not None else world.sample(rng)
    points = [pos]
    x, y = pos.x, pos.y
    vx, vy = venue.x, venue.y
    x_lo, y_lo, x_hi, y_hi = world.x_lo, world.y_lo, world.x_hi, world.y_hi
    gauss, uniform = rng.gauss, rng.uniform
    atan2, cos, sin, hypot, pi = math.atan2, math.cos, math.sin, math.hypot, math.pi
    speed, sigma = params.speed, params.speed * params.speed_jitter
    heading_jitter, mill_radius = params.heading_jitter, params.mill_radius
    mill_step, mill_sigma = params.mill_step, params.mill_step * 0.5
    arrived = False
    while len(points) < n_timestamps:
        if not arrived:
            to_venue = hypot(x - vx, y - vy)
            step = max(0.0, gauss(speed, sigma))
            if to_venue <= max(step, mill_radius):
                arrived = True
                continue
            angle = atan2(vy - y, vx - x)
            angle += gauss(0.0, heading_jitter)
            x += step * cos(angle)
            y += step * sin(angle)
        else:
            # Milling: a short step in a random direction, pulled back
            # inside the venue radius if it strays.
            angle = uniform(-pi, pi)
            step = max(0.0, gauss(mill_step, mill_sigma))
            x += step * cos(angle)
            y += step * sin(angle)
            if hypot(x - vx, y - vy) > mill_radius:
                pull = atan2(vy - y, vx - x)
                x += step * cos(pull)
                y += step * sin(pull)
        x = min(max(x, x_lo), x_hi)
        y = min(max(y, y_lo), y_hi)
        points.append(Point(x, y))
    return Trajectory(tuple(points[:n_timestamps]))
