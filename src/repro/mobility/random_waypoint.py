"""GeoLife-substitute generator: destination-directed waypoint motion.

Real taxi traces (the paper's GeoLife set) exhibit three properties the
MPN algorithms are sensitive to: sustained heading persistence between
destinations (exploited by the directed tile ordering), variable speed,
and occasional stops.  This generator reproduces all three with
explicit knobs, on a bounded world rectangle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.trajectory import Trajectory


@dataclass(frozen=True)
class WaypointParams:
    """Tuning of the taxi-like motion model."""

    speed: float = 5.0  # nominal distance per timestamp (the paper's V)
    speed_jitter: float = 0.35  # relative std-dev of per-step speed noise
    pause_probability: float = 0.02  # chance to idle at a reached waypoint
    pause_max_steps: int = 20
    heading_jitter: float = 0.08  # radians of per-step direction noise


def generate_waypoint_trajectory(
    world: Rect,
    n_timestamps: int,
    params: WaypointParams,
    rng: random.Random,
    start: Point | None = None,
) -> Trajectory:
    """One trajectory of ``n_timestamps`` locations.

    A moving step works on the coordinates as floats and builds one
    ``Point``, already clamped to the world.
    """
    if n_timestamps < 1:
        raise ValueError("need at least one timestamp")
    pos = start if start is not None else world.sample(rng)
    dest = world.sample(rng)
    points = [pos]
    x, y = pos.x, pos.y
    x_lo, y_lo, x_hi, y_hi = world.x_lo, world.y_lo, world.x_hi, world.y_hi
    gauss, draw = rng.gauss, rng.random
    atan2, cos, sin, hypot = math.atan2, math.cos, math.sin, math.hypot
    speed, sigma = params.speed, params.speed * params.speed_jitter
    pause_odds = params.pause_probability * 10
    heading_jitter = params.heading_jitter
    pause_left = 0
    while len(points) < n_timestamps:
        if pause_left > 0:
            pause_left -= 1
            points.append(pos)
            continue
        to_dest = hypot(x - dest.x, y - dest.y)
        step = max(0.0, gauss(speed, sigma))
        if to_dest <= step:
            pos = dest
            x, y = pos.x, pos.y
            dest = world.sample(rng)
            if draw() < pause_odds:
                pause_left = rng.randint(1, params.pause_max_steps)
        else:
            angle = atan2(dest.y - y, dest.x - x)
            angle += gauss(0.0, heading_jitter)
            # Keep inside the world.
            x = min(max(x + step * cos(angle), x_lo), x_hi)
            y = min(max(y + step * sin(angle), y_lo), y_hi)
            pos = Point(x, y)
        points.append(pos)
    return Trajectory(tuple(points[:n_timestamps]))


def geolife_like(
    n_trajectories: int,
    n_timestamps: int,
    world: Rect,
    params: WaypointParams | None = None,
    seed: int = 7,
) -> list[Trajectory]:
    """A trajectory set mirroring the paper's GeoLife workload shape.

    The paper uses 60 trajectories with more than 10,000 timestamps;
    callers choose the scale (see :mod:`repro.experiments.scales`).
    """
    if params is None:
        params = WaypointParams()
    rng = random.Random(seed)
    return [
        generate_waypoint_trajectory(world, n_timestamps, params, rng)
        for _ in range(n_trajectories)
    ]
