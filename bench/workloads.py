"""The benchmark's workloads: seeded ``ScenarioSpec``s and the backend each runs on.

Every workload is built from ``repro.scenarios`` cohort kinds; ``--seed``
becomes both ``spec.seed`` (trajectories, churn, spot-check sample) and the
POI layout's seed, so another seed is another city and another fleet.  The
program under test receives only the generated stream.

Session counts are sized so that one pass of the tick loop takes a few
seconds on a 2-core box: a run replays the same seeded stream several times
(see ``bench/README.md``, "Noise"), and all runs the driver makes must fit its
time cap.  The cohort mix, tick counts and backends are the point of each
workload; scale the session counts, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.scenarios import (
    CityGraphSpaceSpec,
    CohortSpec,
    EuclideanSpaceSpec,
    PoiChurnSpec,
    ScenarioSpec,
)

PLANE = (0.0, 0.0, 20000.0, 20000.0)


def _sized(n: int, scale: str) -> int:
    return n if scale == "full" else max(2, n // 20)


def _ticks(n: int, scale: str) -> int:
    return n if scale == "full" else max(4, n // 3)


def _window(ticks: int, lifetime: int) -> tuple[int, int]:
    """Arrival window and lifetime that fit ``ticks`` (smoke runs shrink both)."""
    lifetime = min(lifetime, max(2, ticks // 2))
    return max(0, ticks - 1 - lifetime // 2), lifetime


def _circle_fleet(
    name: str, seed: int, sessions: int, ticks: int, n_pois: int, churn: PoiChurnSpec
) -> ScenarioSpec:
    """Delivery 50 % + wanderer 25 % (groups of 2) + event_crowd 25 % (groups of 3)."""
    last, lifetime = _window(ticks, 20)
    delivery = sessions // 2
    wanderers = sessions // 4
    crowd = sessions - delivery - wanderers

    def cohort(cname, kind, n, group_size, speed, spread):
        return CohortSpec(
            name=cname,
            kind=kind,
            sessions=n,
            group_size=group_size,
            first_tick=0,
            last_tick=last,
            lifetime=lifetime,
            speed=speed,
            spawn_spread=spread,
            policies=("circle",),
        )

    return ScenarioSpec(
        name=name,
        seed=seed,
        ticks=ticks,
        space=EuclideanSpaceSpec(world=PLANE, n_pois=n_pois, poi_seed=seed),
        cohorts=(
            cohort("delivery", "delivery", delivery, 2, 22.0, 120.0),
            cohort("wanderers", "wanderer", wanderers, 2, 14.0, 90.0),
            cohort("crowd", "event_crowd", crowd, 3, 18.0, 150.0),
        ),
        poi_churn=churn,
    )


def euclid_circle(seed: int, scale: str) -> ScenarioSpec:
    return _circle_fleet(
        "euclid_circle", seed, _sized(2000, scale), _ticks(120, scale), 2500,
        PoiChurnSpec(every=5, adds=20, removes=10),
    )


def wire_circle(seed: int, scale: str) -> ScenarioSpec:
    return _circle_fleet(
        "wire_circle", seed, _sized(400, scale), _ticks(100, scale), 2500,
        PoiChurnSpec(every=5, adds=20, removes=10),
    )


def euclid_churn(seed: int, scale: str) -> ScenarioSpec:
    return _circle_fleet(
        "euclid_churn", seed, _sized(400, scale), _ticks(60, scale), 4000,
        PoiChurnSpec(every=1, adds=50, removes=50),
    )


def euclid_tile(seed: int, scale: str) -> ScenarioSpec:
    ticks = _ticks(30, scale)
    last, lifetime = _window(ticks, 20)
    return ScenarioSpec(
        name="euclid_tile",
        seed=seed,
        ticks=ticks,
        space=EuclideanSpaceSpec(world=PLANE, n_pois=2500, poi_seed=seed),
        cohorts=(
            CohortSpec(
                name="wanderers",
                kind="wanderer",
                sessions=_sized(5, scale),
                group_size=2,
                first_tick=0,
                last_tick=last,
                lifetime=lifetime,
                speed=14.0,
                spawn_spread=90.0,
                policies=("tile",),
            ),
        ),
        poi_churn=PoiChurnSpec(every=10, adds=20, removes=10),
    )


def citynet_circle(seed: int, scale: str) -> ScenarioSpec:
    ticks = _ticks(100, scale)
    # Many short trips rather than a few long ones: escapes within one
    # session are correlated, so it is the number of sessions that steadies
    # the per-seed counts (packets, churn notifications).
    last, lifetime = _window(ticks, 8)
    sessions = _sized(180, scale)
    commuters = (7 * sessions) // 10

    def cohort(cname, kind, n, speed):
        return CohortSpec(
            name=cname,
            kind=kind,
            sessions=n,
            group_size=3,
            first_tick=0,
            last_tick=last,
            lifetime=lifetime,
            speed=speed,
            policies=("net_circle",),
        )

    return ScenarioSpec(
        name="citynet_circle",
        seed=seed,
        ticks=ticks,
        # The street grid is the same city for every seed; its POIs, the
        # commuters and the crowd are the seed's.
        space=CityGraphSpaceSpec(
            grid_size=16, graph_seed=17, n_pois=60, poi_seed=seed
        ),
        cohorts=(
            cohort("commuters", "commuter", commuters, 1.2),
            cohort("match_crowd", "event_crowd", sessions - commuters, 0.9),
        ),
        poi_churn=PoiChurnSpec(every=1, adds=5, removes=5),
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its stream, its backend, its spot-check size."""

    spec: Callable[[int, str], ScenarioSpec]
    backend: str  # "service" | "cluster" | "process"
    spot_check_cap: int = 32


SHARDS = 2  # nproc is 2; ProcessCluster visits its shards one after another

WORKLOADS: dict[str, Workload] = {
    "euclid_circle": Workload(euclid_circle, "service"),
    "wire_circle": Workload(wire_circle, "process"),
    "euclid_churn": Workload(euclid_churn, "cluster"),
    "citynet_circle": Workload(citynet_circle, "service"),
    # Runs by name, but is not one of BENCHMARK.json's workloads: see the
    # README ("Why euclid_tile is not gated").
    "euclid_tile": Workload(euclid_tile, "service", spot_check_cap=4),
}
