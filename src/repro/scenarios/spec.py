"""Declarative scenario specs: the population a workload describes.

A :class:`ScenarioSpec` is a frozen, picklable description of a
synthetic population — cohorts of moving groups, the space they live
in, their per-tick rules (arrival/departure schedules, policy mix, POI
churn) — that :mod:`repro.scenarios.compiler` turns into a lazy,
deterministic per-tick event stream.  Everything here is data: no
trajectory, session, or index is materialized until the compiled
stream is consumed.

The space specs double as the zero-argument space *factories* every
backend needs — :class:`~repro.transport.worker.ProcessCluster` workers
are spawned and call the factory in their own process, the compiler
calls it for trajectory planning, and the runner's spot-check replay
calls it for the fresh reference service.  A frozen dataclass with a
``__call__`` pickles; a lambda closing over a POI list does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.simulation.policies import (
    Policy,
    circle_policy,
    net_circle_policy,
    net_tile_policy,
    tile_policy,
)

#: Cohort kinds served on each space kind.  Commuters need roads;
#: delivery vans run the waypoint model, which needs an open plane.
COHORT_KINDS_BY_SPACE = {
    "euclidean": ("wanderer", "delivery", "event_crowd"),
    "network": ("commuter", "event_crowd", "wanderer"),
}

#: The built-in policy mix entries, by space kind.
POLICY_FACTORIES = {
    "circle": circle_policy,
    "tile": tile_policy,
    "net_circle": net_circle_policy,
    "net_tile": net_tile_policy,
}
EUCLIDEAN_POLICIES = ("circle", "tile")
NETWORK_POLICIES = ("net_circle", "net_tile")


def resolve_policy(name: Union[str, Policy]) -> Policy:
    """The :class:`Policy` object a spec's policy-mix entry names (a
    :class:`Policy` passes through)."""
    if isinstance(name, Policy):
        return name
    try:
        return POLICY_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_FACTORIES)}"
        ) from None


@dataclass(frozen=True)
class EuclideanSpaceSpec:
    """A bounded plane with seeded clustered POIs.

    ``__call__`` builds the :class:`~repro.space.Space` — picklable, so
    it serves directly as a :class:`ProcessCluster` worker factory.
    """

    world: tuple[float, float, float, float] = (0.0, 0.0, 10000.0, 10000.0)
    n_pois: int = 500
    poi_seed: int = 7
    kind: str = "euclidean"

    def __call__(self):
        from repro.space import as_space
        from repro.workloads.poi import build_poi_tree

        return as_space(build_poi_tree(self.initial_pois()))

    def world_rect(self):
        from repro.geometry.rect import Rect

        x0, y0, x1, y1 = self.world
        return Rect(x0, y0, x1, y1)

    def initial_pois(self) -> list:
        """The seeded POI set every replica starts from."""
        from repro.workloads.poi import clustered_pois

        return clustered_pois(self.n_pois, self.world_rect(), seed=self.poi_seed)

    def validate(self) -> None:
        x0, y0, x1, y1 = self.world
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate world rectangle {self.world}")
        if self.n_pois < 1:
            raise ValueError("need at least one POI")


@dataclass(frozen=True)
class CityGraphSpaceSpec:
    """A seeded road-like city graph with POI nodes.

    Wraps :func:`repro.workloads.citygraph.city_network_space`; the
    same caveats as :class:`EuclideanSpaceSpec` — picklable factory,
    deterministic replicas-by-construction.
    """

    grid_size: int = 24
    graph_seed: int = 17
    n_pois: int = 60
    poi_seed: int = 23
    kind: str = "network"

    def __call__(self):
        from repro.space.network import NetworkPOISpace

        net = self.network_space()
        return NetworkPOISpace(net, self.initial_pois(net.graph))

    def network_space(self):
        from repro.workloads.citygraph import city_network_space

        return city_network_space(grid_size=self.grid_size, seed=self.graph_seed)

    def initial_pois(self, graph=None) -> list:
        from repro.workloads.citygraph import city_poi_nodes

        if graph is None:
            graph = self.network_space().graph
        return city_poi_nodes(graph, self.n_pois, seed=self.poi_seed)

    def validate(self) -> None:
        if self.grid_size < 4:
            raise ValueError("grid_size must be >= 4")
        if self.n_pois < 1:
            raise ValueError("need at least one POI")


SpaceSpec = Union[EuclideanSpaceSpec, CityGraphSpaceSpec]


@dataclass(frozen=True)
class CohortSpec:
    """One population segment: who they are, when they exist, how they move.

    ``sessions`` groups arrive uniformly over ticks ``[first_tick,
    last_tick]`` (group *formation* schedule) and each dissolves
    ``lifetime`` ticks after it opened (group *dissolution*); both are
    deterministic functions of the spec, never sampled.  ``policies``
    is the cohort's policy mix — session ``k`` opens under
    ``policies[k % len(policies)]``.
    """

    name: str
    kind: str  # "commuter" | "event_crowd" | "delivery" | "wanderer"
    sessions: int
    group_size: int = 3
    first_tick: int = 0
    last_tick: int = 0
    lifetime: int = 10
    speed: float = 5.0
    spawn_spread: float = 60.0  # start-position spread inside one group
    policies: tuple[str, ...] = ("circle",)

    def validate(self, space: SpaceSpec, ticks: int) -> None:
        allowed = COHORT_KINDS_BY_SPACE[space.kind]
        if self.kind not in allowed:
            raise ValueError(
                f"cohort {self.name!r}: kind {self.kind!r} cannot run on a "
                f"{space.kind} space (allowed: {allowed})"
            )
        if self.sessions < 1:
            raise ValueError(f"cohort {self.name!r}: needs at least one session")
        if self.group_size < 1:
            raise ValueError(f"cohort {self.name!r}: group_size must be >= 1")
        if not 0 <= self.first_tick <= self.last_tick < ticks:
            raise ValueError(
                f"cohort {self.name!r}: arrival window "
                f"[{self.first_tick}, {self.last_tick}] outside 0..{ticks - 1}"
            )
        if self.lifetime < 1:
            raise ValueError(f"cohort {self.name!r}: lifetime must be >= 1")
        if self.speed <= 0:
            raise ValueError(f"cohort {self.name!r}: speed must be > 0")
        if not self.policies:
            raise ValueError(f"cohort {self.name!r}: empty policy mix")
        wanted = (
            NETWORK_POLICIES if space.kind == "network" else EUCLIDEAN_POLICIES
        )
        for name in self.policies:
            resolve_policy(name)
            if name not in wanted:
                raise ValueError(
                    f"cohort {self.name!r}: policy {name!r} does not serve a "
                    f"{space.kind} space (use one of {wanted})"
                )

    def open_tick(self, k: int) -> int:
        """When session ``k`` of this cohort forms (uniform arrival)."""
        span = self.last_tick - self.first_tick
        if self.sessions == 1:
            return self.first_tick
        return self.first_tick + (k * span) // (self.sessions - 1)


@dataclass(frozen=True)
class PoiChurnSpec:
    """The POI churn schedule: every ``every`` ticks, one batch.

    Adds are fresh seeded positions (points on a plane, non-POI nodes
    on a graph); removes are sampled from the POIs currently present,
    so a schedule can never remove a POI twice.
    """

    every: int = 10
    adds: int = 4
    removes: int = 2

    def validate(self) -> None:
        if self.every < 1:
            raise ValueError("churn period must be >= 1 tick")
        if self.adds < 0 or self.removes < 0:
            raise ValueError("churn batch sizes must be >= 0")
        if self.adds == 0 and self.removes == 0:
            raise ValueError("churn schedule with empty batches")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario: space + cohorts + rules."""

    name: str
    seed: int
    ticks: int
    space: SpaceSpec
    cohorts: tuple[CohortSpec, ...] = ()
    poi_churn: PoiChurnSpec | None = None
    description: str = field(default="", compare=False)

    def validate(self) -> "ScenarioSpec":
        if self.ticks < 1:
            raise ValueError("scenario needs at least one tick")
        if not self.cohorts:
            raise ValueError("scenario needs at least one cohort")
        names = [c.name for c in self.cohorts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cohort names in {names}")
        self.space.validate()
        for cohort in self.cohorts:
            cohort.validate(self.space, self.ticks)
        if self.poi_churn is not None:
            self.poi_churn.validate()
        return self

    def total_sessions(self) -> int:
        return sum(c.sessions for c in self.cohorts)
