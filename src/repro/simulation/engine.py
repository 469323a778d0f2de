"""Trajectory drivers: playback of mobile groups against the service.

The serving logic lives in :class:`repro.service.MPNService` and the
client side in :func:`repro.scenarios.runner.run_scenario`, the one
tick loop; this module feeds it :class:`TrajectoryGroups`, a stream of
fixed groups of trajectories played for ``n_timestamps`` steps.
Whenever some client's new location escapes her safe region, she fires
a report event and the three-step protocol of Fig. 3 executes inside
the service: one location update from the trigger client, ``m - 1``
probe requests and replies, and ``m`` result notifications carrying the
new meeting point and safe regions.  Every tick's escape events,
fleet-wide, are served with one ``report_many`` wave.

Setting ``check_every`` to a positive value asserts, every so many
timestamps, that each cached meeting point still equals the exact
aggregate nearest neighbor — the paper's core guarantee (Definition 3).
This is how the integration tests establish end-to-end soundness.

:func:`run_simulation` is the one-group case (the periodic strawman
aside, which opens no session), :func:`run_groups` averages it over
the §7 groups, and :func:`run_service` adds interleaved groups, mixed
spaces and POI churn against one shared index.  The runner is imported
at call time, since ``repro.scenarios`` imports this package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.types import Ordering
from repro.geometry.point import Point
from repro.index.backend import SpatialIndex
from repro.mobility.direction import DirectionPredictor
from repro.mobility.trajectory import Trajectory
from repro.service.api import ServiceBackend
from repro.service.service import MPNService
from repro.service.strategies import SafeRegionStrategy, get_strategy
from repro.simulation.messages import LOCATION_UPDATE_PACKETS, notify_packets
from repro.simulation.metrics import SimulationMetrics, average_metrics
from repro.simulation.policies import Policy
from repro.space import Space, as_space


class SafeRegionViolation(AssertionError):
    """The cached meeting point diverged from the exact one."""


def _steps(
    groups: Sequence[Sequence[Trajectory]], n_timestamps: Optional[int]
) -> int:
    """The playback length every driver validates its input against."""
    if not groups:
        raise ValueError("need at least one group")
    if not all(groups):
        raise ValueError("need at least one trajectory")
    steps = n_timestamps if n_timestamps is not None else min(
        len(t) for group in groups for t in group
    )
    if steps < 1:
        raise ValueError("need at least one timestamp")
    return steps


def run_simulation(
    policy: Policy,
    trajectories: Sequence[Trajectory],
    tree: SpatialIndex,
    n_timestamps: Optional[int] = None,
    check_every: int = 0,
) -> SimulationMetrics:
    """Simulate one group under one policy; returns the metrics.

    A one-group :func:`run_service` fleet, except for the periodic
    strawman, which opens no session.
    """
    steps = _steps([trajectories], n_timestamps)
    strategy = get_strategy(policy)
    if strategy.periodic:
        return _run_periodic(strategy, trajectories, tree, steps)
    result = run_service([trajectories], policy, tree, steps, check_every)
    return result.session_metrics[0]


def _run_periodic(
    strategy: SafeRegionStrategy,
    trajectories: Sequence[Trajectory],
    tree: SpatialIndex,
    steps: int,
) -> SimulationMetrics:
    """The strawman: every client reports every timestamp."""
    metrics = SimulationMetrics(timestamps=steps)
    m = len(trajectories)
    last_po = None
    for t in range(steps):
        users = [traj.at(t) for traj in trajectories]
        start = time.perf_counter()
        result = strategy.compute(users, tree)
        metrics.charge_update(time.perf_counter() - start)
        if t > 0 and result.po != last_po:
            metrics.result_changes += 1
        last_po = result.po
    # Every timestamp: m periodic reports up, m bare-point replies down.
    total = m * steps
    metrics.charge_round(
        total, total * LOCATION_UPDATE_PACKETS, total, total * notify_packets(0)
    )
    return metrics


def _assert_result_valid(
    policy: Policy,
    tree: Union[SpatialIndex, Space],
    users: Sequence[object],
    current_po: object,
) -> None:
    """The headline guarantee: quiet users => the result is still exact.

    Space-generic (``tree`` is a space or a bare Euclidean index): the
    exact best aggregate distance over the space's current POI set must
    equal the cached point's aggregate distance at the members'
    positions ``users``.  Ties are tolerated — the optimal point need
    not be unique.
    """
    space = as_space(tree)
    best_dist, best_poi = space.gnn(users, 1, policy.objective)[0]
    cached_dist = space.aggregate_dist(current_po, users, policy.objective)
    if cached_dist > best_dist + 1e-7:
        raise SafeRegionViolation(
            f"cached meeting point {current_po} has aggregate distance "
            f"{cached_dist}, but {best_poi} achieves {best_dist}"
        )


def run_groups(
    policy: Policy,
    groups: Sequence[Sequence[Trajectory]],
    tree: SpatialIndex,
    n_timestamps: Optional[int] = None,
    check_every: int = 0,
) -> SimulationMetrics:
    """Average metrics across user groups, as reported in Section 7.1."""
    runs = [
        run_simulation(policy, group, tree, n_timestamps, check_every)
        for group in groups
    ]
    return average_metrics(runs)


# ----------------------------------------------------------------------
# Multi-group serving
# ----------------------------------------------------------------------

# POI churn for one timestamp: an (adds, removes) batch of (position,
# payload) pairs — optionally (adds, removes, space) to target a
# non-default space's index, where space is a live Space or a
# backend-registered name (a name is the only form a cluster accepts)
# — or None for a quiet timestamp.
ChurnBatch = Union[
    tuple[Sequence[tuple[Point, object]], Sequence[tuple[Point, object]]],
    tuple[
        Sequence[tuple[object, object]],
        Sequence[tuple[object, object]],
        Union[str, Space],
    ],
]
ChurnSchedule = Union[
    Mapping[int, ChurnBatch], Callable[[int], Optional[ChurnBatch]]
]


def _no_churn(t: int) -> Optional[ChurnBatch]:
    return None


def _observe(
    predictors: Sequence[DirectionPredictor], positions: Sequence[Point]
) -> tuple:
    """Feed each member's new position; every member's (heading, theta)."""
    for predictor, position in zip(predictors, positions):
        predictor.observe(position)
    return tuple((p.heading, p.theta) for p in predictors)


class TrajectoryGroups:
    """Fixed trajectory groups as a ``run_scenario`` tick stream.

    Group ``g`` is session ``g`` of a fresh backend.  Tick 0 applies its
    churn, then opens every group at its first positions under
    ``policies[g]`` in ``spaces[g]``; each later tick applies its churn,
    then moves every group.  Groups under a directed tile policy also
    carry each member's predicted ``(heading, theta)``.  ``check(t,
    positions)`` runs once each tick ``t >= 1`` has been served.
    """

    name = "trajectory groups"

    def __init__(
        self,
        groups: Sequence[Sequence[Trajectory]],
        policies: Sequence[Policy],
        steps: int,
        spaces: Optional[Sequence[Union[None, str, Space]]] = None,
        churn: Callable[[int], Optional[ChurnBatch]] = _no_churn,
        check: Optional[Callable[[int, list[tuple]], None]] = None,
    ):
        self.groups = groups
        self.policies = policies
        self.steps = steps
        self.spaces = spaces or [None] * len(groups)
        self.churn = churn
        self.check = check
        self.tick = -1  # the tick being served

    def ticks(self) -> Iterator:
        from repro.scenarios.compiler import MoveEvent, OpenEvent, TickEvents

        # Only the Euclidean tile config has an ``ordering``.
        predictors = [
            [DirectionPredictor() for _ in group]
            if getattr(policy.tile_config, "ordering", None) is Ordering.DIRECTED
            else None
            for group, policy in zip(self.groups, self.policies)
        ]
        for t in range(self.steps):
            self.tick = t
            moves = []
            for g, (group, preds) in enumerate(zip(self.groups, predictors)):
                pos = tuple([traj.at(t) for traj in group])
                dirs = None if preds is None else _observe(preds, pos)
                moves.append(MoveEvent(g, pos, dirs))
            if t == 0:
                opens = tuple(
                    OpenEvent(g, self.name, policy, move.positions, space)
                    for g, (policy, move, space) in enumerate(
                        zip(self.policies, moves, self.spaces)
                    )
                )
                yield TickEvents(t, self.churn(t), opens, (), ())
                continue
            yield TickEvents(t, self.churn(t), (), tuple(moves), ())
            if self.check is not None:
                self.check(t, [move.positions for move in moves])


class _Fleet:
    """:func:`run_service`'s backend proxy: it keeps each session's
    meeting point and the sessions each churn batch re-notified, which
    a wire backend does not hold client-side."""

    def __init__(self, backend: ServiceBackend, stream: TrajectoryGroups):
        self._backend = backend
        self._stream = stream
        self.po: dict[int, object] = {}
        self.churn_notified: list[tuple[int, list[int]]] = []

    def __getattr__(self, name: str):
        return getattr(self._backend, name)

    def _keep(self, notifications):
        for n in notifications:
            if n is not None:
                self.po[n.session_id] = n.po
        return notifications

    def open_session(self, *args, **kwargs):
        handle = self._backend.open_session(*args, **kwargs)
        self._keep([handle.notification])
        return handle

    def report_many(self, events):
        return self._keep(self._backend.report_many(events))

    def update_pois(self, *args, **kwargs):
        notified = self._keep(self._backend.update_pois(*args, **kwargs))
        if notified:
            self.churn_notified.append(
                (self._stream.tick, [n.session_id for n in notified])
            )
        return notified


@dataclass
class ServiceRunResult:
    """Outcome of :func:`run_service`."""

    service: ServiceBackend
    session_ids: list[int]
    session_metrics: list[SimulationMetrics]
    churn_notified: list[tuple[int, list[int]]] = field(default_factory=list)

    @property
    def metrics(self) -> SimulationMetrics:
        """Service-wide traffic across every session (cluster backends
        answer with their merged cluster-wide counters)."""
        return self.service.metrics


def run_service(
    groups: Sequence[Sequence[Trajectory]],
    policies: Union[Policy, Sequence[Policy]],
    tree: Union[None, SpatialIndex, Space] = None,
    n_timestamps: Optional[int] = None,
    check_every: int = 0,
    churn: Optional[ChurnSchedule] = None,
    spaces: Optional[
        Union[str, Space, Sequence[Union[None, str, Space]]]
    ] = None,
    backend: Optional[ServiceBackend] = None,
) -> ServiceRunResult:
    """Play many concurrent groups against one shared serving backend.

    All groups advance with interleaved timestamps: at each step every
    group moves, and the escape events of the whole fleet are served
    with one :meth:`~repro.service.MPNService.report_many` wave against
    the same backend (and the same POI set) — :func:`run_scenario
    <repro.scenarios.run_scenario>` plays the groups as a
    :class:`TrajectoryGroups` stream.  ``policies`` is either one
    policy for every group or one per group.

    ``backend`` is any fresh :class:`~repro.service.api.ServiceBackend`
    with the in-process convenience surface — a prebuilt
    :class:`MPNService` (``MPNService(tree, batched=False)`` is the
    scalar reference path), a sharded :class:`repro.cluster.MPNCluster`
    or a wire backend; group ``g`` becomes its session ``g``.  When
    ``backend`` is ``None`` the function builds ``MPNService(tree)``
    (``tree`` is required exactly in that case).

    ``spaces`` makes the fleet *mixed-metric*: one space per group (or
    a single one for all; ``None`` entries mean the backend's default
    space).  An entry may be a live :class:`~repro.space.base.Space`
    (single-service runs) or a name registered on the backend via
    ``add_space`` — the only form a cluster accepts, since cluster
    spaces are per-shard replicas.  Euclidean groups replaying planar
    trajectories and road-network groups replaying
    :class:`~repro.network_ext.monitor.NetworkTrajectory` sequences
    under ``net_circle`` / ``net_tile`` policies then coexist on the
    one backend, each session computing against its own space's index
    — and the exactness checks run per group in its own metric.

    ``churn`` schedules POI updates: a mapping (or callable) from
    timestamp to an ``(adds, removes)`` batch — or an ``(adds,
    removes, space)`` triple targeting a non-default space — applied
    through :meth:`MPNService.update_pois` *before* the groups move at
    that timestamp.  Sessions invalidated by the batch are re-notified
    and their clients pick up the fresh regions, exactly like a report
    round.

    ``check_every`` asserts, every so many timestamps, that every
    session's cached meeting point is still exactly optimal over the
    *current* POI set (ties tolerated) — the Definition 3 guarantee
    under concurrency and churn.
    """
    from repro.scenarios.runner import run_scenario

    steps = _steps(groups, n_timestamps)
    if isinstance(policies, Policy):
        policies = [policies] * len(groups)
    if len(policies) != len(groups):
        raise ValueError("need one policy per group (or a single policy)")
    if spaces is None or isinstance(spaces, (str, Space)):
        spaces = [spaces] * len(groups)
    if len(spaces) != len(groups):
        raise ValueError("need one space per group (or a single space)")
    if churn is None:
        churn = _no_churn
    elif not callable(churn):
        churn = churn.get
    if backend is None:
        if tree is None:
            raise ValueError("need a tree/space (or a prebuilt backend)")
        backend = MPNService(tree)
    elif tree is not None:
        raise ValueError("pass either tree or backend, not both")
    # The space each group's exactness checks measure in: name entries
    # resolve through the backend's registry (a cluster answers with a
    # replica — every replica holds the same POI set).
    check_spaces = [
        backend.get_space(s) if isinstance(s, str)
        else (s if s is not None else backend.space)
        for s in spaces
    ]

    def check(t: int, positions: list[tuple]) -> None:
        if t % check_every == 0:
            for g, (policy, space, users) in enumerate(
                zip(policies, check_spaces, positions)
            ):
                _assert_result_valid(policy, space, users, fleet.po[g])

    stream = TrajectoryGroups(
        groups, policies, steps, spaces, churn, check if check_every > 0 else None
    )
    fleet = _Fleet(backend, stream)
    run_scenario(stream, fleet)
    session_ids = list(range(len(groups)))
    session_metrics = [backend.session_metrics(g) for g in session_ids]
    for metrics in session_metrics:
        metrics.timestamps = steps
    return ServiceRunResult(
        service=backend,
        session_ids=session_ids,
        session_metrics=session_metrics,
        churn_notified=fleet.churn_notified,
    )
