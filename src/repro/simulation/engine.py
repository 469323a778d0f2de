"""Trajectory drivers: playback of mobile groups against the service.

The serving logic lives in :class:`repro.service.MPNService`; this
module only *drives* it: every session-based run goes through one tick
loop (:func:`run_service`).  A run plays groups of trajectories for
``n_timestamps`` steps.  Whenever some client's new location escapes
her safe region, she fires a report event and the three-step protocol
of Fig. 3 executes inside the service: one location update from the
trigger client, ``m - 1`` probe requests and replies, and ``m`` result
notifications carrying the new meeting point and safe regions.  Every
tick's escape events, fleet-wide, are served with one ``report_many``
wave.

Setting ``check_every`` to a positive value asserts, every so many
timestamps, that each cached meeting point still equals the exact
aggregate nearest neighbor — the paper's core guarantee (Definition 3).
This is how the integration tests establish end-to-end soundness.

:func:`run_simulation` is the one-group case (the periodic strawman
aside, which opens no session), :func:`run_groups` averages it over
the §7 groups, and :func:`run_service` adds interleaved groups, mixed
spaces and POI churn against one shared index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.geometry.point import Point
from repro.index.backend import SpatialIndex
from repro.mobility.trajectory import Trajectory
from repro.service.api import ServiceBackend
from repro.service.messages import MemberState, Notification, ReportEvent
from repro.service.service import MPNService
from repro.service.strategies import SafeRegionStrategy, get_strategy
from repro.simulation.client import SimClient
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


def _make_clients(
    policy: Policy, trajectories: Sequence[Trajectory]
) -> list[SimClient]:
    # ``ordering`` only exists on the Euclidean tile config; network
    # tile configs (and custom ones) never track direction.
    ordering = getattr(policy.tile_config, "ordering", None)
    track_direction = ordering is not None and ordering.value == "directed"
    return [SimClient(traj, track_direction) for traj in trajectories]


def _client_prober(clients: Sequence[SimClient]) -> Callable[[int], MemberState]:
    """Probe replies (step 2): read the probed client's live state."""

    def prober(i: int) -> MemberState:
        client = clients[i]
        return MemberState(client.position, client.heading, client.theta)

    return prober


def _open_group_session(
    service: "ServiceBackend",
    policy: Policy,
    clients: Sequence[SimClient],
    space: Union[None, str, Space] = None,
) -> tuple[int, Notification]:
    handle = service.open_session(
        [MemberState(c.position, c.heading, c.theta) for c in clients],
        policy,
        prober=_client_prober(clients),
        space=space,
    )
    _deliver(clients, handle.notification)
    return handle.session_id, handle.notification


def _deliver(clients: Sequence[SimClient], notification: Notification) -> None:
    """Step 3 lands client-side: each member caches her new region."""
    for client, region in zip(clients, notification.regions):
        client.assign_region(region)


def _advance_and_find_trigger(
    clients: Sequence[SimClient], t: int
) -> Optional[tuple[int, MemberState]]:
    """Advance one group to ``t``; the escaping member's report, if any."""
    for client in clients:
        client.advance(t)
    trigger = next(
        (i for i, c in enumerate(clients) if c.outside_region()), None
    )
    if trigger is None:
        return None
    client = clients[trigger]
    return trigger, MemberState(client.position, client.heading, client.theta)


def _assert_result_valid(
    policy: Policy,
    tree: Union[SpatialIndex, Space],
    clients: Sequence[SimClient],
    current_po: object,
) -> None:
    """The headline guarantee: quiet users => the result is still exact.

    Space-generic (``tree`` is a space or a bare Euclidean index): the
    exact best aggregate distance over the space's current POI set must
    equal the cached point's aggregate distance.  Ties are tolerated —
    the optimal point need not be unique.
    """
    space = as_space(tree)
    users = [c.position for c in clients]
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
    batched: Optional[bool] = None,
    spaces: Optional[
        Union[str, Space, Sequence[Union[None, str, Space]]]
    ] = None,
    backend: Optional[ServiceBackend] = None,
) -> ServiceRunResult:
    """Play many concurrent groups against one shared serving backend.

    All groups advance with interleaved timestamps: at each step every
    group moves, and the escape events of the whole fleet are served
    with one :meth:`~repro.service.MPNService.report_many` wave against
    the same backend (and the same POI set).  ``policies`` is either
    one policy for every group or one per group.

    ``backend`` is any :class:`~repro.service.api.ServiceBackend` with
    the in-process convenience surface — a prebuilt
    :class:`MPNService` or a sharded
    :class:`repro.cluster.MPNCluster`; the whole fleet runs unchanged
    against either.  When ``backend`` is ``None`` the function builds
    a single ``MPNService(tree, batched=batched)`` (``tree`` is
    required exactly in that case).  A prebuilt backend already chose
    its fleet path, so combining ``backend=`` with an explicit
    ``batched=`` raises instead of silently overriding either.

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

    ``batched`` is the constructor argument of the ``MPNService`` the
    function builds: false makes that service recompute every escaped
    session on the scalar path, which ``report_many`` keeps
    notification- and counter-identical to sequential
    :meth:`MPNService.report` calls
    (``tests/test_service_batch_equivalence.py``).
    """
    steps = _steps(groups, n_timestamps)
    if isinstance(policies, Policy):
        policies = [policies] * len(groups)
    if len(policies) != len(groups):
        raise ValueError("need one policy per group (or a single policy)")
    if spaces is None or isinstance(spaces, (str, Space)):
        spaces = [spaces] * len(groups)
    if len(spaces) != len(groups):
        raise ValueError("need one space per group (or a single space)")
    if callable(churn):
        churn_at = churn
    elif churn is not None:
        churn_at = churn.get
    else:
        churn_at = _no_churn

    if backend is None:
        if tree is None:
            raise ValueError("need a tree/space (or a prebuilt backend)")
        service = MPNService(tree, batched=True if batched is None else batched)
    else:
        if tree is not None:
            raise ValueError("pass either tree or backend, not both")
        if batched is not None:
            raise ValueError(
                "batched is the backend's own setting; construct the "
                "backend with batched=... instead of passing both"
            )
        service = backend
    # The space each group's exactness checks measure in: name entries
    # resolve through the backend's registry (a cluster answers with a
    # replica — every replica holds the same POI set).
    check_spaces = [
        service.get_space(s) if isinstance(s, str)
        else (s if s is not None else service.space)
        for s in spaces
    ]
    # Churn scheduled for t=0 lands before any session registers.
    initial_batch = churn_at(0)
    if initial_batch is not None:
        service.update_pois(*initial_batch)
    fleet: dict[int, Sequence[SimClient]] = {}  # session id -> clients
    pos: dict[int, Point] = {}  # session id -> cached meeting point
    for policy, group, space_ref in zip(policies, groups, spaces):
        clients = _make_clients(policy, group)
        session_id, registration = _open_group_session(
            service, policy, clients, space_ref
        )
        fleet[session_id] = clients
        pos[session_id] = registration.po

    def deliver(notifications: Sequence[Optional[Notification]]) -> None:
        for notification in notifications:
            if notification is not None:
                _deliver(fleet[notification.session_id], notification)
                pos[notification.session_id] = notification.po

    churn_notified: list[tuple[int, list[int]]] = []
    for t in range(1, steps):
        batch = churn_at(t)
        if batch is not None:
            notifications = service.update_pois(*batch)
            deliver(notifications)
            if notifications:
                churn_notified.append(
                    (t, [n.session_id for n in notifications])
                )
        # The tick's escape events, fleet-wide, served as one wave.
        events: list[ReportEvent] = []
        for session_id, clients in fleet.items():
            escaped = _advance_and_find_trigger(clients, t)
            if escaped is not None:
                trigger, state = escaped
                events.append(ReportEvent(session_id, trigger, state))
        if events:
            deliver(service.report_many(events))
        if check_every > 0 and t % check_every == 0:
            for policy, check_space, (session_id, clients) in zip(
                policies, check_spaces, fleet.items()
            ):
                _assert_result_valid(
                    policy, check_space, clients, pos[session_id]
                )

    session_metrics = []
    for session_id in fleet:
        metrics = service.session_metrics(session_id)
        metrics.timestamps = steps
        session_metrics.append(metrics)
    return ServiceRunResult(
        service=service,
        session_ids=list(fleet),
        session_metrics=session_metrics,
        churn_notified=churn_notified,
    )
