"""Equivalence regression: the old network loop vs. the service path.

Road-network groups used to run in a self-contained network-native
monitoring loop; they are now ``net_circle`` / ``net_tile`` sessions
on :class:`MPNService`, driven like any other group by
:func:`repro.simulation.run_service`.  This file keeps a verbatim copy
of the legacy loop (instrumented to record its notification sequence)
as the reference, and holds the service path to **bit-identical**
behavior on seeded workloads:

* the same escape events at the same timestamps, triggered by the same
  members;
* the same meeting POIs, the same region shapes (ball radii /
  tile-interval sets) and the same wire sizes in every notification;
* the same values in every metrics counter the legacy loop maintained
  (the service path additionally tracks index/verification work the
  old loop never charged — that is a superset, not a divergence).
"""

import random

import pytest

from repro.gnn.aggregate import Aggregate
from repro.network_ext.ball import NetworkBall
from repro.network_ext.circle_msr import network_circle_msr
from repro.network_ext.gnn import network_gnn
from repro.network_ext.monitor import network_trajectory
from repro.network_ext.space import NetworkSpace
from repro.network_ext.tile_msr import network_tile_msr
from repro.service import MemberState, MPNService
from repro.simulation import run_service
from repro.simulation.messages import (
    location_update,
    probe_request,
    result_notify,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import net_circle_policy, net_tile_policy
from repro.space.network import NetworkPOISpace

# The counters the legacy loop populated; compared field by field.
LEGACY_COUNTERS = (
    "timestamps",
    "update_events",
    "result_changes",
    "messages_up",
    "messages_down",
    "packets_up",
    "packets_down",
    "region_values_sent",
)


def region_signature(region):
    """A canonical, comparison-friendly encoding of a safe region."""
    if isinstance(region, NetworkBall):
        return ("ball", region.center, region.radius)
    return (
        "tiles",
        tuple(
            sorted(
                (str(iv.u), str(iv.v), iv.lo, iv.hi)
                for iv in region.intervals()
            )
        ),
    )


def legacy_network_loop(
    space,
    pois,
    trajectories,
    objective=Aggregate.MAX,
    check_every=0,
    method="circle",
):
    """The legacy network loop, verbatim, plus an event recorder.

    Events are ``(t, trigger_member, po, region signatures, wire
    values)`` — ``trigger_member`` is None for the registration round.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if method not in ("circle", "tile"):
        raise ValueError(f"unknown method: {method!r}")
    steps = min(len(t) for t in trajectories)
    m = len(trajectories)
    metrics = SimulationMetrics(timestamps=steps)
    events = []

    def recompute(positions):
        if method == "circle":
            result = network_circle_msr(space, pois, positions, objective)
            result_regions = result.balls
        else:
            result = network_tile_msr(space, pois, positions, objective=objective)
            result_regions = result.regions
        metrics.update_events += 1
        for region in result_regions:
            metrics.record_message(result_notify(region.wire_values()))
            metrics.region_values_sent += region.wire_values()
        return result.po, result_regions

    positions = [t[0] for t in trajectories]
    for _ in range(m):
        metrics.record_message(location_update())
    current_po, regions = recompute(positions)
    events.append(
        (
            0,
            None,
            current_po,
            tuple(region_signature(r) for r in regions),
            tuple(r.wire_values() for r in regions),
        )
    )

    for t in range(1, steps):
        positions = [traj[t] for traj in trajectories]
        trigger = next(
            (
                k
                for k, pos in enumerate(positions)
                if not regions[k].contains(pos)
            ),
            None,
        )
        if trigger is None:
            if check_every > 0 and t % check_every == 0:
                best_dist, best = network_gnn(space, pois, positions, 1, objective)[0]
                cached = network_gnn(
                    space, [current_po], positions, 1, objective
                )[0][0]
                if cached > best_dist + 1e-7:
                    raise AssertionError(
                        f"cached meeting POI {current_po} (agg {cached}) beaten "
                        f"by {best} (agg {best_dist}) at t={t}"
                    )
            continue
        metrics.record_message(location_update())
        for _ in range(m - 1):
            metrics.record_message(probe_request())
            metrics.record_message(location_update())
        new_po, regions = recompute(positions)
        if new_po != current_po:
            metrics.result_changes += 1
        current_po = new_po
        events.append(
            (
                t,
                trigger,
                current_po,
                tuple(region_signature(r) for r in regions),
                tuple(r.wire_values() for r in regions),
            )
        )
    return metrics, events


def service_network_loop(
    space, pois, trajectories, objective, method
):
    """The new serving path, recording the same event tuples."""
    steps = min(len(t) for t in trajectories)
    policy = (
        net_circle_policy(objective)
        if method == "circle"
        else net_tile_policy(objective)
    )
    service = MPNService(NetworkPOISpace(space, pois))
    current = [t[0] for t in trajectories]
    handle = service.open_session(list(current), policy)
    events = [
        (
            0,
            None,
            handle.notification.po,
            tuple(region_signature(r) for r in handle.notification.regions),
            handle.notification.region_values,
        )
    ]
    regions = handle.notification.regions
    for t in range(1, steps):
        current = [traj[t] for traj in trajectories]
        trigger = next(
            (k for k, pos in enumerate(current) if not regions[k].contains(pos)),
            None,
        )
        if trigger is None:
            continue
        probes = [
            (j, MemberState(point=current[j]))
            for j in range(len(current))
            if j != trigger
        ]
        notification = service.report(
            handle.session_id, trigger, current[trigger], probes=probes
        )
        assert notification is not None
        regions = notification.regions
        events.append(
            (
                t,
                trigger,
                notification.po,
                tuple(region_signature(r) for r in regions),
                notification.region_values,
            )
        )
    metrics = service.session_metrics(handle.session_id)
    metrics.timestamps = steps
    return metrics, events


@pytest.fixture(scope="module")
def workload():
    space = NetworkSpace.from_grid(grid_size=5, seed=21, world=None)
    rng = random.Random(6)
    pois = rng.sample(list(space.graph.nodes), 8)
    trajectories = [
        network_trajectory(space, 80, speed=25.0, rng=rng) for _ in range(3)
    ]
    return space, pois, trajectories


@pytest.mark.parametrize("method", ["circle", "tile"])
@pytest.mark.parametrize("objective", [Aggregate.MAX, Aggregate.SUM])
class TestShimEquivalence:
    def test_notification_sequences_bit_identical(
        self, workload, method, objective
    ):
        space, pois, trajectories = workload
        _, legacy_events = legacy_network_loop(
            space, pois, trajectories, objective, method=method
        )
        _, service_events = service_network_loop(
            space, pois, trajectories, objective, method
        )
        assert len(legacy_events) > 1  # the workload actually escapes
        assert service_events == legacy_events

    def test_run_service_metrics_match_legacy_counters(
        self, workload, method, objective
    ):
        space, pois, trajectories = workload
        legacy_metrics, _ = legacy_network_loop(
            space, pois, trajectories, objective, check_every=10, method=method
        )
        policy = (
            net_circle_policy(objective)
            if method == "circle"
            else net_tile_policy(objective)
        )
        result = run_service(
            [trajectories], policy, NetworkPOISpace(space, pois), check_every=10
        )
        service_metrics = result.session_metrics[0]
        for counter in LEGACY_COUNTERS:
            assert getattr(service_metrics, counter) == getattr(
                legacy_metrics, counter
            ), counter
