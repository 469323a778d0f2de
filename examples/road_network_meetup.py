"""Road-network meeting points: the paper's future work, implemented.

Section 8 sketches extending MPN to road networks, replacing circular
safe regions by "range search regions over road segments".  This
example builds a synthetic city road graph, runs the network-metric
Circle-MSR (Theorem 1 holds verbatim — its proof only needs the
triangle inequality), and replays a commuting group with network balls
as safe regions.

Run:  python examples/road_network_meetup.py
"""

import random

from repro.geometry.rect import Rect
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext import NetworkSpace, network_circle_msr, network_trajectory
from repro.simulation import net_circle_policy, run_service
from repro.space.network import NetworkPOISpace


def main() -> None:
    world = Rect(0, 0, 10_000, 10_000)
    graph = build_road_network(world, NetworkParams(grid_size=10), seed=3)
    space = NetworkSpace(graph)
    rng = random.Random(8)

    # A dozen meeting venues at intersections.
    pois = rng.sample(list(graph.nodes), 12)

    # Three commuters somewhere on the road network.
    users = [space.random_position(rng) for _ in range(3)]
    result = network_circle_msr(space, pois, users)
    print("optimal meeting venue (node):", result.po)
    print(f"  worst network distance: {result.po_dist:,.0f} m")
    print(f"  runner-up venue distance: {result.second_dist:,.0f} m")
    print(f"  network safe-ball radius: {result.radius:,.0f} m")
    for i, ball in enumerate(result.balls):
        print(
            f"  user {i}: ball covers {len(ball.covered_segments())} road "
            f"segments ({ball.wire_values()} wire values)"
        )

    # Monitor the group driving around for a while.
    trajectories = [
        network_trajectory(space, 400, speed=60.0, rng=rng) for _ in range(3)
    ]
    fleet = run_service(
        [trajectories],
        net_circle_policy(),
        NetworkPOISpace(space, pois),
        check_every=25,
    )
    metrics = fleet.session_metrics[0]
    print(
        f"\nmonitoring 400 timestamps: {metrics.update_events} updates, "
        f"{metrics.packets_total} packets, venue changed "
        f"{metrics.result_changes} times"
    )
    print("(check_every re-verified the cached venue against the exact GNN)")


if __name__ == "__main__":
    main()
