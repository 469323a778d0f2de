"""Mixed Euclidean + road-network fleets through run_service.

The acceptance scenario of the Space tentpole: one
:func:`repro.simulation.run_service` call drives planar groups against
the shared R-tree *and* road-network groups against their
:class:`~repro.space.network.NetworkPOISpace`, with POI churn landing
on either index and fleet-wide exactness checks running per group in
its own metric.
"""

import random

import pytest

from repro.network_ext.monitor import network_trajectory
from repro.network_ext.space import NetworkSpace
from repro.service import MPNService
from repro.simulation import (
    circle_policy,
    net_circle_policy,
    net_tile_policy,
    run_service,
    tile_policy,
)
from repro.space.network import NetworkPOISpace
from repro.workloads.datasets import DatasetSpec, build_dataset
from tests.conftest import SMALL_WORLD


@pytest.fixture(scope="module")
def net_space():
    return NetworkSpace.from_grid(grid_size=5, seed=33)


def make_network_groups(net_space, n_groups, members, steps, seed):
    rng = random.Random(seed)
    return [
        [
            network_trajectory(net_space, steps, speed=25.0, rng=rng)
            for _ in range(members)
        ]
        for _ in range(n_groups)
    ]


class TestMixedFleet:
    @pytest.mark.parametrize("batched", [True, False])
    def test_euclidean_and_network_groups_coexist(self, net_space, batched):
        """Mixed fleet, churn on both spaces, exactness throughout."""
        steps = 40
        rng = random.Random(41)
        dataset = build_dataset(
            DatasetSpec(
                name="geolife", n_pois=300, n_trajectories=8, n_timestamps=steps
            )
        )
        euclidean_groups = [dataset.trajectories[2 * g : 2 * g + 2] for g in range(4)]
        net_pois = rng.sample(list(net_space.graph.nodes), 8)
        poi_space = NetworkPOISpace(net_space, net_pois)
        network_groups = make_network_groups(net_space, 4, 2, steps, seed=43)

        groups = euclidean_groups + network_groups
        policies = (
            [circle_policy(), tile_policy(alpha=5, split_level=1)] * 2
            + [net_circle_policy(), net_tile_policy(alpha=5, split_level=1)] * 2
        )
        spaces = [None] * 4 + [poi_space] * 4

        def churn(t):
            if t % 10 == 5:
                return [(SMALL_WORLD.sample(rng), None)], []
            if t % 10 == 0 and t > 0:
                node = rng.choice(list(net_space.graph.nodes))
                alive = poi_space.index.poi_nodes()
                if node in alive:
                    return [], [], poi_space
                return [(node, None)], [], poi_space
            return None

        result = run_service(
            groups,
            policies,
            n_timestamps=steps,
            check_every=4,
            churn=churn,
            spaces=spaces,
            backend=MPNService(dataset.tree, batched=batched),
        )
        assert len(result.session_ids) == 8
        assert all(m.timestamps == steps for m in result.session_metrics)
        assert all(m.update_events >= 1 for m in result.session_metrics)
        # Fleet-wide traffic equals the sum across both metrics' worlds.
        assert result.metrics.messages_total == sum(
            m.messages_total for m in result.session_metrics
        )
        # The network sessions really live on the network space.
        for session_id, space in zip(result.session_ids, spaces):
            session = result.service.session(session_id)
            if space is None:
                assert session.space is result.service.space
            else:
                assert session.space is space

    def test_batched_and_scalar_mixed_fleets_agree(self, net_space):
        """The scalar-fallback path: batched vs scalar runs of the same
        mixed fleet produce identical counters and meeting points."""
        steps = 30
        results = []
        for batched in (True, False):
            rng = random.Random(47)
            dataset = build_dataset(
                DatasetSpec(
                    name="geolife",
                    n_pois=250,
                    n_trajectories=4,
                    n_timestamps=steps,
                )
            )
            net_pois = rng.sample(list(net_space.graph.nodes), 7)
            poi_space = NetworkPOISpace(net_space, net_pois)
            groups = [
                dataset.trajectories[:2],
                dataset.trajectories[2:4],
            ] + make_network_groups(net_space, 2, 2, steps, seed=53)
            policies = [
                circle_policy(),
                circle_policy(),
                net_circle_policy(),
                net_circle_policy(),
            ]
            results.append(
                run_service(
                    groups,
                    policies,
                    n_timestamps=steps,
                    spaces=[None, None, poi_space, poi_space],
                    backend=MPNService(dataset.tree, batched=batched),
                )
            )
        batched_run, scalar_run = results
        for bm, sm in zip(
            batched_run.session_metrics, scalar_run.session_metrics
        ):
            assert bm.messages_total == sm.messages_total
            assert bm.update_events == sm.update_events
            assert bm.result_changes == sm.result_changes
        for b_id, s_id in zip(batched_run.session_ids, scalar_run.session_ids):
            assert (
                batched_run.service.session(b_id).po
                == scalar_run.service.session(s_id).po
            )

    def test_single_space_broadcast_all_network(self, net_space):
        """`spaces=` accepts one space for the whole fleet."""
        steps = 25
        rng = random.Random(59)
        net_pois = rng.sample(list(net_space.graph.nodes), 6)
        poi_space = NetworkPOISpace(net_space, net_pois)
        groups = make_network_groups(net_space, 3, 2, steps, seed=61)
        result = run_service(
            groups,
            net_circle_policy(),
            poi_space,
            n_timestamps=steps,
            check_every=5,
        )
        assert len(result.session_ids) == 3
        assert result.service.space is poi_space

    def test_space_count_mismatch_rejected(self, net_space, tree_200):
        groups = make_network_groups(net_space, 2, 2, 10, seed=67)
        with pytest.raises(ValueError):
            run_service(
                groups,
                net_circle_policy(),
                tree_200,
                spaces=[NetworkPOISpace(net_space, [])] * 3,
            )
