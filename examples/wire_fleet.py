"""A fleet served over TCP: worker processes behind the wire protocol.

The deployment shape the paper's client/server split implies, taken
all the way to real sockets and real processes.  Two acts:

1. **One service over the wire.**  A :class:`~repro.service.MPNService`
   sits behind a :class:`~repro.transport.ThreadedWireServer` speaking
   length-prefixed JSON frames on loopback TCP.  The client side is a
   :class:`~repro.transport.RemoteBackend` — itself a full
   ``ServiceBackend`` — so the *same* :func:`repro.simulation.run_service`
   driver used in ``examples/service_fleet.py`` runs unchanged; only
   the backend differs.  Safe regions cross the wire by value; the
   Fig. 3 client-side ``contains_point`` checks and escape-probe
   gathering happen here, on the client.

2. **A multi-process shard cluster.**  :class:`~repro.transport.ProcessCluster`
   spawns one worker process per shard, each serving its own
   ``MPNService`` replica behind its own wire server, and routes
   sessions with the same consistent-hash ring as the in-process
   ``MPNCluster`` — so the two emit identical notifications.  Escape
   waves fan per shard, venue churn fans to every worker's index
   replica, and the exactness checks keep asserting Definition 3
   across process boundaries the whole run.

Run:  python examples/wire_fleet.py
"""

import random

from repro.service import MPNService
from repro.simulation import circle_policy, run_service, tile_policy
from repro.transport import (
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
)
from repro.workloads.datasets import DatasetSpec, build_dataset

FACTORY = UniformPoiSpaceFactory(n_pois=1200, seed=17)


def build_fleet(n_groups: int, steps: int):
    dataset = build_dataset(
        DatasetSpec(
            name="geolife",
            n_pois=300,  # unused: the serving space comes from FACTORY
            n_trajectories=2 * n_groups,
            n_timestamps=steps,
        )
    )
    groups = [
        dataset.trajectories[2 * g : 2 * g + 2] for g in range(n_groups)
    ]
    policies = [
        tile_policy(alpha=8, split_level=1) if g % 3 == 0 else circle_policy()
        for g in range(n_groups)
    ]
    return groups, policies


def churn_schedule(rng):
    """Venue churn against the factory's POI set, tracked client-side."""
    from repro.geometry.rect import Rect
    from repro.workloads.poi import uniform_pois

    world = Rect(*FACTORY.world)
    alive = list(uniform_pois(FACTORY.n_pois, world, seed=FACTORY.seed))

    def churn(t: int):
        if t % 10 != 0 or t == 0:
            return None
        adds = [(world.sample(rng), None) for _ in range(4)]
        removes = [(victim, None) for victim in rng.sample(alive, 2)]
        for point, _ in removes:
            alive.remove(point)
        alive.extend(point for point, _ in adds)
        return adds, removes

    return churn


def serve_one_service(groups, policies, steps) -> None:
    service = MPNService(FACTORY())
    with ThreadedWireServer(service) as server:
        host, port = server.address
        print(f"[act 1] wire server on {host}:{port}")
        # The client keeps its own mirror of the POI index: regions
        # decode against it, and churn batches update it in lockstep.
        backend = RemoteBackend(host, port, space=FACTORY())
        rng = random.Random(23)
        result = run_service(
            groups,
            policies,
            n_timestamps=steps,
            check_every=10,
            churn=churn_schedule(rng),
            backend=backend,
        )
        stats = backend.server_stats()
        fleet = result.metrics
        print(
            f"[act 1] {len(result.session_ids)} sessions, "
            f"{fleet.messages_total} messages over "
            f"{stats['requests_served']} wire requests "
            f"({stats['errors_sent']} error envelopes)"
        )
        backend.close()


def serve_process_cluster(groups, policies, steps) -> None:
    cluster = ProcessCluster(2, FACTORY)
    try:
        print(
            f"[act 2] {cluster.num_shards} worker processes up, "
            f"sessions routed by consistent hash"
        )
        rng = random.Random(23)
        result = run_service(
            groups,
            policies,
            n_timestamps=steps,
            check_every=10,
            churn=churn_schedule(rng),
            backend=cluster,
        )
        fleet = result.metrics
        per_shard = [s["requests_served"] for s in cluster.server_stats()]
        epochs = cluster.worker_epochs()
        print(
            f"[act 2] {fleet.messages_total} messages, wire requests per "
            f"shard: {per_shard}, index epochs per worker: {epochs}"
        )
    finally:
        cluster.close()
    print(f"[act 2] worker exit codes: {cluster.worker_exitcodes()}")


def main() -> None:
    groups, policies = build_fleet(n_groups=24, steps=40)
    serve_one_service(groups, policies, steps=40)
    serve_process_cluster(groups, policies, steps=40)
    print("every session passed the exactness check across the wire")


if __name__ == "__main__":
    main()
