"""``python -m repro.transport.elastic_smoke`` — the CI elasticity check.

End-to-end, across real process boundaries:

1. spawn a two-worker :class:`~repro.transport.ProcessCluster` and an
   in-process :class:`~repro.service.MPNService` twin on the same
   deterministic space;
2. open a small fleet and drive a report wave plus one POI churn batch
   on both;
3. **reshard live**: ``add_shard()`` (a third worker process boots
   mid-run, replays the churn log, and receives its migrated sessions
   over the wire), drive another wave, then ``remove_shard(0)`` (an
   original worker drains and exits) and drive a final wave;
4. assert every notification stayed **bit-identical** to the
   unresharded twin and the merged counters match counter for counter;
5. close the cluster and assert every worker process — the retired one
   included — exited **0**.

Any assertion failure, migration mismatch, or non-zero worker exit
makes this script exit non-zero, which fails the CI job.  Runs in a
few seconds; it is a liveness check for live resharding, not a
benchmark.
"""

from __future__ import annotations

import random

from repro.service.api import encode_record
from repro.service.messages import MemberState, ReportEvent
from repro.service.service import MPNService
from repro.simulation.policies import circle_policy
from repro.transport.worker import ProcessCluster, UniformPoiSpaceFactory

FACTORY = UniformPoiSpaceFactory(n_pois=200, seed=17)
N_SESSIONS = 8
SEED = 23


def _note_key(notification):
    if notification is None:
        return None
    return (
        notification.session_id,
        notification.po,
        notification.region_values,
        notification.cause,
        len(notification.regions),
    )


def _counters(metrics) -> dict:
    data = encode_record(metrics)
    data.pop("server_cpu_seconds", None)
    return data


def _drive(backend, reshard=None):
    """The fleet script; ``reshard`` maps wave number -> callable."""
    from repro.geometry.rect import Rect

    reshard = reshard or {}
    world = Rect(*FACTORY.world)
    rng = random.Random(SEED)
    ids = []
    log = []
    for _ in range(N_SESSIONS):
        members = [world.sample(rng) for _ in range(2)]
        handle = backend.open_session(members, circle_policy())
        ids.append(handle.session_id)
        log.append(_note_key(handle.notification))
    for wave_no in range(3):
        if wave_no in reshard:
            reshard[wave_no]()
        events = [
            ReportEvent(sid, wave_no % 2, MemberState(world.sample(rng)))
            for sid in ids
        ]
        log.extend(_note_key(n) for n in backend.report_many(events))
        adds = [(world.sample(rng), None) for _ in range(3)]
        log.extend(_note_key(n) for n in backend.update_pois(adds=adds))
    return log, _counters(backend.metrics)


def main() -> int:
    twin = MPNService(FACTORY())
    want_log, want_counters = _drive(twin)

    cluster = ProcessCluster(2, FACTORY)
    try:
        got_log, got_counters = _drive(
            cluster,
            reshard={
                1: lambda: print(f"add_shard -> worker {cluster.add_shard()}"),
                2: lambda: (cluster.remove_shard(0), print("removed worker 0"))[1],
            },
        )
        assert got_log == want_log, "reshard disturbed the notifications"
        assert got_counters == want_counters, "merged counters diverged"
        assert cluster.shard_ids() == [1, 2], cluster.shard_ids()
        print(f"{len(got_log)} notifications bit-identical across reshard")
        cluster.close()
    except BaseException:
        cluster.close(raise_on_error=False)
        raise
    codes = cluster.worker_exitcodes()
    print(f"worker exit codes: {codes}")
    assert codes == [0, 0, 0], f"workers failed to drain: {codes}"
    print("elastic smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
