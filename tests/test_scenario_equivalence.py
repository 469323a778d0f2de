"""Determinism regression: one spec, one seed, every backend.

Same spec + seed must produce (a) a byte-identical compiled event
stream on every run, and (b) an identical notification sequence
whether the fleet is served by an unsharded :class:`MPNService`, the
in-process sharded :class:`MPNCluster`, or spawned worker processes
behind the wire (:class:`ProcessCluster`) — plus clean replay
spot-checks everywhere, since the spot-check itself replays against a
fourth, fresh service.  Over the wire the referee is stricter still:
every request and response frame the front door writes and reads
replays byte for byte.
"""

import hashlib
import json

import pytest

from repro.cluster.cluster import MPNCluster
from repro.scenarios import (
    CityGraphSpaceSpec,
    CohortSpec,
    EuclideanSpaceSpec,
    PoiChurnSpec,
    ScenarioSpec,
    run_scenario,
    stream_digest,
)
from repro.service.service import MPNService
from repro.transport.framing import SyncFrameStream
from repro.transport.worker import ProcessCluster


def euclidean_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="equivalence",
        seed=77,
        ticks=9,
        space=EuclideanSpaceSpec(
            world=(0.0, 0.0, 1200.0, 1200.0), n_pois=60, poi_seed=7
        ),
        cohorts=(
            CohortSpec(
                name="walkers", kind="wanderer", sessions=8, group_size=2,
                first_tick=0, last_tick=4, lifetime=5, speed=30.0,
                policies=("circle",),
            ),
            CohortSpec(
                name="crowd", kind="event_crowd", sessions=6, group_size=3,
                first_tick=1, last_tick=4, lifetime=6, speed=25.0,
                spawn_spread=80.0, policies=("circle",),
            ),
        ),
        poi_churn=PoiChurnSpec(every=3, adds=3, removes=2),
    )


def network_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="net_equivalence",
        seed=31,
        ticks=8,
        space=CityGraphSpaceSpec(grid_size=7, n_pois=10, poi_seed=23),
        cohorts=(
            CohortSpec(
                name="commuters", kind="commuter", sessions=6, group_size=3,
                first_tick=0, last_tick=3, lifetime=5, speed=1.4,
                policies=("net_circle",),
            ),
        ),
        poi_churn=PoiChurnSpec(every=4, adds=2, removes=1),
    )


def run_with(spec, backend):
    return run_scenario(
        spec,
        backend,
        spot_check_fraction=1.0,
        spot_check_cap=10_000,
        collect_notifications=True,
    )


class TestByteIdenticalStream:
    def test_euclidean_stream_digest_is_stable(self):
        assert stream_digest(euclidean_spec()) == stream_digest(
            euclidean_spec()
        )

    def test_network_stream_digest_is_stable(self):
        assert stream_digest(network_spec()) == stream_digest(network_spec())

    def test_streams_differ_across_seeds(self):
        import dataclasses

        reseeded = dataclasses.replace(euclidean_spec(), seed=78)
        assert stream_digest(euclidean_spec()) != stream_digest(reseeded)


class TestNotificationEquivalence:
    def test_service_cluster_and_process_cluster_agree(self):
        spec = euclidean_spec()
        single = run_with(spec, MPNService(spec.space()))
        assert single.spot_check.clean

        sharded = run_with(spec, MPNCluster(3, spec.space))
        assert sharded.spot_check.clean

        process = ProcessCluster(2, spec.space)
        try:
            wired = run_with(spec, process)
        finally:
            process.close()
        assert wired.spot_check.clean
        assert all(
            code == 0 for code in process.worker_exitcodes()
        ), process.worker_exitcodes()

        # The full (tick, notification-key) sequence is identical on
        # every backend — sharding and the wire change nothing.
        assert single.notification_log == sharded.notification_log
        assert single.notification_log == wired.notification_log
        assert single.total_wave_events == sharded.total_wave_events
        assert single.total_wave_events == wired.total_wave_events
        # And the run really exercised something.
        assert single.total_opened == 14
        assert single.total_notifications > 14
        assert single.total_churn_notifications >= 0

    def test_network_scenario_agrees_across_backends(self):
        spec = network_spec()
        single = run_with(spec, MPNService(spec.space()))
        sharded = run_with(spec, MPNCluster(2, spec.space))
        assert single.spot_check.clean
        assert sharded.spot_check.clean
        assert single.notification_log == sharded.notification_log

    def test_reruns_are_bit_identical(self):
        spec = euclidean_spec()
        first = run_with(spec, MPNService(spec.space()))
        second = run_with(spec, MPNService(spec.space()))
        assert first.notification_log == second.notification_log
        assert first.total_wave_events == second.total_wave_events


def data_plane_transcript(spec, shards: int = 2) -> tuple[str, int]:
    """Run ``spec`` on ``ProcessCluster(shards)``; return the sha256 of
    every request / response frame the front door sent and read, each
    tagged with its connection (in order of first use) and direction,
    and the number of frames.

    Control frames are left out: ``metrics`` / ``session_metrics``
    answer from wall-clock ledgers.
    """
    digest, count = hashlib.sha256(), [0]
    lanes: dict[int, int] = {}
    controls: set[tuple[int, object]] = set()
    send, recv = SyncFrameStream.send, SyncFrameStream.recv

    def record(stream, direction: str, frame: dict) -> None:
        lane = lanes.setdefault(id(stream), len(lanes))
        line = json.dumps([lane, direction, frame], separators=(",", ":"))
        digest.update(line.encode() + b"\n")
        count[0] += 1

    def traced_send(stream, frame):
        if "control" in frame:
            controls.add((id(stream), frame["id"]))
        else:
            record(stream, "request", frame)
        send(stream, frame)

    def traced_recv(stream):
        reply = recv(stream)
        if (id(stream), reply.get("id")) not in controls:
            record(stream, "response", reply)
        return reply

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyncFrameStream, "send", traced_send)
        patch.setattr(SyncFrameStream, "recv", traced_recv)
        cluster = ProcessCluster(shards, spec.space)
        try:
            run_scenario(spec, cluster)
        finally:
            cluster.close()
    return digest.hexdigest(), count[0]


#: ``euclidean_spec()`` on ``ProcessCluster(2)``: a semantic change in
#: any layer under the wire — compiler, routing, strategies, index,
#: codec — moves this digest.
EUCLIDEAN_TRANSCRIPT = (
    "35df28a0ffc61f2dd10ca8ebc49b930747e46fedad008c68378d07012b0d70f8",
    90,
)


class TestDataPlaneReplays:
    """Schema v3 carries no timing, so a run's data plane is a pure
    function of (spec, seed): two runs agree frame for frame."""

    def test_euclidean_transcript_is_pinned(self):
        first = data_plane_transcript(euclidean_spec())
        assert first == data_plane_transcript(euclidean_spec())
        assert first == EUCLIDEAN_TRANSCRIPT

    def test_network_transcript_replays(self):
        first = data_plane_transcript(network_spec())
        assert first == data_plane_transcript(network_spec())
        assert first[1] >= 40


class TestSpotCheckCatchesDivergence:
    def test_a_lying_backend_fails_the_spot_check(self):
        """The exactness check must actually have teeth."""

        class SkewedBackend(MPNService):
            # Drops every probe, so recomputations run from stale
            # member states — plausible traffic, wrong answers.
            def report_many(self, events):
                import dataclasses

                stripped = [
                    dataclasses.replace(e, probes=None) for e in events
                ]
                return super().report_many(stripped)

        spec = euclidean_spec()
        result = run_scenario(
            spec,
            SkewedBackend(spec.space()),
            spot_check_fraction=1.0,
            spot_check_cap=10_000,
        )
        assert not result.spot_check.clean
        assert result.spot_check.notification_mismatches > 0


@pytest.mark.parametrize("preset_name", ["smoke"])
def test_bundled_preset_streams_through_a_cluster(preset_name):
    from repro.scenarios.presets import get_preset

    spec = get_preset(preset_name)
    result = run_scenario(
        spec,
        MPNCluster(3, spec.space),
        spot_check_fraction=0.25,
        spot_check_cap=16,
    )
    assert result.total_opened == spec.total_sessions()
    assert result.spot_check.clean
