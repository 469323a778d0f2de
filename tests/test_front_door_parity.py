"""The two sharded front doors behave as one: same body, both doors.

:class:`~repro.cluster.MPNCluster` and
:class:`~repro.transport.ProcessCluster` are two constructors over
:class:`repro.cluster.cluster.ShardedFrontDoor`.  Each test here pins a
place where the two hand-kept copies had drifted apart before they were
merged; the identical assertions run against ``MPNCluster(2)`` and
``ProcessCluster(2)`` (one module-scoped worker pair).
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import MPNCluster
from repro.service import MemberState, MPNService, ReportEvent
from repro.simulation import circle_policy
from repro.transport import ProcessCluster, UniformPoiSpaceFactory
from tests.conftest import SMALL_WORLD

FACTORY = UniformPoiSpaceFactory(n_pois=200, seed=6)


@pytest.fixture(scope="module", params=["in_process", "processes"])
def door(request):
    if request.param == "in_process":
        yield MPNCluster(2, FACTORY)
    else:
        with ProcessCluster(2, FACTORY) as cluster:
            yield cluster


def requests_served(door) -> list[int]:
    """Per worker, where there are workers (each read is itself one)."""
    server_stats = getattr(door, "server_stats", None)
    if server_stats is None:
        return []
    return [stats["requests_served"] for stats in server_stats()]


def park_off_owner(door, rng):
    """Open a session, then move it behind the front door's back to a
    shard the ring does not route it to (what ``restore_shard`` into a
    replacement shard may leave).  Returns ``(session_id, snapshot)``."""
    members = [SMALL_WORLD.sample(rng) for _ in range(2)]
    sid = door.open_session(members, circle_policy()).session_id
    owner = door.shard_for(sid)
    other = next(i for i in door.shard_ids() if i != owner)
    snapshot = door.shard(owner).export_session(sid)
    door.shard(owner).close_session(sid)
    door.shard(other).import_session(snapshot)
    return sid, snapshot


def test_bad_wave_raises_the_first_bad_event_in_request_order(door):
    """[bad member on a shard-1 session, unknown session hashed to
    shard 0] raises what one ``MPNService.report_many`` raises for the
    same events — not whichever shard happens to validate first — and
    reaches no session and no worker."""
    rng = random.Random(3)
    single = MPNService(FACTORY())
    ids = []
    for _ in range(6):
        members = [SMALL_WORLD.sample(rng) for _ in range(2)]
        sid = door.open_session(members, circle_policy()).session_id
        single.open_session(members, circle_policy(), session_id=sid)
        ids.append(sid)
    on_shard_one = next(sid for sid in ids if door.shard_for(sid) == 1)
    unknown = next(i for i in range(1000, 2000) if door.shard_for(i) == 0)
    state = MemberState(SMALL_WORLD.sample(rng))
    wave = [ReportEvent(on_shard_one, 7, state), ReportEvent(unknown, 0, state)]

    messages = [door.session_metrics(sid).messages_total for sid in ids]
    served = requests_served(door)
    with pytest.raises(ValueError, match="member 7 out of range") as want:
        single.report_many(wave)
    with pytest.raises(Exception) as got:
        door.report_many(wave)
    assert type(got.value) is type(want.value) is ValueError
    assert str(got.value) == str(want.value)
    assert requests_served(door) == [n + 1 for n in served]
    assert [door.session_metrics(sid).messages_total for sid in ids] == messages


def test_import_of_an_id_parked_off_its_owner_is_refused(door):
    sid, snapshot = park_off_owner(door, random.Random(4))
    with pytest.raises(ValueError, match="already in use"):
        door.import_session(snapshot)
    assert door.session_ids().count(sid) == 1


def test_export_finds_a_session_parked_off_its_owner(door):
    sid, snapshot = park_off_owner(door, random.Random(5))
    assert door.export_session(sid).to_dict() == snapshot.to_dict()
