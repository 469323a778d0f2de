"""Typed request/response envelopes of the session API.

These extend the wire-level accounting of
:mod:`repro.simulation.messages`: each envelope knows which protocol
messages it corresponds to, so the service can charge metrics straight
from the objects that cross its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.region import Region
from repro.simulation.messages import Message, result_notify

if TYPE_CHECKING:
    from repro.simulation.policies import Policy


@dataclass(frozen=True, slots=True)
class MemberState:
    """One member's reported state: location plus predicted direction."""

    point: Point
    heading: Optional[float] = None
    theta: Optional[float] = None


@dataclass(frozen=True, slots=True)
class ReportEvent:
    """Step 1 of Fig. 3: a member escaped her region and reports.

    ``probes`` optionally carries fresh states for the session's *other*
    members, gathered client-side at report time (schema v2) — the
    answers to the probe round of step 2.  A member without one keeps
    her last reported state; the round charges the same probe messages
    either way.
    """

    session_id: int
    member_id: int
    state: MemberState
    probes: Optional[tuple[tuple[int, MemberState], ...]] = None


def check_member_ids(
    size: int,
    member_id: int,
    probes: Optional[Sequence[tuple[int, MemberState]]],
) -> None:
    """``ValueError`` unless the reporter and every probed member index
    a session of ``size`` members."""
    if not 0 <= member_id < size:
        raise ValueError(
            f"member {member_id} out of range for session of {size}"
        )
    if probes is not None:
        for probe_id, _ in probes:
            if not 0 <= probe_id < size:
                raise ValueError(
                    f"probe member {probe_id} out of range for session "
                    f"of {size}"
                )


def validate_report_events(
    events: Iterable[ReportEvent], session_size: Callable[[int], int]
) -> None:
    """Raise what serving ``events`` as one wave would, touching nothing.

    ``session_size(session_id)`` answers a session's group size and
    raises :class:`~repro.service.errors.UnknownSessionError` for an id
    it does not know.  Events are checked in request order, so the
    first bad one decides the exception.  One function serves
    :meth:`MPNService.validate_events` (sizes from the live sessions)
    and the sharded front door
    (:class:`~repro.cluster.cluster.ShardedFrontDoor`: sizes from its
    shards — live sessions in-process, client-side registries over the
    wire): a wave is rejected with the same exception wherever it is
    validated.
    """
    for event in events:
        check_member_ids(
            session_size(event.session_id), event.member_id, event.probes
        )


@dataclass(frozen=True, slots=True)
class Notification:
    """Step 3 of Fig. 3: the new result pushed to every member.

    ``cause`` records why the recomputation ran: ``"register"`` (first
    result of a new session), ``"report"`` (a member escaped),
    ``"refresh"`` (an explicit all-member location update) or
    ``"poi_update"`` (POI churn invalidated the session's regions).
    """

    session_id: int
    po: Point
    regions: tuple[Region, ...]
    region_values: tuple[int, ...]
    cause: str = "report"

    def messages(self) -> list[Message]:
        """The result notifications shipped, one per member."""
        return [result_notify(values) for values in self.region_values]


@dataclass(frozen=True, slots=True)
class SessionHandle:
    """What :meth:`MPNService.open_session` hands back to the caller."""

    session_id: int
    size: int
    policy: "Policy"
    strategy_name: str
    notification: Notification
