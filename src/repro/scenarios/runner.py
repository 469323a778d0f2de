"""Stream a tick stream through any ``ServiceBackend``.

The runner owns the client side of the fleet: it consumes a kinematic
tick stream (the compiler's, or the §7 drivers'
:class:`repro.simulation.TrajectoryGroups`), keeps each live session's
assigned safe regions, detects escapes client-side (the first escaped
member of a group reports), and drives the backend with the batched
dispatch surface — one ``report_many`` wave per tick, one
``update_pois`` batch per churn event.  It is the one loop that turns
escapes into waves.  Because everything the backend sees is derived
from the backend-independent stream plus the backend's own
notifications, any two bit-identical backends produce bit-identical
runs.

Exactness spot-checks: a seeded sample of sessions is recorded (their
opens, their report events with the probe states that were shipped,
every POI churn batch) and replayed sequentially against a **fresh
unsharded** :class:`~repro.service.MPNService` built from the same
space spec.  The replay must reproduce the sampled sessions'
notification sequences and integer metric counters bit-identically —
the fleet-wide guarantee, checked on a subset cheap enough to run at
10^5 sessions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.scenarios.compiler import KEY_SPOT_CHECK, compile_spec, derive_rng
from repro.scenarios.recorder import ScenarioRecorder
from repro.scenarios.spec import ScenarioSpec, resolve_policy
from repro.service.api import encode_position
from repro.service.messages import MemberState, ReportEvent
from repro.service.regions import encode_region
from repro.simulation.metrics import counter_fields

#: Every integer counter on SimulationMetrics — everything but
#: wall-clock seconds, which never replay identically.
COUNTER_FIELDS = counter_fields()


#: Containment slack of the client-side escape test: a member still
#: within this distance of its safe region has not escaped, so a
#: position on the region's boundary never reports on rounding alone.
ESCAPE_EPS = 1e-9


def counters(metrics) -> dict[str, int]:
    return {name: getattr(metrics, name) for name in COUNTER_FIELDS}


def notification_key(notification) -> tuple:
    """Structural identity of a notification (regions lack ``__eq__``)."""
    return (
        notification.session_id,
        json.dumps(encode_position(notification.po), sort_keys=True),
        tuple(
            json.dumps(encode_region(region), sort_keys=True)
            for region in notification.regions
        ),
        tuple(notification.region_values),
        notification.cause,
    )


@dataclass
class SpotCheckReport:
    """Outcome of the sampled-replay exactness check."""

    sampled_sessions: int = 0
    compared_notifications: int = 0
    notification_mismatches: int = 0
    counter_mismatches: int = 0
    mismatched_sessions: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.notification_mismatches == 0 and self.counter_mismatches == 0
        )


@dataclass
class ScenarioResult:
    """What a scenario run produced, shaped for gating and recording."""

    spec_name: str
    ticks: int
    total_opened: int
    peak_live: int
    total_wave_events: int
    total_notifications: int
    total_churn_notifications: int
    elapsed_seconds: float
    spot_check: Optional[SpotCheckReport]
    summary: Optional[dict]
    notification_log: Optional[list] = None  # [(tick, key), ...] opt-in


class _Session:
    """The runner's client-side view of one live session."""

    __slots__ = ("regions", "sampled")

    def __init__(self, regions, sampled: bool):
        self.regions = regions
        self.sampled = sampled


class _SpotCheck:
    """Records the sampled subset during the run; replays it after."""

    def __init__(self, spec: ScenarioSpec, fraction: float, cap: int):
        self.spec = spec
        self.fraction = fraction
        self.cap = cap
        self._rng = derive_rng(spec.seed, KEY_SPOT_CHECK)
        self.sampled: set[int] = set()
        self.log: list[tuple] = []
        self.live_keys: dict[int, list[tuple]] = {}
        self.live_counters: dict[int, dict[str, int]] = {}

    def admit(self, session_id: int) -> bool:
        """Decide at open time whether this session is sampled."""
        if self.fraction <= 0.0:
            return False
        keep = (
            len(self.sampled) < self.cap
            and self._rng.random() < self.fraction
        )
        if keep:
            self.sampled.add(session_id)
            self.live_keys[session_id] = []
        return keep

    def replay(self) -> SpotCheckReport:
        """Drive a fresh unsharded service through the recorded log."""
        from repro.service.service import MPNService

        report = SpotCheckReport(sampled_sessions=len(self.sampled))
        service = MPNService(self.spec.space())
        replay_keys: dict[int, list[tuple]] = {
            sid: [] for sid in self.sampled
        }
        replay_counters: dict[int, dict[str, int]] = {}
        for entry in self.log:
            op = entry[0]
            if op == "churn":
                for note in service.update_pois(*entry[1:]):
                    replay_keys[note.session_id].append(
                        notification_key(note)
                    )
            elif op == "open":
                _, sid, positions, policy_name = entry
                handle = service.open_session(
                    [MemberState(p) for p in positions],
                    resolve_policy(policy_name),
                    session_id=sid,
                )
                replay_keys[sid].append(notification_key(handle.notification))
            elif op == "report":
                _, sid, member_id, position, probes = entry
                note = service.report(
                    sid, member_id, position, probes=probes
                )
                if note is not None:
                    replay_keys[sid].append(notification_key(note))
            else:  # "close"
                _, sid = entry
                replay_counters[sid] = counters(service.session_metrics(sid))
                service.close_session(sid)
        for sid in service.session_ids():
            replay_counters[sid] = counters(service.session_metrics(sid))
        for sid in sorted(self.sampled):
            want = self.live_keys.get(sid, [])
            got = replay_keys.get(sid, [])
            report.compared_notifications += len(want)
            clean = True
            if want != got:
                report.notification_mismatches += 1
                clean = False
            if self.live_counters.get(sid) != replay_counters.get(sid):
                report.counter_mismatches += 1
                clean = False
            if not clean:
                report.mismatched_sessions.append(sid)
        return report


def run_scenario(
    spec_or_stream,
    backend,
    *,
    recorder: Optional[ScenarioRecorder] = None,
    spot_check_fraction: float = 0.0,
    spot_check_cap: int = 64,
    collect_notifications: bool = False,
) -> ScenarioResult:
    """Stream the scenario through ``backend``; return the run's result.

    ``spec_or_stream`` is a :class:`ScenarioSpec` (compiled here) or
    any stream with a ``name`` and ``ticks()`` yielding
    :class:`~repro.scenarios.compiler.TickEvents` numbered like the
    backend's sessions.  ``spot_check_fraction`` > 0 samples that
    fraction of sessions (up to ``spot_check_cap``) for the replay
    exactness check, which rebuilds the space from a compiled stream's
    ``spec``.  ``collect_notifications`` keeps the full ``(tick, key)``
    log — equivalence tests only; it defeats the memory bound at fleet
    scale.
    """
    stream = (
        compile_spec(spec_or_stream)
        if isinstance(spec_or_stream, ScenarioSpec)
        else spec_or_stream
    )
    spot = (
        _SpotCheck(stream.spec, spot_check_fraction, spot_check_cap)
        if spot_check_fraction > 0.0
        else None
    )
    sessions: dict[int, _Session] = {}
    notification_log: Optional[list] = [] if collect_notifications else None
    ticks = total_opened = peak_live = 0
    total_waves = 0
    total_notes = 0
    total_churn_notes = 0
    started = time.perf_counter()

    def timed(stats, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if stats is not None:
            stats.record_call(time.perf_counter() - t0)
        return out

    def deliver(note, tick: int, churn: bool) -> None:
        nonlocal total_notes, total_churn_notes
        state = sessions[note.session_id]
        state.regions = note.regions
        if churn:
            total_churn_notes += 1
        else:
            total_notes += 1
        key = None
        if spot is not None and state.sampled:
            key = notification_key(note)
            spot.live_keys[note.session_id].append(key)
        if notification_log is not None:
            notification_log.append(
                (tick, key if key is not None else notification_key(note))
            )

    for events in stream.ticks():
        ticks += 1
        stats = recorder.begin_tick(events.tick) if recorder else None
        notes_before = total_notes
        churn_before = total_churn_notes

        # 1. POI churn: the world changes under every live session.
        if events.churn is not None:
            if spot is not None:
                spot.log.append(("churn", *events.churn))
            for note in timed(stats, backend.update_pois, *events.churn):
                deliver(note, events.tick, churn=True)

        # 2. Group formation: open this tick's new sessions.
        for ev in events.opens:
            policy = resolve_policy(ev.policy)
            members = [MemberState(p) for p in ev.positions]
            sampled = spot.admit(ev.session_id) if spot is not None else False
            if sampled:
                spot.log.append(
                    ("open", ev.session_id, ev.positions, ev.policy)
                )
            handle = timed(
                stats, backend.open_session, members, policy, space=ev.space
            )
            if handle.session_id != ev.session_id:
                raise RuntimeError(
                    f"backend numbered session {handle.session_id}, "
                    f"schedule predicted {ev.session_id} — the backend is "
                    "not fresh (sessions were opened outside the scenario)"
                )
            sessions[ev.session_id] = _Session(
                handle.notification.regions, sampled
            )
            deliver(handle.notification, events.tick, churn=False)

        total_opened += len(events.opens)
        peak_live = max(peak_live, len(sessions))
        if stats:
            stats.opens = len(events.opens)
            stats.live = len(sessions)

        # 3. The move wave: first escaped member of each group reports.
        wave: list[ReportEvent] = []
        for move in events.moves:
            state = sessions[move.session_id]
            trigger = None
            for m, position in enumerate(move.positions):
                if not state.regions[m].contains_point(position, ESCAPE_EPS):
                    trigger = m
                    break
            if trigger is None:
                continue
            if move.directions is None:
                reporter = MemberState(move.positions[trigger])
                probes = tuple(
                    (j, MemberState(move.positions[j]))
                    for j in range(len(move.positions))
                    if j != trigger
                )
            else:
                states = [
                    MemberState(p, heading, theta)
                    for p, (heading, theta) in zip(
                        move.positions, move.directions
                    )
                ]
                reporter = states[trigger]
                probes = tuple(
                    (j, member)
                    for j, member in enumerate(states)
                    if j != trigger
                )
            event = ReportEvent(
                session_id=move.session_id,
                member_id=trigger,
                state=reporter,
                probes=probes,
            )
            wave.append(event)
            if spot is not None and state.sampled:
                spot.log.append(
                    (
                        "report",
                        move.session_id,
                        trigger,
                        move.positions[trigger],
                        probes,
                    )
                )
        if wave:
            wave_started = time.perf_counter()
            notes = timed(stats, backend.report_many, wave)
            if stats:
                stats.wave_ms = (time.perf_counter() - wave_started) * 1000.0
            for note in notes:
                if note is not None:
                    deliver(note, events.tick, churn=False)
        total_waves += len(wave)
        if stats:
            stats.wave_events = len(wave)

        # 4. Group dissolution: close this tick's ending sessions.
        for sid in events.closes:
            state = sessions.pop(sid)
            if spot is not None and state.sampled:
                spot.live_counters[sid] = counters(
                    backend.session_metrics(sid)
                )
                spot.log.append(("close", sid))
            timed(stats, backend.close_session, sid)
        if stats:
            stats.closes = len(events.closes)
            stats.notifications = total_notes - notes_before
            stats.churn_notifications = total_churn_notes - churn_before
            recorder.end_tick()

    # Sessions outliving the horizon stay open; sample their counters.
    if spot is not None:
        for sid, state in sorted(sessions.items()):
            if state.sampled:
                spot.live_counters[sid] = counters(
                    backend.session_metrics(sid)
                )

    elapsed = time.perf_counter() - started
    return ScenarioResult(
        spec_name=stream.name,
        ticks=ticks,
        total_opened=total_opened,
        peak_live=peak_live,
        total_wave_events=total_waves,
        total_notifications=total_notes,
        total_churn_notifications=total_churn_notes,
        elapsed_seconds=elapsed,
        spot_check=spot.replay() if spot is not None else None,
        summary=recorder.summary() if recorder else None,
        notification_log=notification_log,
    )
