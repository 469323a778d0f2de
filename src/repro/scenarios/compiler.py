"""Spec -> lazy per-tick event stream.

The compiler turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
deterministic stream of :class:`TickEvents` — one object per tick,
yielded lazily.  Nothing population-sized is ever materialized at once:
the eager part is an integer schedule (one ``(open_tick, cohort, k)``
triple per session), and each session's member tracks (one tuple of
per-tick positions per member) come into existence only at its open
tick and are dropped at its close.  A live session holds
``zip(*tracks)`` and each tick takes its next frame, so a tick costs
one tuple per moving session.  The stream carries pure kinematics (who
exists, where everyone is); escape detection and service traffic are
the runner's job, which is what makes the stream byte-identical
regardless of the backend that consumes it.

POI churn is planned by index: a batch samples slots of the current
POI list and deletes them in place, so it neither copies the list nor
hashes every POI (see :meth:`CompiledScenario._churn_batch`).

Determinism: every random draw comes from a generator seeded through
``numpy.random.SeedSequence`` over *integer* keys — never a string hash
(``PYTHONHASHSEED`` would break reruns) — keyed by (scenario seed,
stream id, cohort index, session index), so any session's trajectory is
reproducible in isolation.

Session ids are pre-assigned here, in open order, starting at 0 —
exactly the order every ``ServiceBackend`` numbers sessions — so the
runner can assert its backend agreed with the schedule instead of
maintaining an id translation table.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.scenarios.spec import CohortSpec, ScenarioSpec

# Integer stream ids for SeedSequence keying (never string hashes).
_KEY_TRAJECTORY = 1
_KEY_CHURN = 2
_KEY_VENUE = 3
KEY_SPOT_CHECK = 4  # reserved for the runner's sampling stream


def derive_rng(*keys: int) -> random.Random:
    """A ``random.Random`` seeded from integer keys via SeedSequence."""
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)
    return random.Random(int(state[0]))


@dataclass(frozen=True)
class OpenEvent:
    """A group forms: open a session with these initial positions."""

    session_id: int
    cohort: str
    policy: Any  # policy-mix entry name or Policy; spec.resolve_policy
    positions: tuple
    space: Any = field(default=None, repr=False)  # None: backend default


@dataclass(frozen=True)
class MoveEvent:
    """One live group's member positions at this tick."""

    session_id: int
    positions: tuple
    # Per member (heading, theta) for directed tile orderings, or None.
    directions: Optional[tuple] = field(default=None, repr=False)


@dataclass(frozen=True)
class TickEvents:
    """Everything that happens in one tick, in application order.

    Order within a tick is fixed: POI churn first (the world changes
    under everyone), then opens, then the move wave, then closes.
    """

    tick: int
    churn: Optional[tuple]  # (adds, removes[, space]) or None
    opens: tuple[OpenEvent, ...]
    moves: tuple[MoveEvent, ...]
    closes: tuple[int, ...]


def _walk_path(space, path: Sequence, speed: float, n: int) -> tuple:
    """``n`` per-tick positions walking ``path`` at ``speed``, then parked."""
    from repro.network_ext.monitor import walk_path
    from repro.network_ext.space import NetworkPosition

    out = [NetworkPosition.at_node(path[0])]
    walk_path(space, path, speed, out, n)
    while len(out) < n:
        out.append(out[-1])
    return tuple(out[:n])


@dataclass(frozen=True)
class _ScheduleEntry:
    session_id: int
    cohort_idx: int
    k: int  # session index within its cohort
    open_tick: int
    close_tick: Optional[int]  # None when the horizon ends first


class CompiledScenario:
    """The lazy event stream for one spec.

    Iterate :meth:`ticks` to consume the stream; ``total_opened`` and
    ``peak_live`` report, after (or during) an iteration, how many
    sessions ever existed and how many were materialized at once — the
    laziness evidence the fleet benchmark gates on.
    """

    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        self.schedule = self._build_schedule(spec)
        self.total_sessions = len(self.schedule)
        self.total_opened = 0
        self.peak_live = 0
        # Planning graph, its sorted node list and each node's position
        # in it: built once, network only.
        self._net_space = None
        self._nodes: list = []
        self._node_pos: dict = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @staticmethod
    def _build_schedule(spec: ScenarioSpec) -> list[_ScheduleEntry]:
        """The integer-only eager part: one record per session."""
        triples = [
            (cohort.open_tick(k), ci, k)
            for ci, cohort in enumerate(spec.cohorts)
            for k in range(cohort.sessions)
        ]
        triples.sort()
        out = []
        for sid, (open_tick, ci, k) in enumerate(triples):
            close = open_tick + spec.cohorts[ci].lifetime
            out.append(
                _ScheduleEntry(
                    session_id=sid,
                    cohort_idx=ci,
                    k=k,
                    open_tick=open_tick,
                    close_tick=close if close < spec.ticks else None,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Trajectory materialization (only at open time)
    # ------------------------------------------------------------------

    def _planning_space(self):
        if self._net_space is None:
            self._net_space = self.spec.space.network_space()
            self._nodes = sorted(self._net_space.graph.nodes)
            self._node_pos = {node: i for i, node in enumerate(self._nodes)}
        return self._net_space

    def _planning_nodes(self) -> list:
        self._planning_space()
        return self._nodes

    def _venue(self, cohort_idx: int):
        """The cohort's shared convergence target (seeded, cached)."""
        rng = derive_rng(self.spec.seed, _KEY_VENUE, cohort_idx)
        if self.spec.space.kind == "network":
            nodes = self._planning_nodes()
            return nodes[rng.randrange(len(nodes))]
        world = self.spec.space.world_rect()
        # Keep the venue away from the walls so the crowd can mill.
        mx = 0.2 * (world.x_hi - world.x_lo)
        my = 0.2 * (world.y_hi - world.y_lo)
        from repro.geometry.point import Point

        return Point(
            rng.uniform(world.x_lo + mx, world.x_hi - mx),
            rng.uniform(world.y_lo + my, world.y_hi - my),
        )

    def _materialize(self, entry: _ScheduleEntry) -> list[tuple]:
        """Member tracks for one opening session.

        A track is a tuple of the member's ``n = lifetime + 1`` per-tick
        positions, index 0 at the open tick.  A session's frames are
        ``zip(*tracks)``: the open takes the first and every later tick
        the next, which is exact because a live session moves on every
        tick from its open + 1 to its close - 1 and never past index
        ``lifetime - 1``.
        """
        cohort = self.spec.cohorts[entry.cohort_idx]
        rng = derive_rng(
            self.spec.seed, _KEY_TRAJECTORY, entry.cohort_idx, entry.k
        )
        n = cohort.lifetime + 1
        if self.spec.space.kind == "network":
            return self._materialize_network(cohort, entry, rng, n)
        return self._materialize_euclidean(cohort, entry, rng, n)

    def _materialize_network(
        self, cohort: CohortSpec, entry: _ScheduleEntry, rng, n: int
    ) -> list[tuple]:
        """Members of one network session, walking shortest paths that the
        planning space's own oracle plans (built on the first path; the
        served space's oracle is never touched)."""
        from repro.index.oracle import oracle_for
        from repro.network_ext.monitor import network_trajectory

        space = self._planning_space()
        nodes = self._nodes
        if cohort.kind == "wanderer":
            return [
                network_trajectory(space, n, cohort.speed, rng).positions
                for _ in range(cohort.group_size)
            ]
        # commuter / event_crowd: one shortest path per group (one
        # planned path, not ``group_size``); member ``m`` trails the
        # leader by ``m`` ticks, parked at the origin until it starts,
        # which keeps the group spatially coherent.
        origin = nodes[rng.randrange(len(nodes))]
        if cohort.kind == "commuter":
            dest = origin
            while dest == origin:
                dest = nodes[rng.randrange(len(nodes))]
        else:  # event_crowd converges on the cohort venue
            dest = self._venue(entry.cohort_idx)
            if dest == origin:
                origin = nodes[(self._node_pos[dest] + 1) % len(nodes)]
        path = oracle_for(space).path(origin, dest)
        walk = _walk_path(space, path, cohort.speed, n)
        return [(walk[0],) * m + walk[: n - m] for m in range(cohort.group_size)]

    def _materialize_euclidean(
        self, cohort: CohortSpec, entry: _ScheduleEntry, rng, n: int
    ) -> list[tuple]:
        from repro.geometry.point import Point
        from repro.mobility.converge import (
            ConvergeParams,
            generate_converge_trajectory,
        )
        from repro.mobility.random_waypoint import (
            WaypointParams,
            generate_waypoint_trajectory,
        )

        world = self.spec.space.world_rect()
        center = world.sample(rng)
        spread = cohort.spawn_spread

        def spawn() -> Point:
            return Point(
                min(max(center.x + rng.uniform(-spread, spread), world.x_lo), world.x_hi),
                min(max(center.y + rng.uniform(-spread, spread), world.y_lo), world.y_hi),
            )

        if cohort.kind == "event_crowd":
            venue = self._venue(entry.cohort_idx)
            params = ConvergeParams(
                speed=cohort.speed,
                mill_radius=max(10.0, spread / 2.0),
                mill_step=max(0.5, cohort.speed / 3.0),
            )
            return [
                generate_converge_trajectory(
                    world, n, venue, params, rng, start=spawn()
                ).points
                for _ in range(cohort.group_size)
            ]
        if cohort.kind == "delivery":
            # Vans: faster, brief stops at each drop-off.
            params = WaypointParams(
                speed=cohort.speed,
                speed_jitter=0.2,
                pause_probability=0.05,
                pause_max_steps=3,
            )
        else:  # wanderer
            params = WaypointParams(speed=cohort.speed)
        return [
            generate_waypoint_trajectory(world, n, params, rng, start=spawn()).points
            for _ in range(cohort.group_size)
        ]

    # ------------------------------------------------------------------
    # POI churn planning
    # ------------------------------------------------------------------

    def _churn_batch(self, rng, current: list):
        """One (adds, removes) batch; mutates ``current`` to match.

        Removals sample slots of ``current``, not its items: CPython's
        ``sample`` reads only ``len`` and ``__getitem__`` and its draws
        depend on ``(n, k)`` alone, so sampling ``range(len(current))``
        picks the same POIs and leaves the same RNG state as sampling
        the list, without copying or hashing it.  Each removal takes one
        slot — the server's rule, one entry per removal — so a repeated
        POI loses one copy.
        """
        churn = self.spec.poi_churn
        if self.spec.space.kind == "network":
            present = set(current)
            candidates = [
                node for node in self._planning_nodes() if node not in present
            ]
            adds = rng.sample(candidates, min(churn.adds, len(candidates)))
        else:
            world = self.spec.space.world_rect()
            adds = [world.sample(rng) for _ in range(churn.adds)]
        # Never drain the space: keep at least four POIs resident so
        # every strategy still has competitors to rank.
        n_remove = min(churn.removes, max(0, len(current) - 4))
        picks = rng.sample(range(len(current)), n_remove)
        removed = [current[j] for j in picks]
        for j in sorted(picks, reverse=True):
            del current[j]
        current.extend(adds)
        return (
            tuple((p, None) for p in adds),
            tuple((p, None) for p in removed),
        )

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------

    def ticks(self) -> Iterator[TickEvents]:
        """Yield the scenario's ticks in order, materializing lazily."""
        spec = self.spec
        self.total_opened = 0
        self.peak_live = 0
        opens_at: dict[int, list[_ScheduleEntry]] = {}
        closes_at: dict[int, list[int]] = {}
        for entry in self.schedule:
            opens_at.setdefault(entry.open_tick, []).append(entry)
            if entry.close_tick is not None:
                closes_at.setdefault(entry.close_tick, []).append(
                    entry.session_id
                )
        live: dict[int, Iterator[tuple]] = {}  # sid -> its frames
        churn_rng = derive_rng(spec.seed, _KEY_CHURN)
        if not spec.poi_churn:
            current_pois = []
        elif spec.space.kind == "network":
            # Sample from the planning graph rather than build a second one.
            current_pois = spec.space.initial_pois(self._planning_space().graph)
        else:
            current_pois = list(spec.space.initial_pois())
        for t in range(spec.ticks):
            churn = None
            if spec.poi_churn and t > 0 and t % spec.poi_churn.every == 0:
                churn = self._churn_batch(churn_rng, current_pois)
            closing = tuple(sorted(closes_at.get(t, ())))
            closing_set = set(closing)
            # Every session opened before ``t`` and not closing moves:
            # one frame each, taken before this tick's opens join.
            moves = tuple(
                MoveEvent(session_id=sid, positions=next(live[sid]))
                for sid in sorted(live)
                if sid not in closing_set
            )
            opens = []
            for entry in opens_at.get(t, ()):
                cohort = spec.cohorts[entry.cohort_idx]
                frames = zip(*self._materialize(entry))
                live[entry.session_id] = frames
                policy = cohort.policies[entry.k % len(cohort.policies)]
                opens.append(
                    OpenEvent(
                        session_id=entry.session_id,
                        cohort=cohort.name,
                        policy=policy,
                        positions=next(frames),
                    )
                )
            self.total_opened += len(opens)
            self.peak_live = max(self.peak_live, len(live))
            yield TickEvents(
                tick=t,
                churn=churn,
                opens=tuple(opens),
                moves=moves,
                closes=closing,
            )
            for sid in closing:
                del live[sid]


def compile_spec(spec: ScenarioSpec) -> CompiledScenario:
    """Validate ``spec`` and wrap it in its lazy event stream."""
    return CompiledScenario(spec)


def stream_digest(spec: ScenarioSpec, max_ticks: Optional[int] = None) -> str:
    """SHA-256 over the stream's canonical reprs — the byte-identity probe.

    Two compiles of the same spec must produce the same digest on any
    machine; any divergence in positions, ordering, ids, or churn shows
    up here first.
    """
    digest = hashlib.sha256()
    for events in compile_spec(spec).ticks():
        digest.update(repr(events).encode())
        if max_ticks is not None and events.tick + 1 >= max_ticks:
            break
    return digest.hexdigest()
