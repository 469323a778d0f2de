"""The session-oriented MPN serving facade.

The paper's protocol (Fig. 3) is event-driven: a client speaks up only
when her next location escapes her safe region.  :class:`MPNService`
exposes exactly that surface —

* :meth:`open_session` registers a group under a policy whose
  safe-region strategy is resolved **once** from the registry
  (:mod:`repro.service.strategies`);
* :meth:`report` is the escape event: the three-step protocol runs
  (trigger -> probe -> notify) and the caller gets back a typed
  :class:`~repro.service.messages.Notification`, or ``None`` when the
  reported point is still covered by the member's region.  The other
  members' fresh states (step 2) ride the report as its ``probes``;
* :meth:`update_pois` applies batched POI churn against the shared
  index and re-notifies only the sessions whose regions fail the
  Lemma-1 test (or whose meeting point was deleted).

Every protocol round and recomputation is charged twice: to the
session's own :class:`~repro.simulation.metrics.SimulationMetrics` and
to the service-wide aggregate ``metrics`` — the per-tenant and
whole-fleet views of the same traffic.

Spaces
------

The service is space-generic: every session lives in a metric space
(:class:`repro.space.base.Space` — metric, position type, POI index
and region primitives).  The constructor's ``tree`` is the *default*
space (a bare spatial index is wrapped into a
:class:`~repro.space.EuclideanSpace`); :meth:`open_session` accepts a
``space`` argument to serve a session elsewhere, e.g. a
:class:`repro.space.network.NetworkPOISpace` under the ``net_circle``
/ ``net_tile`` strategies.  Strategies receive their session space's
POI index, regions answer Lemma-1 bounds in their own metric, and
:meth:`update_pois` targets one space's index per call — so Euclidean
and road-network fleets coexist on a single service with identical
feature coverage (report/probe/notify, churn re-notification,
per-session + service-wide metrics, batched waves with scalar
fallback).

The batched fleet path
----------------------

:meth:`report` serves one escape event; a fleet tick produces hundreds
of them.  :meth:`report_many` accepts a whole batch of
:class:`~repro.service.messages.ReportEvent` objects, validates them
all up front (a bad event raises before any sibling's state is
touched), charges the same trigger/probe traffic per escaped session,
and then recomputes every escaped session through
:meth:`recompute_many` — which buckets sessions by strategy
``batch_key()`` and group size and recomputes each bucket with ONE
``build_regions_batch`` call, so the expensive index work runs through
the vectorized batch kernels (:func:`repro.index.kernels.gnn_batch`)
in one NumPy pass instead of N scalar traversals.  Strategies that
don't implement the hook (see
:class:`~repro.service.strategies.BatchableSafeRegionStrategy`), and
services constructed with ``batched=False``, fall back to the scalar
per-session path.  Both paths are exact and charge identical metrics
counters; ``tests/test_service_batch_equivalence.py`` holds them to
that on randomized fleets.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from repro.geometry.point import Point
from repro.index.backend import SpatialIndex
from repro.service.api import (
    Request,
    Response,
    ServiceSnapshot,
    SessionSnapshot,
    decode_record,
    dispatch_request,
    encode_record,
)
from repro.service.errors import (
    EnvelopeError,
    UnknownSessionError,
    UnknownSpaceError,
)
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
    check_member_ids,
    validate_report_events,
)
from repro.service.session import ServiceSession, lemma1_suspects
from repro.service.strategies import StrategyResult, get_strategy
from repro.simulation.messages import (
    LOCATION_UPDATE_PACKETS,
    PROBE_REQUEST_PACKETS,
    notify_packets,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy
from repro.space import Space, as_space

Member = Union[Point, MemberState]


def _as_state(member: Member) -> MemberState:
    if isinstance(member, MemberState):
        return member
    return MemberState(point=member)


def _check_space_kind(strategy, policy: Policy, space: Space) -> None:
    """A strategy bound to one space kind only serves sessions there."""
    required_kind = getattr(strategy, "space_kind", None)
    if required_kind is not None and required_kind != space.kind:
        raise ValueError(
            f"strategy {policy.strategy_name!r} serves {required_kind} "
            f"spaces, but the session space is {space.kind}"
        )


class MPNService:
    """Serves many concurrent monitoring sessions over one POI index.

    ``batched`` selects the fleet execution path: when true (the
    default), :meth:`report_many`, :meth:`recompute_many` and the POI
    churn re-notification dispatch whole waves of sessions through the
    strategies' vectorized ``build_regions_batch`` hooks; when false
    every recomputation runs the scalar per-session path.  The two are
    answer- and metrics-equivalent — the flag trades batched throughput
    against scalar simplicity, nothing else.
    """

    def __init__(self, tree: Union[SpatialIndex, Space], batched: bool = True):
        self.space = as_space(tree)  # the default session space
        self.batched = batched
        self.metrics = SimulationMetrics()  # service-wide aggregate
        self._sessions: dict[int, ServiceSession] = {}
        self._next_id = 0
        self._spaces: dict[str, Space] = {"default": self.space}

    @property
    def tree(self):
        """The default space's POI index (pre-Space-abstraction name)."""
        return self.space.index

    # ------------------------------------------------------------------
    # The space registry and the wire entry point
    # ------------------------------------------------------------------

    def add_space(self, name: str, space: Space) -> Space:
        """Register ``space`` under ``name`` for by-name references.

        Wire envelopes (and cluster deployments) cannot carry live
        :class:`~repro.space.base.Space` objects, so every non-default
        space a remote session or POI-churn batch targets must be
        registered first and referenced by name.  ``"default"`` is
        pre-registered to the constructor's space.
        """
        if name in self._spaces:
            raise ValueError(f"space {name!r} is already registered")
        self._spaces[name] = space
        return space

    def get_space(self, name: str = "default") -> Space:
        try:
            return self._spaces[name]
        except KeyError:
            raise UnknownSpaceError(name, tuple(sorted(self._spaces))) from None

    def space_names(self) -> list[str]:
        return sorted(self._spaces)

    def _resolve_space(self, space: Union[None, str, Space]) -> Space:
        """A space argument: ``None`` (default), a registered name, or a
        live space object (the in-process convenience)."""
        if space is None:
            return self.space
        if isinstance(space, str):
            return self.get_space(space)
        return space

    def dispatch(self, request: Request) -> Response:
        """Serve one request envelope — the transport-ready entry point.

        Every operation of the convenience API (:meth:`open_session`,
        :meth:`report`, :meth:`report_many`, :meth:`update_locations`,
        :meth:`update_pois`, :meth:`update_policy`,
        :meth:`close_session`) is reachable through this single method
        with a serializable :class:`repro.service.api.Request`, and
        answers with a serializable response envelope — the contract of
        :class:`repro.service.api.ServiceBackend`, shared with
        :class:`repro.cluster.MPNCluster`.
        """
        return dispatch_request(self, request)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open_session(
        self,
        members: Sequence[Member],
        policy: Policy,
        space: Union[None, str, Space] = None,
        session_id: Optional[int] = None,
    ) -> SessionHandle:
        """Register a group; computes its first result and regions.

        ``space`` is the metric space the session lives in —
        ``None`` for the service's default space, a registered name
        (see :meth:`add_space`), or a live space object; member
        positions must be of that space's position type, and the
        policy's strategy must serve that space kind (e.g.
        ``net_circle`` sessions need a network space).  ``session_id``
        lets a front door (the cluster) assign globally-routable ids;
        plain callers leave it ``None`` and get the next free id.  The
        registration charges one location update per member plus the
        first result notification round.

        Every rejection — a periodic strategy, an empty group, an
        unknown space, a strategy that does not serve the space's kind,
        an id already in use — raises before anything is registered or
        numbered, so a front door that numbers sessions through this
        method burns no id on a refused open.
        """
        strategy = get_strategy(policy)
        if strategy.periodic:
            raise ValueError("periodic strategies bypass the session API")
        if not members:
            raise ValueError("need at least one member")
        space = self._resolve_space(space)
        _check_space_kind(strategy, policy, space)
        if session_id is None:
            session_id = self._next_id
        elif session_id in self._sessions:
            raise ValueError(f"session id {session_id} is already in use")
        session = ServiceSession(
            session_id=session_id,
            policy=policy,
            strategy=strategy,
            members=[_as_state(m) for m in members],
            space=space,
        )
        # Register only after the first computation succeeds, so a
        # failing strategy cannot leak a half-initialized session — and
        # consume the id only then too, so a strategy failing
        # mid-registration burns nothing, here and on every front door
        # (in-process or wire) that numbers sessions through a service.
        notification = self._recompute(session, cause="register")
        self._sessions[session_id] = session
        self._next_id = max(self._next_id, session_id + 1)
        m = session.size
        for ledger in (session.metrics, self.metrics):
            ledger.charge_round(m, m * LOCATION_UPDATE_PACKETS, 0, 0)
        return SessionHandle(
            session_id=session_id,
            size=session.size,
            policy=policy,
            strategy_name=policy.strategy_name,
            notification=notification,
        )

    def close_session(self, session_id: int) -> None:
        if self._sessions.pop(session_id, None) is None:
            raise UnknownSessionError(session_id)

    def session(self, session_id: int) -> ServiceSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None

    def session_ids(self) -> list[int]:
        return sorted(self._sessions)

    def session_metrics(self, session_id: int) -> SimulationMetrics:
        return self.session(session_id).metrics

    def oracle_stats(self) -> dict[str, dict]:
        """Distance-oracle counters per registered road-network space.

        ``{space_name: stats}`` for every space whose index runs on a
        :class:`~repro.index.oracle.DistanceOracle` (row-cache
        hits/misses/evictions, resident bytes, landmark prune rate —
        see :meth:`DistanceOracle.stats`).  Euclidean spaces have no
        oracle and are omitted.  JSON-safe; the wire ``stats`` control
        op ships it under the ``"oracle"`` key.
        """
        out: dict[str, dict] = {}
        for name in self.space_names():
            index = getattr(self.get_space(name), "index", None)
            oracle = getattr(index, "oracle", None)
            if oracle is not None:
                out[name] = oracle.stats()
        return out

    def update_policy(self, session_id: int, policy: Policy) -> None:
        """Swap a session's policy; the strategy is re-resolved once.

        Takes effect at the next recomputation — existing regions stay
        valid until then (used by e.g. the adaptive alpha tuner).
        """
        session = self.session(session_id)
        strategy = get_strategy(policy)
        if strategy.periodic:
            raise ValueError("periodic strategies bypass the session API")
        _check_space_kind(strategy, policy, session.space)
        session.policy = policy
        session.strategy = strategy
        session.lemma1_bound = None  # MAX <-> SUM changes the threshold

    # ------------------------------------------------------------------
    # Session migration and shard snapshots (elastic operations)
    # ------------------------------------------------------------------

    def _space_name_of(self, space: Space) -> Optional[str]:
        """The registered name of ``space`` (``None`` = default).

        Sessions opened on an unregistered live space cannot leave this
        process — there is no name a peer could resolve."""
        for name, registered in self._spaces.items():
            if registered is space:
                return None if name == "default" else name
        raise EnvelopeError(
            "session lives on an unregistered space; only sessions on "
            "registered spaces (add_space) can be exported"
        )

    def export_session(self, session_id: int) -> SessionSnapshot:
        """The session's full state as a wire-safe snapshot envelope.

        Mutates nothing and charges nothing: exporting is a read.  The
        session keeps serving here until :meth:`close_session`.
        """
        from repro.service.regions import encode_region

        session = self.session(session_id)
        return SessionSnapshot(
            session_id=session.session_id,
            policy=session.policy,
            members=tuple(session.members),
            po=session.po,
            regions=tuple(encode_region(r) for r in session.regions),
            metrics=encode_record(session.metrics),
            space=self._space_name_of(session.space),
        )

    def _decode_snapshot(self, snapshot: SessionSnapshot) -> ServiceSession:
        """A live :class:`ServiceSession` from its snapshot, unregistered."""
        from repro.service.regions import decode_region

        space = self._resolve_space(snapshot.space)
        strategy = get_strategy(snapshot.policy)
        _check_space_kind(strategy, snapshot.policy, space)
        return ServiceSession(
            session_id=snapshot.session_id,
            policy=snapshot.policy,
            strategy=strategy,
            members=[_as_state(m) for m in snapshot.members],
            space=space,
            po=snapshot.po,
            regions=[decode_region(r, space=space) for r in snapshot.regions],
            metrics=decode_record(SimulationMetrics, snapshot.metrics),
        )

    def import_session(self, snapshot: SessionSnapshot) -> None:
        """Install a migrated session exactly where its export left off.

        The notification-invariance half of live migration: importing
        recomputes nothing and charges nothing — members, meeting
        point, safe regions and per-session counters resume verbatim,
        so a fleet replayed across the move cannot tell it happened.
        The service-wide aggregate is *not* credited with the restored
        counters (their charges live on whichever shard served them);
        cluster-level metrics stay exact under migration because of it.
        The id watermark advances past the imported id so this shard
        never re-issues it.
        """
        if snapshot.session_id in self._sessions:
            raise ValueError(
                f"session id {snapshot.session_id} is already in use"
            )
        session = self._decode_snapshot(snapshot)
        self._sessions[session.session_id] = session
        self._next_id = max(self._next_id, session.session_id + 1)

    def snapshot(self) -> ServiceSnapshot:
        """Every session plus the id watermark — the failover envelope."""
        return ServiceSnapshot(
            sessions=tuple(
                self.export_session(sid) for sid in self.session_ids()
            ),
            next_id=self._next_id,
        )

    def restore(self, snapshot: ServiceSnapshot) -> list[int]:
        """Replay a whole-shard snapshot into this service, atomically.

        Every session is decoded (and checked for id collisions) before
        any is installed, so a bad snapshot leaves the service
        untouched.  Returns the restored session ids.
        """
        decoded: list[ServiceSession] = []
        seen: set[int] = set()
        for entry in snapshot.sessions:
            if entry.session_id in self._sessions or entry.session_id in seen:
                raise ValueError(
                    f"session id {entry.session_id} is already in use"
                )
            seen.add(entry.session_id)
            decoded.append(self._decode_snapshot(entry))
        for session in decoded:
            self._sessions[session.session_id] = session
            self._next_id = max(self._next_id, session.session_id + 1)
        self._next_id = max(self._next_id, snapshot.next_id)
        return [session.session_id for session in decoded]

    # ------------------------------------------------------------------
    # The event protocol (Fig. 3)
    # ------------------------------------------------------------------

    def report(
        self,
        session_id: int,
        member_id: int,
        point: Point,
        heading: Optional[float] = None,
        theta: Optional[float] = None,
        probes: Optional[Sequence[tuple[int, MemberState]]] = None,
    ) -> Optional[Notification]:
        """A member reports her location (step 1 of Fig. 3).

        Clients are expected to report only when escaping their safe
        region; a redundant in-region report just refreshes the stored
        state and returns ``None`` without charging any traffic.
        Otherwise the full round runs: the trigger's location update is
        charged, every other member is probed (step 2), the strategy
        recomputes, and everyone is re-notified (step 3).

        ``probes`` optionally supplies fresh ``(member_id, state)``
        pairs gathered client-side; a member without one keeps her last
        reported state.  The probe round charges every other member
        either way, so a fleet accounts the same whichever states it
        ships.  Probes are ignored when the report is still in-region.
        """
        session = self.session(session_id)
        check_member_ids(session.size, member_id, probes)
        state = MemberState(point=point, heading=heading, theta=theta)
        session.members[member_id] = state
        if session.regions and session.regions[member_id].contains_point(point):
            return None
        self._probe(session, exclude=member_id, supplied=probes)
        return self._recompute(session, cause="report")

    def update_locations(
        self,
        session_id: int,
        members: Sequence[Member],
    ) -> Notification:
        """Refresh every member's state at once and recompute.

        The already-probed path: the caller has gathered all positions
        itself, so no trigger or probe traffic is charged — only the
        recomputation and the result notifications.
        """
        session = self.session(session_id)
        if len(members) != session.size:
            raise ValueError("member count does not match session size")
        session.members = [_as_state(m) for m in members]
        return self._recompute(session, cause="refresh")

    # ------------------------------------------------------------------
    # The batched fleet path
    # ------------------------------------------------------------------

    def report_many(
        self, events: Sequence[ReportEvent]
    ) -> list[Optional[Notification]]:
        """Serve a whole batch of escape reports in vectorized waves.

        Equivalent to calling :meth:`report` once per event, in order
        — same notifications, same metrics counters — but sessions that
        escape in the same wave are recomputed together through
        :meth:`recompute_many`, so one fleet tick costs one batched
        kernel dispatch instead of one scalar index traversal per
        session.

        Every event is validated before anything mutates: an unknown
        session id raises :class:`UnknownSessionError` (and an
        out-of-range member a ``ValueError``) with every sibling
        session's state and metrics untouched.

        Duplicate session ids are legal: the second event for a
        session lands in a later wave, checked against the regions the
        first one just produced — exactly the sequential semantics.
        Returns one entry per event, ``None`` where the reported point
        was still covered by the member's region.
        """
        events = list(events)
        self.validate_events(events)
        out: list[Optional[Notification]] = [None] * len(events)
        pending = list(range(len(events)))
        while pending:
            wave: list[int] = []
            taken: set[int] = set()
            deferred: list[int] = []
            for idx in pending:
                sid = events[idx].session_id
                if sid in taken:
                    deferred.append(idx)
                else:
                    taken.add(sid)
                    wave.append(idx)
            pending = deferred
            escaped: list[int] = []
            escaped_sessions: list[ServiceSession] = []
            for idx in wave:
                event = events[idx]
                session = self._sessions.get(event.session_id)
                if session is None:
                    continue  # closed reentrantly since validation; skip
                session.members[event.member_id] = event.state
                if session.regions and session.regions[
                    event.member_id
                ].contains_point(event.state.point):
                    continue  # in-region report: state refreshed, no traffic
                self._probe(
                    session, exclude=event.member_id, supplied=event.probes
                )
                escaped.append(idx)
                escaped_sessions.append(session)
            notifications = self._recompute_sessions(
                escaped_sessions, cause="report"
            )
            for idx, notification in zip(escaped, notifications):
                out[idx] = notification
        return out

    def validate_events(self, events: Sequence[ReportEvent]) -> None:
        """Raise exactly what :meth:`report_many` would, mutating nothing.

        An unknown session id raises :class:`UnknownSessionError`, an
        out-of-range member id a ``ValueError`` — with every session's
        state and metrics untouched.  The checks themselves are
        :func:`~repro.service.messages.validate_report_events`, which a
        sharded front door (:mod:`repro.cluster.cluster`) runs once over
        the whole wave, in request order, before any shard is entered —
        so a split wave is refused with exactly this method's exception.
        """
        validate_report_events(
            events, lambda session_id: self.session(session_id).size
        )

    def recompute_many(
        self, session_ids: Sequence[int], cause: str = "refresh"
    ) -> list[Notification]:
        """Recompute many sessions at once through the batched path.

        All ids are validated up front (:class:`UnknownSessionError`
        before any recomputation runs).  Each session is recomputed
        exactly once and re-notified — duplicate ids coalesce — and
        results come back in first-occurrence order.
        """
        unique: dict[int, ServiceSession] = {}
        for sid in session_ids:
            if sid not in unique:
                unique[sid] = self.session(sid)
        notifications = self._recompute_sessions(list(unique.values()), cause)
        return [n for n in notifications if n is not None]

    def _recompute_sessions(
        self, sessions: Sequence[ServiceSession], cause: str
    ) -> list[Optional[Notification]]:
        """Recompute ``sessions``, bucketing batchable strategies.

        Sessions whose strategies share a ``batch_key()`` (and a group
        size, so the batch kernel sees a rectangular array) are
        recomputed with one ``build_regions_batch`` call; everyone else
        — and every session when ``self.batched`` is off — runs the
        scalar path.  The wall-clock of a batched wave is split evenly
        across its sessions; every counter is charged per session,
        identically to the scalar path.

        Returns notifications aligned with ``sessions``; an entry is
        ``None`` only if its session was closed reentrantly (e.g. by a
        strategy callback) before its recomputation ran.
        """
        out: list[Optional[Notification]] = [None] * len(sessions)
        buckets: dict[object, list[int]] = {}
        scalar: list[int] = []
        if self.batched and len(sessions) > 1:
            for i, session in enumerate(sessions):
                key = self._batch_key(session)
                if key is None:
                    scalar.append(i)
                else:
                    buckets.setdefault(key, []).append(i)
        else:
            scalar = list(range(len(sessions)))
        for key, idxs in buckets.items():
            if len(idxs) == 1:  # nothing to batch; skip the packing
                scalar.extend(idxs)
                continue
            batch = [sessions[i] for i in idxs]
            strategy = batch[0].strategy
            start = time.perf_counter()
            results = strategy.build_regions_batch(
                [s.positions for s in batch],
                batch[0].space.index,
                [[m.heading for m in s.members] for s in batch],
                [[m.theta for m in s.members] for s in batch],
            )
            share = (time.perf_counter() - start) / len(batch)
            if results is None:  # strategy declined this batch
                scalar.extend(idxs)
                continue
            if len(results) != len(batch):
                raise ValueError(
                    f"{type(strategy).__name__}.build_regions_batch returned "
                    f"{len(results)} results for {len(batch)} groups"
                )
            for i, result in zip(idxs, results):
                if sessions[i].session_id not in self._sessions:
                    continue
                out[i] = self._apply_result(sessions[i], result, share, cause)
        for i in sorted(scalar):
            if sessions[i].session_id not in self._sessions:
                continue
            out[i] = self._recompute(sessions[i], cause)
        return out

    def _batch_key(self, session: ServiceSession) -> Optional[object]:
        """Bucket token for one session, or ``None`` for the scalar path.

        Two sessions share a bucket only when their strategies are the
        same class with equal ``batch_key()`` tokens, their groups are
        the same size (the batch kernels pack rectangular
        structure-of-arrays), and they live in the same space (a batch
        runs against exactly one POI index).
        """
        strategy = session.strategy
        if not hasattr(strategy, "build_regions_batch"):
            return None
        key_fn = getattr(strategy, "batch_key", None)
        token = key_fn() if callable(key_fn) else None
        if token is None:
            return None
        return (type(strategy), token, session.size, id(session.space))

    def _probe(
        self,
        session: ServiceSession,
        exclude: int,
        supplied: Optional[Sequence[tuple[int, MemberState]]] = None,
    ) -> None:
        """Steps 1-2: fetch every other member's state, charging the round.

        ``supplied`` holds the states the report ships (its ``probes``);
        each one replaces that member's stored state, and a member
        without one keeps her last reported state.  A state supplied
        for the trigger itself is ignored.

        One ``charge_round`` per ledger covers the whole escape: the
        trigger's location update plus, for each of the m − 1 other
        members, one location update up and one probe request down —
        the probe round's traffic does not depend on which states the
        report shipped.
        """
        for i, state in supplied or ():
            if i != exclude:
                session.members[i] = state
        m = session.size
        for ledger in (session.metrics, self.metrics):
            ledger.charge_round(
                m,
                m * LOCATION_UPDATE_PACKETS,
                m - 1,
                (m - 1) * PROBE_REQUEST_PACKETS,
            )

    # ------------------------------------------------------------------
    # Dynamic POI updates
    # ------------------------------------------------------------------

    def update_pois(
        self,
        adds: Sequence[tuple[Point, object]] = (),
        removes: Sequence[tuple[Point, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        """Apply a batch of POI inserts/deletes, then recompute once.

        Prefer this over per-item :meth:`add_poi` / :meth:`remove_poi`
        under churn: a batch is absorbed by the index's delta layer
        (and amortizes the eventual repack) where per-item calls pay
        the delta bookkeeping per mutation.  The batch targets one
        space's index — ``space`` (default: the service's default
        space; a registered name or a live space otherwise) — and only
        that space's sessions are checked for invalidation;
        adds/removes are in that space's position type (points / graph
        nodes).  Each invalidated session is recomputed a single time
        even if several updates touch it.  Returns one notification
        per re-notified session.
        """
        # One-shot iterables must feed the index and the sweep alike.
        adds, removes = tuple(adds), tuple(removes)
        target = self._resolve_space(space)
        target.bulk_update(adds, removes)
        return self.renotify_pois(adds, removes, space=target)

    def renotify_pois(
        self,
        adds: Sequence[tuple[Point, object]] = (),
        removes: Sequence[tuple[Point, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        """Recompute the sessions a POI batch invalidates (Lemma 1).

        The re-notification half of :meth:`update_pois`, for callers
        that applied the index mutation themselves — the cluster front
        door applies one churn batch to its epoch-shared space and
        then sweeps each shard's sessions through this.  Invalidation
        is pure geometry (the removed meeting point, or an added POI
        inside a session's safe region), so it reads the post-update
        index state only through the recomputation of the sessions it
        selects.

        Two stages: :func:`~repro.service.session.lemma1_suspects`
        clears most (session, add) pairs in one NumPy broadcast — a
        conservative filter: enclosing balls (bounding circles in the
        plane; on a road network the regions' own network balls,
        measured along the add nodes' oracle rows, one gather per
        batch) under-estimate ``min_dist`` and the threshold is padded,
        so no failing pair is dropped — and the exact
        :meth:`~ServiceSession.region_valid_against` decides the rest in
        add order, so the result is the sessions x adds loop's, order
        included.  Only custom region kinds the filter cannot enclose
        keep every add.  The filter's per-session bound is reset wherever
        ``po`` / ``regions`` / ``policy`` are written
        (:meth:`_apply_result`, :meth:`_decode_snapshot`,
        :meth:`update_policy`).
        """
        target = self._resolve_space(space)
        removed = {p for p, _ in removes}
        points = [p for p, _ in adds]
        # Snapshot before recomputing: strategies may close sessions
        # reentrantly, and the recomputation wave must neither blow up
        # on dict mutation nor notify a session closed mid-batch
        # (closed sessions are skipped inside _recompute_sessions).
        # Sessions are matched by the *index* they compute against, not
        # the Space wrapper's identity: two wrappers over one index see
        # the same POIs, and the churn must invalidate either way.
        index = target.index
        sessions = [
            session
            for session in self._sessions.values()
            if session.space.index is index
        ]
        invalidated = [
            session
            for session, suspects in zip(
                sessions, lemma1_suspects(sessions, points)
            )
            if session.po in removed
            or any(not session.region_valid_against(points[j]) for j in suspects)
        ]
        notifications = self._recompute_sessions(invalidated, cause="poi_update")
        return [n for n in notifications if n is not None]

    def add_poi(self, p: Point, payload=None, space=None) -> list[Notification]:
        """Insert a POI; recompute only the sessions it invalidates."""
        return self.update_pois(adds=[(p, payload)], space=space)

    def remove_poi(self, p: Point, payload=None, space=None) -> list[Notification]:
        """Delete a POI; only sessions meeting *at* it are recomputed.

        Raises ``KeyError`` when the POI is not present.
        """
        return self.update_pois(removes=[(p, payload)], space=space)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _recompute(self, session: ServiceSession, cause: str) -> Notification:
        """Steps 2-3: run the strategy, charge the update, notify all."""
        start = time.perf_counter()
        result = session.strategy.compute(
            session.positions,
            session.space.index,
            [m.heading for m in session.members],
            [m.theta for m in session.members],
        )
        cpu = time.perf_counter() - start
        return self._apply_result(session, result, cpu, cause)

    def _apply_result(
        self,
        session: ServiceSession,
        result: StrategyResult,
        cpu: float,
        cause: str,
    ) -> Notification:
        """Install a strategy result and charge it — the one place both
        the scalar and the batched path account their work, so the two
        cannot drift apart in what they charge.

        Per ledger: one ``charge_update`` (the recomputation and its
        index work) and one ``charge_round`` for step 3 — ``m``
        notifications down, ``sum(notify_packets(v))`` packets and
        ``sum(v)`` region values over the members' region sizes ``v``.
        """
        if session.po is not None and result.po != session.po:
            session.metrics.result_changes += 1
            self.metrics.result_changes += 1
        session.po = result.po
        session.regions = list(result.regions)
        session.lemma1_bound = None  # refilled by the next churn sweep
        values = result.region_values
        packets = sum(map(notify_packets, values))
        for ledger in (session.metrics, self.metrics):
            ledger.charge_update(cpu, result.stats)
            ledger.charge_round(0, 0, len(values), packets, sum(values))
        return Notification(
            session_id=session.session_id,
            po=result.po,
            regions=tuple(result.regions),
            region_values=tuple(result.region_values),
            cause=cause,
        )
