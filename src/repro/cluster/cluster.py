"""The sharded front door: one ``ServiceBackend`` over many shards.

:class:`ShardedFrontDoor` is the single implementation of everything a
sharded backend decides — routing, numbering, validation, fan-out,
reassembly, resharding, snapshots, metrics — and this docstring is the
single statement of those semantics.  It has two constructors, which
say only *where a shard lives*:

* :class:`MPNCluster` (this module) owns ``num_shards`` in-process
  :class:`~repro.service.MPNService` workers which all serve the **same
  space object**: the POI index is built once and every churn batch is
  applied to it once, so each shard reads the new epoch (``space.epoch``)
  at the same moment; sessions and their metrics stay per-shard.
* :class:`repro.transport.worker.ProcessCluster` puts every shard in
  its own OS process behind a
  :class:`~repro.transport.client.RemoteBackend`; what is specific to
  processes (replicas, the mirror, the churn log, spawn and drain) is
  described there.

Either way the front door scales the serving API horizontally while
keeping the paper's guarantees bit-exact, and implements the same API
surface as a single service:

* the wire face — :meth:`~ShardedFrontDoor.dispatch` serves every
  :mod:`repro.service.api` request envelope;
* the in-process face — ``open_session`` / ``report`` /
  ``report_many`` / ``update_locations`` / ``update_pois`` /
  ``update_policy`` / ``close_session`` and the ``session*``
  accessors, so :func:`repro.simulation.run_service` drives a cluster
  exactly like a service.

Routing and exactness
---------------------

* **Sessions** are routed by a deterministic consistent hash of the
  cluster-assigned session id (:mod:`repro.cluster.hashring`).  The
  cluster numbers sessions 0, 1, 2, … exactly like a single service,
  and the owning shard registers the session *under that id* through
  its public ``open_session(..., session_id=gid)`` — so every
  notification already carries the global id and no translation layer
  exists to drift.  The id is consumed only once the shard's open has
  returned, so a refused open (or a strategy failing mid-registration)
  burns none.  Duplicate detection is topology-aware: an explicit id
  held by *any* shard is refused — resharding or a failover restore
  may have parked the original off its ring owner.
* **Waves** (:meth:`~ShardedFrontDoor.report_many`) are validated
  **once, at the front door, in request order**
  (:func:`~repro.service.messages.validate_report_events` against the
  group sizes the shards hold — no wire traffic): the first bad event
  decides the exception exactly as on one
  :meth:`MPNService.report_many <repro.service.MPNService.report_many>`
  and no shard or session hears anything — the single-service
  all-or-nothing contract.  The wave is then split per shard with
  intra-shard order preserved (per-session sequential semantics hold
  and each sub-wave still flows through the batched
  ``build_regions_batch`` kernels) and **scattered and gathered**:
  every involved shard is handed its sub-wave through its public
  ``report_many`` before any answer is read, and the per-event results
  are reassembled into request order.  Worker processes therefore
  compute at the same time and a wave costs one concurrent round-trip,
  not one per shard; an in-process shard computes the moment it is
  handed its sub-wave, so one that raises stops later shards from
  being entered.
* **POI churn** (:meth:`~ShardedFrontDoor.update_pois`) applies every
  batch **once** at the front door: its copy of the space (the one
  space every shard serves in-process, the mirror replica over the
  wire) absorbs it
  through the index's delta layer — all-or-nothing, a bad removal
  raises before any shard observes anything.  Every shard is then
  handed its half the same scatter-gather way — in-process only the
  Lemma-1 invalidation sweep over its own sessions
  (:meth:`~repro.service.MPNService.renotify_pois`: one batch costs one
  index update and one epoch, not ``num_shards`` rebuilds), over the
  wire the batch itself — and the merged re-notifications come back in
  ascending session order, the order a single service (whose session
  table is id-ordered) emits.
* **Elastic operations**: :meth:`~ShardedFrontDoor.add_shard` /
  :meth:`~ShardedFrontDoor.remove_shard` move exactly the consistent-hash
  ring's minimal remap set, one session at a time through the
  :class:`~repro.service.api.SessionSnapshot` codec — members, meeting
  point, safe regions and per-session counters resume verbatim.
  Migration recomputes nothing and charges nothing, the
  session is never absent (the old shard serves it until the import has
  landed) and the ring is committed only after every move, so a fleet
  replayed across a reshard emits bit-identical notifications.
* **Metrics**: every counter is charged on exactly one shard, so the
  cluster-wide aggregate (:attr:`~ShardedFrontDoor.metrics`) is the
  plain merge of the shard aggregates — retired shards' included, their
  traffic was served — and equals the single-service counters bit for
  bit (wall-clock seconds, as always, excepted).

``tests/test_cluster_equivalence.py`` (in-process),
``tests/test_wire_equivalence.py`` (processes) and
``tests/test_elastic_equivalence.py`` (both, across reshards) hold all
of the above to bit-identical notification sequences and counters
against an unsharded service, for Euclidean and network spaces, batched
and scalar, under interleaved reports and churn.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Sequence, TypeVar, Union

from repro.geometry.point import Point
from repro.index.backend import SpatialIndex
from repro.cluster.hashring import HashRing
from repro.cluster.load import ShardLoad, collect_shard_loads, hot_shards
from repro.service.api import (
    Request,
    Response,
    ServiceSnapshot,
    SessionSnapshot,
    dispatch_request,
)
from repro.service.errors import UnknownSessionError
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
    validate_report_events,
)
from repro.service.service import Member, MPNService
from repro.service.session import ServiceSession
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy
from repro.space import Space, as_space, replicate_space

SpaceFactory = Callable[[], Space]
Shard = Any  # a live MPNService or RemoteBackend — never a wrapper
T = TypeVar("T")


def _scatter_gather(submits: Sequence[Callable[[], Callable[[], T]]]) -> list[T]:
    """Run every ``submit`` (each hands one shard its work and returns
    the function that reads the answer), *then* read the answers, in
    order.

    Every reply that was asked for is read before the first error — in
    ``submits`` order — is raised, so a failure on one connection never
    leaves an unread frame on another.  A submit that raises (an
    in-process shard computes inside it) stops the ones after it.
    """
    gathers: list[Callable[[], T]] = []
    unsent: Optional[Exception] = None
    for submit in submits:
        try:
            gathers.append(submit())
        except Exception as exc:
            unsent = exc
            break
    results: list[T] = []
    errors: list[Exception] = []
    for gather in gathers:
        try:
            results.append(gather())
        except Exception as exc:
            errors.append(exc)
    if unsent is not None:
        errors.append(unsent)
    if errors:
        raise errors[0]
    return results


class ShardedFrontDoor:
    """Everything a sharded ``ServiceBackend`` decides (module docstring).

    A constructor class fills ``_shards`` (shard id → a live backend
    exposing the ``MPNService`` convenience surface), provides ``space``
    / ``get_space`` / ``space_names`` and ``_live_space_error``, and
    answers the hooks below; everything else is here, once.
    """

    #: Why a live space object is refused as a space reference.
    _live_space_error: str

    def __init__(self, num_shards: int, ring_replicas: int):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self._shards: dict[int, Shard] = {}
        self._ring = HashRing(range(num_shards), replicas=ring_replicas)
        self._next_id = 0
        # Shard ids are never recycled: a reused id would alias a
        # retired shard's identity in load baselines and operator logs.
        self._next_shard_id = num_shards
        # Merged aggregates of shards removed by remove_shard(): their
        # traffic was really served, so cluster-wide counters keep it.
        self._retired = SimulationMetrics()
        self._load_baselines: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Where a shard lives: the hooks
    # ------------------------------------------------------------------

    def _new_shard(self, shard_id: int) -> Shard:
        """A fresh, empty shard serving the cluster's current POI sets."""
        raise NotImplementedError

    def _session_size(self, shard: Shard, session_id: int) -> int:
        """Group size of a session ``shard`` holds — without wire
        traffic; :class:`UnknownSessionError` if it holds no such id."""
        raise NotImplementedError

    def _submit_wave(
        self, shard: Shard, events: list[ReportEvent]
    ) -> Callable[[], list[Optional[Notification]]]:
        """Hand ``shard`` a validated sub-wave through its public
        ``report_many``; the returned function reads the answers."""
        raise NotImplementedError

    def _apply_churn(
        self, adds: tuple, removes: tuple, name: Optional[str]
    ) -> None:
        """Apply one batch to the front door's own copy of the space —
        the step that validates it, all-or-nothing."""
        self.get_space(name or "default").bulk_update(adds, removes)

    def _submit_churn(
        self, shard: Shard, adds: tuple, removes: tuple, space: Optional[str]
    ) -> Callable[[], list[Notification]]:
        """Hand ``shard`` its half of an applied batch; the returned
        function reads its re-notifications."""
        raise NotImplementedError

    def _require_space_ref(self, space: Union[None, str, Space]) -> Optional[str]:
        """Cluster space arguments must be ``None`` or a registered name.

        A live space object is not a cluster-wide reference — shards
        serve copies the cluster owns, and wire envelopes cannot carry
        live objects either.
        """
        if space is None or isinstance(space, str):
            return space
        raise ValueError(self._live_space_error)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The per-shard backends in shard-id order (read them, don't
        route around them).  Shard ids are stable but — after a
        ``remove_shard`` — not necessarily contiguous; index this tuple
        positionally only on a never-reshaped cluster, else go through
        :meth:`shard`."""
        return tuple(self._shards[i] for i in sorted(self._shards))

    def shard_ids(self) -> list[int]:
        """Current shard ids, ascending."""
        return sorted(self._shards)

    def shard(self, shard_id: int) -> Shard:
        """The backend serving ``shard_id``."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ValueError(f"no shard {shard_id}") from None

    def shard_for(self, session_id: int) -> int:
        """The id of the shard the ring routes ``session_id`` to."""
        return self._ring.shard_for(session_id)

    def _shard(self, session_id: int) -> Shard:
        return self._shards[self._ring.shard_for(session_id)]

    def _owner_of(self, session_id: int) -> Optional[int]:
        """The shard id actually holding ``session_id``, or ``None`` —
        every shard is asked, not just the ring's owner.  Off the hot
        path: explicit ids, export and import only."""
        for shard_id, shard in self._shards.items():
            try:
                self._session_size(shard, session_id)
            except UnknownSessionError:
                continue
            return shard_id
        return None

    # ------------------------------------------------------------------
    # The wire face
    # ------------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Serve one request envelope — same contract as the service."""
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
        """Open a session on its hash-routed shard, under a
        cluster-assigned id.  ``space`` must be ``None`` or a
        registered name."""
        self._require_space_ref(space)
        gid = self._next_id if session_id is None else session_id
        owner_id = self._ring.shard_for(gid)
        # The ring's owner refuses its own duplicates (after validating
        # the open, like a single service); one parked elsewhere would
        # silently split the session's identity, so it is refused here.
        if session_id is not None and self._owner_of(gid) not in (None, owner_id):
            raise ValueError(f"session id {gid} is already in use")
        handle = self._shards[owner_id].open_session(
            members, policy, space=space, session_id=gid
        )
        self._next_id = max(self._next_id, gid + 1)
        return handle

    def close_session(self, session_id: int) -> None:
        self._shard(session_id).close_session(session_id)

    def session_ids(self) -> list[int]:
        return sorted(
            session_id
            for shard in self._shards.values()
            for session_id in shard.session_ids()
        )

    def session_metrics(self, session_id: int) -> SimulationMetrics:
        return self._shard(session_id).session_metrics(session_id)

    def update_policy(self, session_id: int, policy: Policy) -> None:
        self._shard(session_id).update_policy(session_id, policy)

    # ------------------------------------------------------------------
    # Elastic operations: live reshard, migration, snapshots
    # ------------------------------------------------------------------

    def add_shard(self) -> int:
        """Grow the cluster by one shard, migrating sessions live.

        A fresh shard joins under a never-used id.  Consistent hashing
        moves only ~``1/(n+1)`` of the sessions — all of them *to* the
        newcomer (see :class:`~repro.cluster.hashring.HashRing`).
        Returns the new shard's id.
        """
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        shard = self._new_shard(shard_id)
        new_ring = self._ring.copy()
        new_ring.add_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        self._migrate(moved, {shard_id: shard})
        self._shards[shard_id] = shard
        self._ring = new_ring
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire one shard, migrating its sessions to the survivors.

        Only the departing shard's sessions move — each to whichever
        survivor the ring hands it — and its aggregate counters fold
        into the retired ledger, so :attr:`metrics` stays exact across
        the reshard.  Refuses to remove the last shard.
        """
        retiring = self.shard(shard_id)
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        new_ring = self._ring.copy()
        new_ring.remove_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        self._migrate(moved, {})
        self._retired.merge(retiring.metrics)
        del self._shards[shard_id]
        self._load_baselines.pop(shard_id, None)
        self._ring = new_ring

    def _migrate(
        self, moved: dict[int, tuple[int, int]], joining: dict[int, Shard]
    ) -> None:
        """Hand each session in the plan from its old shard to its new
        one: export → import → close, so the old shard serves it until
        the import has landed.  ``joining`` holds not-yet-installed
        targets (the ``add_shard`` case); the caller commits the ring
        only after every move, so a failed migration leaves routing on
        the old topology."""
        for session_id in sorted(moved):
            source_id, target_id = moved[session_id]
            source = self._shards[source_id]
            target = joining.get(target_id) or self._shards[target_id]
            target.import_session(source.export_session(session_id))
            source.close_session(session_id)

    def export_session(self, session_id: int) -> SessionSnapshot:
        """Snapshot one session off whichever shard actually holds it
        (a read)."""
        owner = self._owner_of(session_id)
        if owner is None:
            raise UnknownSessionError(session_id)
        return self._shards[owner].export_session(session_id)

    def import_session(self, snapshot: SessionSnapshot) -> None:
        """Install a migrated session on its ring-routed owner shard."""
        if self._owner_of(snapshot.session_id) is not None:
            raise ValueError(
                f"session id {snapshot.session_id} is already in use"
            )
        self._shard(snapshot.session_id).import_session(snapshot)
        self._next_id = max(self._next_id, snapshot.session_id + 1)

    def shard_snapshot(self, shard_id: int) -> ServiceSnapshot:
        """One whole shard as a failover envelope (a read; see
        :meth:`repro.service.MPNService.snapshot`)."""
        return self.shard(shard_id).snapshot()

    def restore_shard(
        self, shard_id: int, snapshot: ServiceSnapshot
    ) -> list[int]:
        """Replay a shard snapshot into ``shard_id`` (e.g. a fresh
        replacement after a failover); returns the restored ids."""
        restored = self.shard(shard_id).restore(snapshot)
        for session_id in restored:
            self._next_id = max(self._next_id, session_id + 1)
        return restored

    # ------------------------------------------------------------------
    # The event protocol
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
        return self._shard(session_id).report(
            session_id, member_id, point, heading, theta, probes=probes
        )

    def update_locations(
        self, session_id: int, members: Sequence[Member]
    ) -> Notification:
        return self._shard(session_id).update_locations(session_id, members)

    def report_many(
        self, events: Sequence[ReportEvent]
    ) -> list[Optional[Notification]]:
        """A fleet wave through the shards, answer-identical to one
        service: validated once here in request order, scattered per
        shard, gathered in shard order, returned in request order."""
        events = list(events)
        split: dict[int, list[int]] = {}
        owner: dict[int, Shard] = {}
        for index, event in enumerate(events):
            shard_id = self._ring.shard_for(event.session_id)
            split.setdefault(shard_id, []).append(index)
            owner[event.session_id] = self._shards[shard_id]
        validate_report_events(
            events,
            lambda session_id: self._session_size(owner[session_id], session_id),
        )
        ordered = sorted(split.items())
        answers = _scatter_gather(
            [
                functools.partial(
                    self._submit_wave,
                    self._shards[shard_id],
                    [events[index] for index in indices],
                )
                for shard_id, indices in ordered
            ]
        )
        out: list[Optional[Notification]] = [None] * len(events)
        for (_, indices), notifications in zip(ordered, answers):
            for index, notification in zip(indices, notifications):
                out[index] = notification
        return out

    # ------------------------------------------------------------------
    # Dynamic POI updates
    # ------------------------------------------------------------------

    def update_pois(
        self,
        adds: Sequence[tuple[Point, object]] = (),
        removes: Sequence[tuple[Point, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        """One churn batch: applied (and so validated) once at the
        front door, then every shard's half scattered and gathered;
        re-notifications come back in ascending session order."""
        name = self._require_space_ref(space)
        # One-shot iterables must feed the front door's copy and every
        # shard alike, or the replicas diverge.
        adds, removes = tuple(adds), tuple(removes)
        self._apply_churn(adds, removes, name)
        answers = _scatter_gather(
            [
                functools.partial(self._submit_churn, shard, adds, removes, name)
                for shard in self.shards
            ]
        )
        return sorted(
            (n for notifications in answers for n in notifications),
            key=lambda n: n.session_id,
        )

    def add_poi(self, p: Point, payload=None, space=None) -> list[Notification]:
        return self.update_pois(adds=[(p, payload)], space=space)

    def remove_poi(
        self, p: Point, payload=None, space=None
    ) -> list[Notification]:
        return self.update_pois(removes=[(p, payload)], space=space)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> SimulationMetrics:
        """Cluster-wide counters: the merge of every shard's aggregate,
        removed shards' included.  Computed fresh per read; mutate
        shard metrics, not this."""
        merged = SimulationMetrics()
        merged.merge(self._retired)
        for shard in self._shards.values():
            merged.merge(shard.metrics)
        return merged

    def shard_metrics(self) -> list[SimulationMetrics]:
        """Each shard's own service-wide aggregate, in shard-id order."""
        return [shard.metrics for shard in self.shards]

    def shard_loads(self) -> list[ShardLoad]:
        """Per-shard load since the previous read (see
        :mod:`repro.cluster.load`)."""
        return collect_shard_loads(self._shards, self._load_baselines)

    def hot_shards(self, threshold: float = 2.0) -> list[int]:
        """Shard ids serving > ``threshold`` × the mean load since the
        last :meth:`shard_loads` read — candidates for a split."""
        return hot_shards(self.shard_loads(), threshold)


def _build_shared(space: Union[Space, SpaceFactory]) -> Space:
    """The one space object every shard serves.

    A factory is called exactly once (the cluster no longer needs one
    build per shard); a live space is copied once through
    :func:`repro.space.replicate_space` so the caller's object stays
    the caller's — churn routed around the front door can never
    corrupt the serving state.
    """
    if callable(space) and not isinstance(space, Space):
        return space()
    return replicate_space(space)


class MPNCluster(ShardedFrontDoor):
    """A sharded, answer-preserving ``ServiceBackend`` in one process.

    ``space_factory`` builds the default space (called exactly once —
    e.g. ``lambda: as_space(build_poi_tree(points))``).  Alternatively
    pass ``tree=`` (a space or bare index) and the cluster takes one
    defensive copy via :func:`repro.space.replicate_space`.  Either
    way every shard serves that one space object — the index is built
    once, not per shard.  ``batched`` selects each shard's fleet
    execution path, exactly as on :class:`~repro.service.MPNService`.
    """

    _live_space_error = (
        "cluster spaces are epoch-shared publications; register the space "
        "by name (add_space) and reference it by that name"
    )

    def __init__(
        self,
        num_shards: int,
        space_factory: Optional[SpaceFactory] = None,
        *,
        tree: Union[None, SpatialIndex, Space] = None,
        batched: bool = True,
        ring_replicas: int = 64,
    ):
        super().__init__(num_shards, ring_replicas)
        if (space_factory is None) == (tree is None):
            raise ValueError("pass exactly one of space_factory / tree")
        self.batched = batched
        self._spaces: dict[str, Space] = {
            "default": _build_shared(
                space_factory if space_factory is not None else as_space(tree)
            )
        }
        self._shards = {
            shard_id: self._new_shard(shard_id) for shard_id in range(num_shards)
        }

    # ------------------------------------------------------------------
    # Where a shard lives: in this process, on the shared spaces
    # ------------------------------------------------------------------

    def _new_shard(self, shard_id: int) -> MPNService:
        service = MPNService(self._spaces["default"], batched=self.batched)
        for name, space in self._spaces.items():
            if name != "default":
                service.add_space(name, space)
        return service

    def _session_size(self, shard: MPNService, session_id: int) -> int:
        return shard.session(session_id).size

    def _submit_wave(self, shard: MPNService, events: list[ReportEvent]):
        answer = shard.report_many(events)  # computed now; nothing to wait on
        return lambda: answer

    def _submit_churn(self, shard: MPNService, adds, removes, space):
        # The shared index took the batch at the front door; a shard
        # only sweeps its own sessions for Lemma-1 invalidation.
        answer = shard.renotify_pois(adds=adds, removes=removes, space=space)
        return lambda: answer

    # ------------------------------------------------------------------
    # Spaces (one object per name, served by every shard)
    # ------------------------------------------------------------------

    def _front_shard(self) -> MPNService:
        """Any live shard (they all share the same space registry)."""
        return self._shards[min(self._shards)]

    @property
    def space(self) -> Space:
        """The cluster's default space.

        Every shard serves this same space object, so it answers
        exactness queries for the whole cluster.
        """
        return self.get_space()

    def add_space(
        self, name: str, space: Union[Space, SpaceFactory]
    ) -> None:
        """Register a named space, served by every shard.

        ``space`` is either a factory (called exactly once) or a
        replicable live space (:func:`repro.space.replicate_space`
        copies it once; the original object stays the caller's and is
        never mutated by the cluster).  All shards register the same
        space object — shards added later (:meth:`add_shard`) register
        it at birth.
        """
        shared = _build_shared(space)
        for shard in self._shards.values():
            shard.add_space(name, shared)
        self._spaces[name] = shared

    def get_space(self, name: str = "default") -> Space:
        """The named space, the one object every shard serves."""
        return self._front_shard().get_space(name)

    def space_names(self) -> list[str]:
        return self._front_shard().space_names()

    # ------------------------------------------------------------------
    # What only live, in-process sessions can offer
    # ------------------------------------------------------------------

    def session(self, session_id: int) -> ServiceSession:
        return self._shard(session_id).session(session_id)

    def recompute_many(
        self, session_ids: Sequence[int], cause: str = "refresh"
    ) -> list[Notification]:
        """Recompute across shards; results in first-occurrence order."""
        unique: list[int] = []
        seen: set[int] = set()
        for session_id in session_ids:
            if session_id not in seen:
                seen.add(session_id)
                unique.append(session_id)
        split: dict[int, list[int]] = {}
        for session_id in unique:
            split.setdefault(self._ring.shard_for(session_id), []).append(
                session_id
            )
        # Validate every id before any shard recomputes (the single
        # service raises UnknownSessionError before running anything).
        for session_id in unique:
            self.session(session_id)
        by_session: dict[int, Notification] = {}
        for shard_index, ids in sorted(split.items()):
            for notification in self._shards[shard_index].recompute_many(
                ids, cause
            ):
                by_session[notification.session_id] = notification
        return [by_session[sid] for sid in unique if sid in by_session]

    def oracle_stats(self) -> dict[str, dict]:
        """Distance-oracle counters per road-network space.

        Every shard serves the same space objects, whose replicas all
        share one :class:`~repro.index.oracle.DistanceOracle`, so any
        one shard's :meth:`MPNService.oracle_stats
        <repro.service.MPNService.oracle_stats>` is the whole
        cluster's cache, counted once (``tests/test_oracle.py`` pins
        this down).
        """
        return self._front_shard().oracle_stats()
