"""The sharded front door: one ``ServiceBackend`` over many services.

:class:`MPNCluster` scales the serving API horizontally while keeping
the paper's guarantees bit-exact.  It owns ``num_shards`` independent
:class:`~repro.service.MPNService` workers which all serve the **same
copy-on-write published space** (:class:`repro.space.SharedSpace`):
the POI index is built once and epoch-shared, sessions and their
metrics stay per-shard, and implements the same API surface as a
single service:

* the wire face — :meth:`dispatch` serves every
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
  and the owning shard registers the session *under that id* — so
  every notification already carries the global id and no translation
  layer exists to drift.
* **Waves** (:meth:`report_many`) are validated on every shard first
  (all-or-nothing, like the single service), then split per shard with
  intra-shard order preserved — each shard's sub-wave still flows
  through the PR-3 batched ``build_regions_batch`` kernels — and the
  per-event results are reassembled into request order.
* **POI churn** (:meth:`update_pois`) applies every batch **once** at
  the front door: the shared space's index absorbs it through its
  delta layer (all-or-nothing — a bad removal raises before any shard
  observes anything) and publishes a new epoch; each shard then runs
  only its own Lemma-1 invalidation over its own sessions
  (:meth:`~repro.service.MPNService.renotify_pois`), and the merged
  re-notifications come back in ascending session order — the same
  order a single service (whose session table is id-ordered) emits.
  One batch costs one index update, not ``num_shards`` rebuilds.
* **Metrics**: every counter is charged on exactly one shard, so the
  cluster-wide aggregate (:attr:`metrics`) is the plain merge of the
  shard aggregates and equals the single-service counters bit for bit
  (wall-clock seconds, as always, excepted).

``tests/test_cluster_equivalence.py`` holds all of the above to
bit-identical notification sequences and counters against an
unsharded service, for Euclidean and network spaces, batched and
scalar, under interleaved reports and churn.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

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
)
from repro.service.service import Member, MPNService
from repro.service.session import Prober, ServiceSession
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy
from repro.space import (
    Space,
    SharedSpace,
    as_space,
    replicate_space,
    share_space,
)

SpaceFactory = Callable[[], Space]


def _build_shared(space: Union[Space, SpaceFactory]) -> SharedSpace:
    """One epoch-published space for every shard to serve.

    A factory is called exactly once (the cluster no longer needs one
    build per shard); a live space is copied once through
    :func:`repro.space.replicate_space` so the caller's object stays
    the caller's — churn routed around the front door can never
    corrupt the serving state.  The result is wrapped in a
    :class:`repro.space.SharedSpace` so every shard reads the same
    published index epoch.
    """
    if callable(space) and not isinstance(space, Space):
        return share_space(space())
    return share_space(replicate_space(space))


def _require_space_ref(space: Union[None, str, Space]) -> Optional[str]:
    """Cluster space arguments must be ``None`` or a registered name.

    A live space object is not a cluster-wide reference — the shards
    serve epoch-published copies owned by the cluster, and wire
    envelopes cannot carry live objects either.
    """
    if space is None or isinstance(space, str):
        return space
    raise ValueError(
        "cluster spaces are epoch-shared publications; register the space "
        "by name (add_space) and reference it by that name"
    )


class MPNCluster:
    """A sharded, answer-preserving ``ServiceBackend``.

    ``space_factory`` builds the default space (called exactly once —
    e.g. ``lambda: as_space(build_poi_tree(points))``).  Alternatively
    pass ``tree=`` (a space or bare index) and the cluster takes one
    defensive copy via :func:`repro.space.replicate_space`.  Either
    way the result is published to every shard as one epoch-shared
    :class:`repro.space.SharedSpace` — the index is built once, not
    per shard.  ``batched`` selects each shard's fleet execution path,
    exactly as on :class:`~repro.service.MPNService`.
    """

    def __init__(
        self,
        num_shards: int,
        space_factory: Optional[SpaceFactory] = None,
        *,
        tree: Union[None, SpatialIndex, Space] = None,
        batched: bool = True,
        ring_replicas: int = 64,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if (space_factory is None) == (tree is None):
            raise ValueError("pass exactly one of space_factory / tree")
        self.batched = batched
        shared = _build_shared(
            space_factory if space_factory is not None else as_space(tree)
        )
        self._shared_spaces: dict[str, SharedSpace] = {"default": shared}
        self._shards: dict[int, MPNService] = {
            shard_id: MPNService(shared, batched=batched)
            for shard_id in range(num_shards)
        }
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
    # Topology
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[MPNService, ...]:
        """The per-shard workers in shard-id order (read them, don't
        route around them).  Shard ids are stable but — after a
        ``remove_shard`` — not necessarily contiguous; index this tuple
        positionally only on a never-reshaped cluster, else go through
        :meth:`shard`."""
        return tuple(self._shards[i] for i in sorted(self._shards))

    def shard_ids(self) -> list[int]:
        """Current shard ids, ascending."""
        return sorted(self._shards)

    def shard(self, shard_id: int) -> MPNService:
        """The worker serving ``shard_id``."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ValueError(f"no shard {shard_id}") from None

    def shard_for(self, session_id: int) -> int:
        """The id of the shard owning ``session_id``."""
        return self._ring.shard_for(session_id)

    def _shard(self, session_id: int) -> MPNService:
        return self._shards[self._ring.shard_for(session_id)]

    def _front_shard(self) -> MPNService:
        """Any live shard (they all share the same space registry)."""
        return self._shards[min(self._shards)]

    # ------------------------------------------------------------------
    # Spaces (epoch-shared publications, referenced by name)
    # ------------------------------------------------------------------

    @property
    def space(self) -> Space:
        """The cluster's epoch-shared default space.

        Every shard serves this same published space, so it answers
        exactness queries for the whole cluster.
        """
        return self._front_shard().space

    def add_space(
        self, name: str, space: Union[Space, SpaceFactory]
    ) -> None:
        """Register a named space, epoch-shared across every shard.

        ``space`` is either a factory (called exactly once) or a
        replicable live space (:func:`repro.space.replicate_space`
        copies it once; the original object stays the caller's and is
        never mutated by the cluster).  All shards register the same
        :class:`repro.space.SharedSpace` publication — shards added
        later (:meth:`add_shard`) register it at birth.
        """
        shared = _build_shared(space)
        for shard in self._shards.values():
            shard.add_space(name, shared)
        self._shared_spaces[name] = shared

    def get_space(self, name: str = "default") -> Space:
        """The cluster's epoch-shared publication of the named space."""
        if name == "default":
            return self.space
        return self._front_shard().get_space(name)

    def space_names(self) -> list[str]:
        return self._front_shard().space_names()

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
        prober: Optional[Prober] = None,
        space: Union[None, str, Space] = None,
        session_id: Optional[int] = None,
    ) -> SessionHandle:
        """Open a session on its hash-routed shard.

        Ids are cluster-assigned (0, 1, 2, … — the same numbering a
        single service produces) and the owning shard registers the
        session under the global id, so notifications need no
        translation.  ``space`` must be ``None`` or a registered name.
        """
        _require_space_ref(space)
        gid = self._next_id if session_id is None else session_id
        shard = self._shard(gid)
        strategy, resolved = shard.validate_open(members, policy, space=space)
        # Duplicate detection is topology-aware: an explicit id is
        # checked against *every* shard, not just the ring's current
        # owner — resharding (or a failover restore) may have placed
        # the original elsewhere, and an off-owner duplicate would
        # silently split the session's identity.
        if session_id is not None and self._owner_of(gid) is not None:
            raise ValueError(f"session id {gid} is already in use")
        # Numbering mirrors the single service exactly: the id is
        # consumed only once registration succeeds, so neither a
        # validation failure nor a strategy failing mid-registration
        # burns one.
        handle = shard._open_validated(
            members, policy, strategy, resolved, prober, gid
        )
        self._next_id = max(self._next_id, gid + 1)
        return handle

    def _owner_of(self, session_id: int) -> Optional[int]:
        """The shard id actually holding ``session_id``, or ``None``."""
        for shard_id, shard in self._shards.items():
            try:
                shard.session(session_id)
            except UnknownSessionError:
                continue
            return shard_id
        return None

    def close_session(self, session_id: int) -> None:
        self._shard(session_id).close_session(session_id)

    def session(self, session_id: int) -> ServiceSession:
        return self._shard(session_id).session(session_id)

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

        A fresh :class:`~repro.service.MPNService` joins under a
        never-used shard id, serving the same epoch-shared spaces.
        Consistent hashing moves only ~``1/(n+1)`` of the sessions —
        all of them *to* the newcomer (see
        :class:`~repro.cluster.hashring.HashRing`) — and each moves
        through the :class:`~repro.service.api.SessionSnapshot` codec:
        members, meeting point, safe regions and per-session counters
        resume verbatim, probers ride along in-process.  Migration
        recomputes nothing and charges nothing, so the fleet's
        notification stream is bit-identical to a run that never
        resharded.  Returns the new shard's id.
        """
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        service = MPNService(
            self._shared_spaces["default"], batched=self.batched
        )
        for name, shared in self._shared_spaces.items():
            if name != "default":
                service.add_space(name, shared)
        new_ring = self._ring.copy()
        new_ring.add_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        self._migrate(moved, {shard_id: service})
        self._shards[shard_id] = service
        self._ring = new_ring
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire one shard, migrating its sessions to the survivors.

        Consistent hashing guarantees only the departing shard's
        sessions move — each to whichever survivor the ring hands it.
        The retiring shard's aggregate counters fold into the cluster's
        retired-metrics ledger, so :attr:`metrics` stays exact across
        the reshard.  Refuses to remove the last shard.
        """
        if shard_id not in self._shards:
            raise ValueError(f"no shard {shard_id}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        new_ring = self._ring.copy()
        new_ring.remove_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        self._migrate(moved, {})
        retiring = self._shards.pop(shard_id)
        self._retired.merge(retiring.metrics)
        self._load_baselines.pop(shard_id, None)
        self._ring = new_ring

    def _migrate(
        self,
        moved: dict[int, tuple[int, int]],
        joining: dict[int, MPNService],
    ) -> None:
        """Move each session in the plan through the snapshot codec.

        ``joining`` holds not-yet-installed target shards (the
        add_shard case).  Export → import → close: the session is
        never absent (the old shard serves it until the import
        lands), and the ring is committed only after every move — a
        failed migration leaves routing on the old topology.
        """
        for session_id in sorted(moved):
            source_id, target_id = moved[session_id]
            source = self._shards[source_id]
            target = joining.get(target_id) or self._shards[target_id]
            prober = source.session(session_id).prober
            target.import_session(
                source.export_session(session_id), prober=prober
            )
            source.close_session(session_id)

    def export_session(self, session_id: int) -> SessionSnapshot:
        """Snapshot one session off whichever shard actually holds it."""
        owner = self._owner_of(session_id)
        if owner is None:
            raise UnknownSessionError(session_id)
        return self._shards[owner].export_session(session_id)

    def import_session(
        self, snapshot: SessionSnapshot, prober: Optional[Prober] = None
    ) -> None:
        """Install a migrated session on its ring-routed owner shard."""
        if self._owner_of(snapshot.session_id) is not None:
            raise ValueError(
                f"session id {snapshot.session_id} is already in use"
            )
        self._shard(snapshot.session_id).import_session(
            snapshot, prober=prober
        )
        self._next_id = max(self._next_id, snapshot.session_id + 1)

    def shard_snapshot(self, shard_id: int) -> ServiceSnapshot:
        """One whole shard as a failover envelope (a read; see
        :meth:`repro.service.MPNService.snapshot`)."""
        return self.shard(shard_id).snapshot()

    def restore_shard(
        self,
        shard_id: int,
        snapshot: ServiceSnapshot,
        probers: Optional[dict[int, Prober]] = None,
    ) -> list[int]:
        """Replay a shard snapshot into ``shard_id`` (e.g. a fresh
        replacement after a failover); returns the restored ids."""
        restored = self.shard(shard_id).restore(snapshot, probers)
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

    def validate_events(self, events: Sequence[ReportEvent]) -> None:
        """All-or-nothing validation across every involved shard."""
        for shard_index, shard_events in self._split_events(events):
            self._shards[shard_index].validate_events(
                [event for _, event in shard_events]
            )

    def _split_events(
        self, events: Sequence[ReportEvent]
    ) -> list[tuple[int, list[tuple[int, ReportEvent]]]]:
        """Events per shard, keeping each event's request-order index."""
        split: dict[int, list[tuple[int, ReportEvent]]] = {}
        for index, event in enumerate(events):
            shard_index = self._ring.shard_for(event.session_id)
            split.setdefault(shard_index, []).append((index, event))
        return sorted(split.items())

    def report_many(
        self, events: Sequence[ReportEvent]
    ) -> list[Optional[Notification]]:
        """A fleet wave through the shards, answer-identical to one service.

        Every shard validates its sub-batch before any shard executes —
        a bad event anywhere leaves the whole cluster untouched, the
        single-service all-or-nothing contract.  Then each shard serves
        its sub-wave (events in request order, so per-session sequential
        semantics hold and the PR-3 intra-shard batching applies), and
        results land back in request order.
        """
        events = list(events)
        split = self._split_events(events)
        for shard_index, shard_events in split:
            self._shards[shard_index].validate_events(
                [event for _, event in shard_events]
            )
        out: list[Optional[Notification]] = [None] * len(events)
        for shard_index, shard_events in split:
            notifications = self._shards[shard_index]._serve_wave(
                [event for _, event in shard_events]
            )
            for (index, _), notification in zip(shard_events, notifications):
                out[index] = notification
        return out

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

    # ------------------------------------------------------------------
    # Dynamic POI updates
    # ------------------------------------------------------------------

    def update_pois(
        self,
        adds: Sequence[tuple[Point, object]] = (),
        removes: Sequence[tuple[Point, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        """Apply one churn batch once, then re-notify every shard.

        The batch hits the epoch-shared space's index exactly once at
        the front door — the index's delta layer validates the whole
        batch before mutating, so a bad removal raises here and no
        shard ever observes a partial batch — and publishes one new
        epoch.  Each shard then runs only its own Lemma-1 invalidation
        sweep (:meth:`~repro.service.MPNService.renotify_pois`); the
        merged notifications come back in ascending session order —
        the order a single service emits.
        """
        _require_space_ref(space)
        # One-shot iterables must feed the index and every shard alike.
        adds, removes = tuple(adds), tuple(removes)
        target = self._front_shard()._resolve_space(space)
        target.bulk_update(adds, removes)
        notifications: list[Notification] = []
        for shard in self.shards:
            notifications.extend(
                shard.renotify_pois(adds=adds, removes=removes, space=space)
            )
        notifications.sort(key=lambda n: n.session_id)
        return notifications

    def add_poi(
        self, p: Point, payload=None, space=None
    ) -> list[Notification]:
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
        """Cluster-wide counters: the merge of every shard's aggregate.

        Every message and recomputation is charged on exactly one
        shard, so this equals the single-service aggregate counter for
        counter (wall-clock seconds excepted — work runs on different
        schedules).  Removed shards' aggregates stay merged in (their
        traffic was served).  Computed fresh per read; mutate shard
        metrics, not this.
        """
        merged = SimulationMetrics()
        merged.merge(self._retired)
        for shard in self._shards.values():
            merged.merge(shard.metrics)
        return merged

    def shard_metrics(self) -> list[SimulationMetrics]:
        """Each shard's own service-wide aggregate, in shard-id order."""
        return [shard.metrics for shard in self.shards]

    def oracle_stats(self) -> dict[str, dict]:
        """Distance-oracle counters per shared road-network space.

        Read off the cluster's :class:`~repro.space.SharedSpace`
        registry rather than any one shard: every shard serves the
        same epoch-published space, whose replicas all share one
        :class:`~repro.index.oracle.DistanceOracle` — so these
        counters are the whole cluster's cache, counted once (the
        satellite invariant ``tests/test_oracle.py`` pins down).
        """
        out: dict[str, dict] = {}
        for name in sorted(self._shared_spaces):
            index = getattr(self._shared_spaces[name], "index", None)
            oracle = getattr(index, "oracle", None)
            if oracle is not None:
                out[name] = oracle.stats()
        return out

    def shard_loads(self) -> list[ShardLoad]:
        """Per-shard load since the previous read (see
        :mod:`repro.cluster.load`)."""
        return collect_shard_loads(self._shards, self._load_baselines)

    def hot_shards(self, threshold: float = 2.0) -> list[int]:
        """Shard ids serving > ``threshold`` × the mean load since the
        last :meth:`shard_loads` read — candidates for a split."""
        return hot_shards(self.shard_loads(), threshold)
