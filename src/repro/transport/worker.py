"""Multi-process shard workers and the :class:`ProcessCluster` front door.

:class:`repro.cluster.MPNCluster` shards sessions across services *in
one process*; this module puts each shard in its **own OS process**
behind the wire server — the deployment shape the in-process cluster
was rehearsing for.  Each worker process builds its shard's space from
a picklable zero-argument factory, wraps it in an epoch-published
:class:`repro.space.SharedSpace`, and serves a
:class:`~repro.service.MPNService` through a
:class:`~repro.transport.server.WireServer` on an OS-assigned port —
dispatching each request on the thread that read it (the server's
concurrency model), so a round-trip pays no thread hand-off inside the
worker.

:class:`ProcessCluster` is the front door: it mirrors
:class:`~repro.cluster.MPNCluster`'s routing exactly — the same
consistent-hash ring over the same cluster-assigned session ids — but
every hop is a wire round-trip through a per-shard
:class:`~repro.transport.client.RemoteBackend`.  Fan-out semantics
match the in-process cluster:

* **Waves** (:meth:`report_many`) are validated *at the front door*,
  against the session sizes the per-shard backends already hold
  client-side
  (:func:`~repro.service.messages.validate_report_events`, the checks
  :meth:`MPNService.validate_events` runs) — a bad event anywhere
  raises before any worker hears anything, the single-service
  all-or-nothing contract.  The wave is then **scattered and
  gathered**: every involved worker is sent its sub-batch before any
  reply is read, so the workers compute at the same time and the wave
  costs one concurrent round-trip, not one per shard.
* **POI churn** (:meth:`update_pois`) validates the whole batch
  against the front door's local mirror first (the index's delta layer
  raises on a bad removal before any worker hears anything), then fans
  the batch to *every* worker the same submit-all/gather-all way; each
  applies it to its own replica — one ``bulk_update``, hence exactly
  one new :class:`~repro.space.SharedSpace` epoch per worker per batch
  — and runs its own Lemma-1 re-notification sweep, overlapping its
  siblings'.  Merged notifications come back in ascending session
  order, as a single service emits them.
* **Closes** do not wait: the shard backend drops its client-side
  state, sends the frame and parks the acknowledgement, which the next
  call on that worker's connection reads first
  (:meth:`RemoteBackend.close_session
  <repro.transport.client.RemoteBackend.close_session>`).
* **Metrics** merge across workers exactly as shard metrics merge
  in-process — retired workers' aggregates included (their traffic was
  served).

Workers are **replicas by construction**: every process calls the same
factory, so the factories must be deterministic (build from literal
data or a seeded generator).  That is what makes mirror-side batch
validation sound and keeps cluster answers bit-identical to a single
service — proven over the wire by ``tests/test_wire_equivalence.py``.

Elastic operations
------------------

:meth:`ProcessCluster.add_shard` spawns a **fresh worker process**
mid-run: the newcomer builds its replica from the factory, replays the
cluster's accumulated churn log (each ``update_pois`` batch, in order,
so its index — and its epoch counter — catches up with the incumbents;
the log grows with churn, the price of factory-built replicas), and
then receives exactly the ring's minimal remap set of sessions through
the ``export_session`` / ``import_session`` control ops.
:meth:`ProcessCluster.remove_shard` is the reverse: the departing
worker's sessions migrate to the survivors, its aggregate counters
fold into the cluster's retired ledger, and the process drains and
exits.  Migration installs snapshots verbatim — no recomputation, no
metric charges — so a fleet replayed across a reshard emits
bit-identical notifications (``tests/test_elastic_equivalence.py``).

Shutdown (:meth:`ProcessCluster.close`) is drain-and-stop: each worker
acknowledges the ``shutdown`` control op, finishes its in-flight
requests, closes its listener, and exits 0; the front door then joins
the processes.  A worker that outlives the timeout is terminated, and
any terminated or non-zero exit is surfaced as a
:class:`WorkerShutdownError` (pass ``raise_on_error=False`` for a
best-effort close); ``close`` is idempotent either way.  Worker spawn,
readiness and exit codes are logged on ``repro.transport``.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.cluster.hashring import HashRing
from repro.cluster.load import ShardLoad, collect_shard_loads, hot_shards
from repro.service.api import (
    Request,
    Response,
    ServiceSnapshot,
    SessionSnapshot,
    dispatch_request,
)
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
    validate_report_events,
)
from repro.service.session import Prober
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy
from repro.space import Space, share_space
from repro.transport.client import RemoteBackend
from repro.transport.framing import DEFAULT_MAX_FRAME_BYTES
from repro.transport.server import DEFAULT_MAX_INFLIGHT

SpaceFactory = Callable[[], Space]
T = TypeVar("T")

log = logging.getLogger("repro.transport")


class WorkerShutdownError(RuntimeError):
    """One or more worker processes failed to drain cleanly.

    ``exitcodes`` maps shard id to the process's final exit code —
    negative for a signal (``-15`` = had to be terminated after
    outliving the drain timeout), positive for a worker that exited
    with an error of its own.
    """

    def __init__(self, exitcodes: dict[int, Optional[int]]):
        self.exitcodes = dict(exitcodes)
        detail = ", ".join(
            f"worker {shard_id}: exit code {code}"
            for shard_id, code in sorted(self.exitcodes.items())
        )
        super().__init__(f"workers failed to drain cleanly ({detail})")


@dataclass(frozen=True)
class UniformPoiSpaceFactory:
    """A picklable, deterministic space factory: seeded uniform POIs.

    Worker processes are spawned, so their space factories must pickle
    — a lambda closing over a POI list does not.  This one carries only
    literals; every call (each worker, the front door's mirror, an
    in-process twin in an equivalence test) rebuilds the identical
    tree, which is exactly the replicas-by-construction contract.
    """

    n_pois: int = 300
    seed: int = 7
    world: tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0)

    def __call__(self) -> Space:
        from repro.geometry.rect import Rect
        from repro.space import as_space
        from repro.workloads.poi import build_poi_tree, uniform_pois

        x0, y0, x1, y1 = self.world
        pois = uniform_pois(self.n_pois, Rect(x0, y0, x1, y1), seed=self.seed)
        return as_space(build_poi_tree(pois))


@dataclass(frozen=True)
class GridNetworkSpaceFactory:
    """Picklable road-network replica: perturbed grid + seeded POI nodes."""

    grid_size: int = 5
    seed: int = 33
    n_pois: int = 10
    poi_seed: int = 1

    def __call__(self) -> Space:
        import random

        from repro.network_ext.space import NetworkSpace
        from repro.space.network import NetworkPOISpace

        net = NetworkSpace.from_grid(grid_size=self.grid_size, seed=self.seed)
        rng = random.Random(self.poi_seed)
        pois = rng.sample(list(net.graph.nodes), self.n_pois)
        return NetworkPOISpace(net, pois)


def _worker_main(
    shard_index: int,
    factory: SpaceFactory,
    extra_factories: dict[str, SpaceFactory],
    batched: bool,
    host: str,
    ready_queue,
    max_frame_bytes: int,
    max_inflight: int,
    request_timeout: Optional[float],
) -> None:  # pragma: no cover - runs in a child process
    """One shard: build the replica space, serve it, drain on shutdown."""
    import asyncio

    from repro.service.service import MPNService
    from repro.transport.server import WireServer

    try:
        service = MPNService(share_space(factory()), batched=batched)
        for name, extra in extra_factories.items():
            service.add_space(name, share_space(extra()))
        server = WireServer(
            service,
            host=host,
            port=0,
            max_frame_bytes=max_frame_bytes,
            max_inflight=max_inflight,
            request_timeout=request_timeout,
        )

        async def main() -> None:
            address = await server.start()
            ready_queue.put((shard_index, address))
            await server.serve_forever()

        asyncio.run(main())
    except Exception as exc:
        ready_queue.put((shard_index, exc))
        raise


def _require_space_ref(space: Union[None, str, Space]) -> Optional[str]:
    if space is None or isinstance(space, str):
        return space
    raise ValueError(
        "cluster spaces are per-worker replicas; register the space by "
        "name (extra_spaces=...) and reference it by that name"
    )


def _reap(shard_id: int, process, timeout: float, failed: dict) -> None:
    """Join a draining worker; one that had to be terminated, or exited
    non-zero, lands in ``failed`` with its exit code."""
    process.join(timeout=timeout)
    outlived = process.is_alive()
    if outlived:
        process.terminate()
        process.join(timeout=10)
    log.info("worker %d exited with code %s", shard_id, process.exitcode)
    if outlived or process.exitcode not in (0, None):
        failed[shard_id] = process.exitcode


def _scatter_gather(submits: Sequence[Callable[[], Callable[[], T]]]) -> list[T]:
    """Run every ``submit`` (each sends one request and returns the
    function that reads its reply), *then* read the replies, in order.

    Every reply that was asked for is read before the first error — in
    ``submits`` order — is raised, so a failure on one connection never
    leaves an unread frame on another.
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


class ProcessCluster:
    """A sharded ``ServiceBackend`` over worker *processes* on the wire.

    ``space_factory`` (and each ``extra_spaces`` value) must be a
    picklable zero-argument callable building the shard's space — a
    module-level function or :func:`functools.partial`, not a lambda:
    workers are spawned, and each one (plus the front door's local
    mirror, plus any worker :meth:`add_shard` spawns later) calls it
    once.  ``ring_replicas`` defaults to
    :class:`~repro.cluster.MPNCluster`'s, so both front doors route any
    given session id to the same shard index.  ``request_timeout``
    (default: none) bounds every worker dispatch at the price of a
    thread hop per request, ~0.2 ms — see
    :mod:`repro.transport.server`'s concurrency model.

    The front door also keeps client-side session state (probers, the
    mirror space for region decoding) through its per-shard
    :class:`~repro.transport.client.RemoteBackend` objects, so
    :func:`repro.simulation.run_service` drives a process cluster
    exactly like an in-process backend.
    """

    def __init__(
        self,
        num_shards: int,
        space_factory: SpaceFactory,
        *,
        extra_spaces: Optional[dict[str, SpaceFactory]] = None,
        batched: bool = True,
        ring_replicas: int = 64,
        host: str = "127.0.0.1",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: Optional[float] = None,
        spawn_timeout: float = 120.0,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        # Spawn configuration is kept verbatim: add_shard() boots late
        # workers with exactly the parameters the incumbents got.
        self.batched = batched
        self._space_factory = space_factory
        self._extra_spaces = dict(extra_spaces or {})
        self._host = host
        self._max_frame_bytes = max_frame_bytes
        self._max_inflight = max_inflight
        self._request_timeout = request_timeout
        self._spawn_timeout = spawn_timeout
        # The front door's own replica: answers ``.space`` /
        # ``get_space`` reads locally and validates every churn batch
        # before any worker sees it.
        self._mirror = share_space(space_factory())
        self._mirrors: dict[str, Space] = {"default": self._mirror}
        for name, factory in self._extra_spaces.items():
            self._mirrors[name] = share_space(factory())
        self._ring = HashRing(range(num_shards), replicas=ring_replicas)
        self._next_id = 0
        self._next_shard_id = num_shards  # shard ids are never recycled
        self._closed = False
        # Every accepted churn batch, in order — the catch-up feed a
        # late-spawned worker replays so its factory-built replica
        # reaches the cluster's live POI set (and epoch count).
        self._churn_log: list[tuple[tuple, tuple, Optional[str]]] = []
        self._retired = SimulationMetrics()
        self._load_baselines: dict[int, tuple[int, int]] = {}

        spawned = self._spawn_workers(list(range(num_shards)))
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._all_processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._shards: dict[int, RemoteBackend] = {}
        for shard_id, (process, address) in spawned.items():
            self._processes[shard_id] = process
            self._all_processes[shard_id] = process
            self._shards[shard_id] = self._connect(address)

    def _spawn_workers(
        self, shard_ids: Sequence[int]
    ) -> dict[int, tuple]:
        """Boot one worker process per id; returns ``{id: (process,
        address)}``.  All-or-nothing: a worker failing to start
        terminates every sibling spawned by this call."""
        ctx = multiprocessing.get_context("spawn")
        ready_queue = ctx.Queue()
        processes: dict[int, multiprocessing.process.BaseProcess] = {}
        for shard_id in shard_ids:
            process = ctx.Process(
                target=_worker_main,
                args=(
                    shard_id,
                    self._space_factory,
                    self._extra_spaces,
                    self.batched,
                    self._host,
                    ready_queue,
                    self._max_frame_bytes,
                    self._max_inflight,
                    self._request_timeout,
                ),
                daemon=True,
                name=f"mpn-worker-{shard_id}",
            )
            process.start()
            log.info("worker %d spawned (pid %s)", shard_id, process.pid)
            processes[shard_id] = process
        addresses: dict[int, tuple[str, int]] = {}
        try:
            for _ in shard_ids:
                shard_id, payload = ready_queue.get(
                    timeout=self._spawn_timeout
                )
                if isinstance(payload, Exception):
                    raise RuntimeError(
                        f"worker {shard_id} failed to start: {payload}"
                    ) from payload
                addresses[shard_id] = tuple(payload)
                log.info("worker %d ready on %s:%d", shard_id, *payload)
        except Exception:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10)
            raise
        return {i: (processes[i], addresses[i]) for i in shard_ids}

    def _connect(self, address: tuple[str, int]) -> RemoteBackend:
        # Every shard backend shares the front door's mirrors (regions
        # decode against them) but must NOT apply churn to them — the
        # front door applies each batch to the mirror exactly once.
        return RemoteBackend(
            *address,
            spaces=self._mirrors,
            max_frame_bytes=self._max_frame_bytes,
            mirror_updates=False,
        )

    # ------------------------------------------------------------------
    # Topology + lifecycle
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[RemoteBackend, ...]:
        """The per-worker wire backends in shard-id order (read them,
        don't route around).  Ids are stable but not necessarily
        contiguous after a ``remove_shard``; use :meth:`shard` to
        address one by id."""
        return tuple(self._shards[i] for i in sorted(self._shards))

    def shard_ids(self) -> list[int]:
        """Current shard ids, ascending."""
        return sorted(self._shards)

    def shard(self, shard_id: int) -> RemoteBackend:
        """The wire backend serving ``shard_id``."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ValueError(f"no shard {shard_id}") from None

    def shard_for(self, session_id: int) -> int:
        return self._ring.shard_for(session_id)

    def _shard(self, session_id: int) -> RemoteBackend:
        return self._shards[self._ring.shard_for(session_id)]

    def close(self, timeout: float = 30.0, raise_on_error: bool = True) -> None:
        """Drain-and-stop every worker, then join the processes.

        Idempotent — the second call is a no-op.  A worker that
        outlives ``timeout`` is terminated; terminated or non-zero
        exits are raised as :class:`WorkerShutdownError` (carrying the
        per-shard exit codes) unless ``raise_on_error`` is false.
        """
        if self._closed:
            return
        self._closed = True
        late_ack: Optional[Exception] = None
        for shard in self._shards.values():
            try:
                shard.shutdown_server()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            except Exception as exc:
                # A parked close ack that failed surfaces on this, the
                # connection's last call; every worker still drains.
                late_ack = late_ack or exc
            shard.close()
        failed: dict[int, Optional[int]] = {}
        for shard_id in sorted(self._processes):
            _reap(shard_id, self._processes[shard_id], timeout, failed)
        if failed and raise_on_error:
            raise WorkerShutdownError(failed)
        if late_ack is not None and raise_on_error:
            raise late_ack

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A shutdown report must not mask an exception already in
        # flight; on the clean path it raises like a direct close().
        self.close(raise_on_error=exc_type is None)

    def worker_exitcodes(self) -> list[Optional[int]]:
        """Exit codes of every worker ever spawned, in shard-id order —
        retired shards included; all zero after graceful drains."""
        return [
            self._all_processes[shard_id].exitcode
            for shard_id in sorted(self._all_processes)
        ]

    # ------------------------------------------------------------------
    # Elastic operations: live reshard, migration, snapshots
    # ------------------------------------------------------------------

    def add_shard(self) -> int:
        """Grow the cluster by one **worker process**, migrating live.

        The newcomer builds its replica from the factory, replays the
        churn log (so its POI set and epoch counter match the
        incumbents), and receives the ring's minimal remap set — every
        moved session crosses the wire as a
        :class:`~repro.service.api.SessionSnapshot` and resumes
        verbatim on the new worker, prober and mirror state moving
        along client-side.  Returns the new shard's id.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        ((process, address),) = self._spawn_workers([shard_id]).values()
        backend = self._connect(address)
        for adds, removes, space in self._churn_log:
            backend.update_pois(adds=adds, removes=removes, space=space)
        new_ring = self._ring.copy()
        new_ring.add_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        self._migrate(moved, {shard_id: backend})
        self._processes[shard_id] = process
        self._all_processes[shard_id] = process
        self._shards[shard_id] = backend
        self._ring = new_ring
        return shard_id

    def remove_shard(self, shard_id: int, timeout: float = 30.0) -> None:
        """Retire one worker process, migrating its sessions out first.

        Only the departing shard's sessions move (the consistent-hash
        guarantee); its aggregate counters fold into the retired
        ledger so cluster metrics stay exact.  The worker then drains
        gracefully; a terminated or non-zero exit raises
        :class:`WorkerShutdownError` *after* the topology change — the
        cluster keeps serving on the survivors either way.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        if shard_id not in self._shards:
            raise ValueError(f"no shard {shard_id}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        new_ring = self._ring.copy()
        new_ring.remove_shard(shard_id)
        moved = new_ring.moved_keys(self._ring, self.session_ids())
        retiring = self._shards[shard_id]
        self._migrate(moved, {})
        self._retired.merge(retiring.metrics)
        del self._shards[shard_id]
        self._load_baselines.pop(shard_id, None)
        self._ring = new_ring
        self._drain_worker(shard_id, retiring, timeout)

    def _drain_worker(
        self, shard_id: int, backend: RemoteBackend, timeout: float
    ) -> None:
        try:
            backend.shutdown_server()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        backend.close()
        failed: dict[int, Optional[int]] = {}
        _reap(shard_id, self._processes.pop(shard_id), timeout, failed)
        if failed:  # pragma: no cover - drain failures
            raise WorkerShutdownError(failed)

    def _migrate(
        self,
        moved: dict[int, tuple[int, int]],
        joining: dict[int, RemoteBackend],
    ) -> None:
        """Hand each session in the plan from its old worker to its new
        one (``joining`` holds not-yet-installed backends)."""
        for session_id in sorted(moved):
            source_id, target_id = moved[session_id]
            source = self._shards[source_id]
            target = joining.get(target_id) or self._shards[target_id]
            source.handoff_session(session_id, target)

    def export_session(self, session_id: int) -> SessionSnapshot:
        """Snapshot one session off its ring-routed worker (a read)."""
        return self._shard(session_id).export_session(session_id)

    def import_session(
        self, snapshot: SessionSnapshot, prober: Optional[Prober] = None
    ) -> None:
        """Install a migrated session on its ring-routed worker."""
        self._shard(snapshot.session_id).import_session(
            snapshot, prober=prober
        )
        self._next_id = max(self._next_id, snapshot.session_id + 1)

    def shard_snapshot(self, shard_id: int) -> ServiceSnapshot:
        """One whole worker as a failover envelope (a read)."""
        return self.shard(shard_id).snapshot()

    def restore_shard(
        self,
        shard_id: int,
        snapshot: ServiceSnapshot,
        probers: Optional[dict[int, Prober]] = None,
    ) -> list[int]:
        """Replay a shard snapshot into ``shard_id``'s worker."""
        restored = self.shard(shard_id).restore(snapshot, probers)
        for session_id in restored:
            self._next_id = max(self._next_id, session_id + 1)
        return restored

    # ------------------------------------------------------------------
    # Spaces
    # ------------------------------------------------------------------

    @property
    def space(self) -> Space:
        return self._mirror

    def get_space(self, name: str = "default") -> Space:
        try:
            return self._mirrors[name]
        except KeyError:
            raise ValueError(
                f"no mirror for space {name!r}; build the cluster with "
                "extra_spaces={...}"
            ) from None

    def space_names(self) -> list[str]:
        return sorted(self._mirrors)

    def worker_epochs(self, name: str = "default") -> list[object]:
        """Each worker's published epoch for the named shared space."""
        return [shard.space_epoch(name) for shard in self.shards]

    # ------------------------------------------------------------------
    # The wire face
    # ------------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        return dispatch_request(self, request)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open_session(
        self,
        members: Sequence[Union[MemberState, object]],
        policy: Policy,
        prober: Optional[Prober] = None,
        space: Union[None, str, Space] = None,
        session_id: Optional[int] = None,
    ) -> SessionHandle:
        _require_space_ref(space)
        gid = self._next_id if session_id is None else session_id
        owner_id = self._ring.shard_for(gid)
        # Topology-aware duplicate detection: the ring's current owner
        # rejects duplicates server-side, but a reshard (or a failover
        # restore) may have parked the original on another worker —
        # the shard backends' client-side registries know, for free.
        if session_id is not None and any(
            shard.owns_session(gid)
            for shard_id, shard in self._shards.items()
            if shard_id != owner_id
        ):
            raise ValueError(f"session id {gid} is already in use")
        handle = self._shards[owner_id].open_session(
            members, policy, prober=prober, space=space, session_id=gid
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
    # The event protocol
    # ------------------------------------------------------------------

    def report(
        self,
        session_id: int,
        member_id: int,
        point,
        heading: Optional[float] = None,
        theta: Optional[float] = None,
        probes: Optional[Sequence[tuple[int, MemberState]]] = None,
    ) -> Optional[Notification]:
        return self._shard(session_id).report(
            session_id, member_id, point, heading, theta, probes=probes
        )

    def update_locations(
        self, session_id: int, members: Sequence[Union[MemberState, object]]
    ) -> Notification:
        return self._shard(session_id).update_locations(session_id, members)

    def report_many(
        self, events: Sequence[ReportEvent]
    ) -> list[Optional[Notification]]:
        """A fleet wave across the workers, single-service-equivalent.

        The whole wave is validated here first, in request order,
        against the group sizes the shard backends hold client-side —
        an unknown session or an out-of-range member or probe id raises
        what :meth:`MPNService.validate_events` would, before any
        worker (or prober) hears anything: the cross-shard
        all-or-nothing contract of :class:`~repro.cluster.MPNCluster`
        at no wire cost.  Every involved worker is then sent its
        sub-batch before any reply is read, so the workers serve the
        wave concurrently; replies are gathered in shard order and
        results land back in request order.
        """
        events = list(events)
        split: dict[int, list[int]] = {}
        owner: dict[int, RemoteBackend] = {}
        for index, event in enumerate(events):
            shard_id = self._ring.shard_for(event.session_id)
            split.setdefault(shard_id, []).append(index)
            owner[event.session_id] = self._shards[shard_id]
        validate_report_events(
            events,
            lambda session_id: owner[session_id].session_size(session_id),
        )
        ordered = sorted(split.items())
        answers = _scatter_gather(
            [
                functools.partial(
                    self._shards[shard_id].submit_report_many,
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
        adds: Sequence[tuple[object, object]] = (),
        removes: Sequence[tuple[object, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        """One churn batch: validate on the mirror, fan to every worker.

        The front door's mirror replica absorbs the batch first — its
        delta layer validates all-or-nothing, so a bad removal raises
        here and no worker ever observes a partial batch (workers are
        replicas of the mirror, so what the mirror accepts they
        accept).  Every worker is then sent the batch before any reply
        is read; each applies it to its own index — bumping its shared
        space's epoch exactly once — and re-notifies its own
        invalidated sessions while its siblings do the same.  Accepted
        batches also land in the churn log that catches up
        late-spawned workers (:meth:`add_shard`).  Merged notifications
        come back in ascending session order.
        """
        name = _require_space_ref(space)
        # One-shot iterables must feed the mirror, the churn log and
        # every worker alike, or the replicas diverge.
        adds, removes = tuple(adds), tuple(removes)
        mirror = self.get_space(name or "default")
        mirror.bulk_update(adds, removes)
        self._churn_log.append((adds, removes, name))
        answers = _scatter_gather(
            [
                functools.partial(
                    shard.submit_update_pois, adds, removes, space
                )
                for shard in self.shards
            ]
        )
        return sorted(
            (n for notifications in answers for n in notifications),
            key=lambda n: n.session_id,
        )

    def add_poi(self, p, payload=None, space=None) -> list[Notification]:
        return self.update_pois(adds=[(p, payload)], space=space)

    def remove_poi(self, p, payload=None, space=None) -> list[Notification]:
        return self.update_pois(removes=[(p, payload)], space=space)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> SimulationMetrics:
        """Cluster-wide counters: every worker's aggregate merged,
        retired workers' aggregates included."""
        merged = SimulationMetrics()
        merged.merge(self._retired)
        for shard in self._shards.values():
            merged.merge(shard.metrics)
        return merged

    def shard_metrics(self) -> list[SimulationMetrics]:
        return [shard.metrics for shard in self.shards]

    def shard_loads(self) -> list[ShardLoad]:
        """Per-worker load since the previous read (see
        :mod:`repro.cluster.load`)."""
        return collect_shard_loads(self._shards, self._load_baselines)

    def hot_shards(self, threshold: float = 2.0) -> list[int]:
        """Worker shard ids serving > ``threshold`` × the mean load
        since the last :meth:`shard_loads` read."""
        return hot_shards(self.shard_loads(), threshold)

    def server_stats(self) -> list[dict]:
        """Each worker's transport-level stats, in shard-id order."""
        return [shard.server_stats() for shard in self.shards]
