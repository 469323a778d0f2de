"""CSR-packed road-network POI index with bulk distance kernels.

The network analogue of the flat R-tree: where the Euclidean backend
packs POI coordinates into structure-of-arrays and answers GNN queries
with vectorized frontier kernels, this index reads the road graph's
CSR packing off the space's shared
:class:`~repro.index.oracle.DistanceOracle`, buckets the POIs by the
graph node they sit on, and answers aggregate nearest-neighbor queries
from *bulk* shortest-path distance rows:

* one SciPy Dijkstra run per distinct anchor node, cached in the
  oracle's byte-budgeted LRU — users sliding along an edge keep their
  endpoint anchors, and POI updates never invalidate distances;
* per-user node-distance rows combined from the anchor rows with one
  ``np.minimum`` pass;
* POI scores gathered and aggregated across users in NumPy — for one
  group or a whole fleet wave of them in the same pass
  (:meth:`NetworkIndex.gnn_many`);
* at city scale (or when forced through
  :class:`~repro.index.oracle.OracleConfig`), an ALT landmark pass
  first: triangle-inequality lower/upper bounds from ~16 pinned
  landmark rows discard almost every POI, and only the survivors are
  scored exactly from bounded-radius Dijkstra runs.  Pruning never
  changes answers — both paths produce bit-identical results.

The results are bit-identical to the brute-force reference
(:func:`repro.network_ext.gnn.network_gnn`): the same additions in the
same order, the same min-over-anchors, the same ``(distance,
str(poi))`` tie-break.  ``benchmarks/test_micro_network_gnn.py`` holds
the kernel to a >=3x speedup over that reference at 10k-edge /
5k-POI scale, and ``benchmarks/test_micro_citynet.py`` holds the ALT
path to a >=3x speedup over the exact full-row path at 100k-edge
scale under a hard row-cache byte ceiling.

POIs are graph nodes (real POI datasets are map-matched to the road
graph, matching the rest of :mod:`repro.network_ext`).  Churn flows
through the same :class:`~repro.index.entries.DeltaLayer` as the flat
R-tree's — tombstones, an insert arena and a node -> live-ids map —
and the index keeps only the POIs' node ids and the slot view
(:meth:`NetworkIndex._poi_slots`) its kernels read.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.index.entries import DEFAULT_DELTA_FRACTION, DeltaLayer
from repro.index.oracle import OracleConfig, oracle_for, padded_cutoff

# Ceiling on one chunk of stacked ``users x nodes`` float64 rows (per
# anchor plane) in :meth:`NetworkIndex.gnn_scan`: per-group cost is flat
# from a dozen groups up, so a larger stack buys nothing, and a
# 2,000-session wave on a 10k-node graph must not allocate hundreds of
# MiB at once.
_STACK_BYTES = 8 * 1024 * 1024


class NetworkIndex:
    """Edge-weighted road graph + node-bucketed POIs, query-ready.

    ``space`` is a :class:`repro.network_ext.space.NetworkSpace` (or
    anything exposing ``graph`` and ``anchors``); the graph is packed
    once — into the space's shared :class:`DistanceOracle` — and
    assumed immutable afterwards, while the POI set mutates freely
    through :meth:`bulk_update` / :meth:`insert` / :meth:`delete`.
    All indexes over one space share that oracle's row cache and
    landmark rows; ``oracle_config`` tunes it on first construction.

    Queries come one group or many at a time through one kernel:
    :meth:`gnn_many` (and :meth:`gnn`, its one-group case) is
    answer-preserving — ``gnn_many(groups, k, agg) == [gnn(g, k, agg)
    for g in groups]``, equal to the brute-force reference bit for
    bit — and fetches every member's anchor rows with one
    :meth:`DistanceOracle.rows` call per chunk.  Two declines keep the
    oracle's modes intact: with ALT engaged each group goes to the
    landmark-pruned path first (full rows only for groups it
    declines), and with bounded rows engaged region builders ignore
    the full rows the kernel hands over and settle their own radius.
    A chunk stacks at most ``_STACK_BYTES`` (~8 MiB) of ``users x
    nodes`` float64 per anchor plane, however large the wave.
    """

    def __init__(
        self,
        space,
        pois: Sequence[Hashable] = (),
        payloads: Optional[Sequence[Any]] = None,
        delta_fraction: float = DEFAULT_DELTA_FRACTION,
        oracle_config: Optional[OracleConfig] = None,
    ):
        self.space = space
        self._delta = DeltaLayer(delta_fraction)
        # Maintenance counters, mirroring FlatRTree: full repacks vs
        # delta batches absorbed without one.
        self.build_count = 0
        self.delta_batches = 0
        self._oracle = oracle_for(space, oracle_config)
        self._nodes: list[Hashable] = self._oracle.nodes
        self._node_id: dict[Hashable, int] = self._oracle.node_id
        self._lm_slot_cache: Optional[tuple[np.ndarray, np.ndarray]] = None
        if payloads is None:
            payloads = [None] * len(pois)
        if len(payloads) != len(pois):
            raise ValueError("payloads length does not match pois")
        self._install(list(pois), list(payloads))

    @property
    def delta_fraction(self) -> float:
        return self._delta.delta_fraction

    @property
    def oracle(self):
        """The space's shared :class:`~repro.index.oracle.DistanceOracle`."""
        return self._oracle

    # ------------------------------------------------------------------
    # POI bookkeeping
    # ------------------------------------------------------------------

    def _install(self, nodes: list[Hashable], payloads: list[Any]) -> None:
        """Repack the POI store from scratch and reset the delta state."""
        self._check_nodes(nodes)
        self._delta.reset(nodes, payloads)
        self._poi_ids = np.asarray(
            [self._node_id[node] for node in nodes], dtype=np.int64
        )
        self._slot_cache: Optional[
            tuple[np.ndarray, Optional[np.ndarray]]
        ] = None
        self.build_count += 1

    def _check_nodes(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            if node not in self._node_id:
                raise ValueError(f"POI node {node!r} is not on the road graph")

    def __len__(self) -> int:
        return len(self._delta)

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return self._oracle.edge_count()

    def poi_nodes(self) -> list[Hashable]:
        """The live POI nodes in insertion order (duplicates preserved)."""
        return self._delta.live_items()[0]

    def items(self) -> list[tuple[Hashable, Any]]:
        """The live ``(node, payload)`` POI items, in insertion order."""
        return [self._delta.item(i) for i in self._delta.live_ids()]

    def pois_at(self, node: Hashable) -> list[Any]:
        """Payloads of the live POIs bucketed on ``node``."""
        return [self._delta.payloads[i] for i in self._delta.ids_at(node)]

    def insert(self, node: Hashable, payload: Any = None) -> None:
        self.bulk_update(adds=[(node, payload)])

    def delete(self, node: Hashable, payload: Any = None) -> bool:
        """Remove one POI at ``node`` (payload ``None`` matches any)."""
        try:
            self.bulk_update(removes=[(node, payload)])
        except KeyError:
            return False
        return True

    def bulk_update(
        self,
        adds: Sequence[tuple[Hashable, Any]] = (),
        removes: Sequence[tuple[Hashable, Any]] = (),
    ) -> None:
        """Apply a batch of POI inserts/deletes through the delta layer.

        Removals tombstone their slot and insertions land in the
        buffered arena; the packed store is rebuilt only when the delta
        debt crosses the ``delta_fraction`` threshold (0.0 = repack
        every batch).  Same all-or-nothing contract as the flat R-tree
        (:meth:`repro.index.entries.DeltaLayer.update`): add nodes are
        validated against the graph and every removal is matched
        before anything mutates, so an error for a bad entry leaves
        the index untouched.  Distance rows are unaffected — the road
        graph itself is immutable, so the shared oracle's caches
        survive every churn batch.
        """
        self._check_nodes(node for node, _ in adds)
        self._delta.update(adds, removes)
        self._slot_cache = None
        self.delta_batches += 1
        if self._delta.needs_repack():
            self.repack()

    def repack(self) -> None:
        """Fold all deltas into a freshly packed POI store."""
        self._install(*self._delta.live_items())

    def delta_debt(self) -> int:
        """Tombstones + arena slots — what the next repack would fold."""
        return self._delta.debt()

    def validate(self) -> None:
        """Check the delta invariants; raises AssertionError on breach."""
        if len(self._poi_ids) != self._delta.n_packed:
            raise AssertionError("node ids out of sync with packed slots")
        self._delta.validate()

    def _poi_slots(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``(node_ids, live_mask)`` over every POI slot, packed + arena.

        ``live_mask`` is ``None`` when no slot is tombstoned.  Cached
        until the next delta batch; the gnn kernel gathers distance
        columns for all slots and masks the dead ones to ``inf``.
        """
        if self._slot_cache is None:
            delta = self._delta
            ids = self._poi_ids
            mask = None if delta.n_dead == 0 else ~delta.tomb
            arena = delta.keys[delta.n_packed :]
            if arena:
                ids = np.concatenate(
                    [
                        ids,
                        np.asarray(
                            [self._node_id[n] for n in arena], dtype=np.int64
                        ),
                    ]
                )
                if delta.n_dead or delta.n_arena_dead:
                    mask = np.concatenate(
                        [~delta.tomb, np.asarray(delta.arena_alive, dtype=bool)]
                    )
            self._slot_cache = (ids, mask)
        return self._slot_cache

    # ------------------------------------------------------------------
    # Bulk shortest-path distance kernels
    # ------------------------------------------------------------------

    def user_node_distances(self, users: Sequence[object]) -> np.ndarray:
        """``[m, n_nodes]`` matrix of exact user-to-node distances.

        Row ``i`` is the anchor-combined distance map of user ``i``:
        ``min`` over the user's (node, offset) anchors of ``offset +
        row(node)`` — the same values the brute-force reference reads
        out of its per-anchor distance maps.  All anchor rows come
        from one :meth:`DistanceOracle.rows` call, whatever ``m`` is.
        """
        anchor_lists = [self.space.anchors(user) for user in users]
        width = max(map(len, anchor_lists))
        # Plane ``j`` holds every user's ``j``-th anchor; a user with
        # fewer repeats their last one: min(x, x) == x.
        picks = [
            anchors[min(j, len(anchors) - 1)]
            for j in range(width)
            for anchors in anchor_lists
        ]
        ids = [self._node_id[node] for node, _ in picks]
        rows = self._oracle.rows(ids)
        planes = np.concatenate([rows[i] for i in ids])
        planes = planes.reshape(width, len(users), -1)
        planes += np.array([d0 for _, d0 in picks]).reshape(width, len(users), 1)
        combined = planes[0]
        for j in range(1, width):
            np.minimum(combined, planes[j], out=combined)
        return combined

    # ------------------------------------------------------------------
    # Aggregate nearest neighbor
    # ------------------------------------------------------------------

    def gnn(
        self, users: Sequence[object], k: int = 1, agg: object = "max"
    ) -> list[tuple[float, Hashable]]:
        """The ``k`` best POI nodes by aggregate network distance.

        Drop-in for :func:`repro.network_ext.gnn.network_gnn` over this
        index's POI set: identical distances (the per-user aggregation
        runs in the same order with the same float operations) and the
        identical ``(distance, str(poi))`` tie-break.  ``agg`` is
        ``"max"`` / ``"sum"`` or an :class:`~repro.gnn.aggregate.Aggregate`.
        The one-group case of :meth:`gnn_many`.
        """
        return self.gnn_many([users], k, agg)[0]

    def gnn_many(
        self, groups: Sequence[Sequence[object]], k: int = 1, agg: object = "max"
    ) -> list[list[tuple[float, Hashable]]]:
        """:meth:`gnn` for every group, off one oracle-row gather and
        one scoring pass per chunk — ``[self.gnn(g, k, agg) for g in
        groups]``, bit for bit.  See :meth:`gnn_scan` for the contract.
        """
        out: list = [None] * len(groups)
        for i, answer, _ in self.gnn_scan(groups, k, agg):
            out[i] = answer
        return out

    def gnn_scan(
        self, groups: Sequence[Sequence[object]], k: int = 1, agg: object = "max"
    ) -> Iterator[tuple[int, list[tuple[float, Hashable]], Optional[np.ndarray]]]:
        """``(i, gnn(groups[i]), rows)`` for every group, in no fixed order.

        ``rows`` is the group's ``[m, n_nodes]`` user-to-node distance
        matrix (:meth:`user_node_distances`) when the exact full-row
        kernel scored the group — region builders reuse it instead of
        combining the anchor rows again — and ``None`` when the ALT
        path answered.  It is a view into the current chunk: consume it
        before advancing, so a chunk's matrix dies with its chunk.

        Raises what :meth:`gnn` raises (unknown aggregate, an empty
        group, an empty POI set) here, before any row is fetched;
        ``k <= 0`` yields ``[]`` for every group.  Groups may differ in
        size; each size is scored as its own rectangular batch.
        """
        agg_name = getattr(agg, "value", agg)
        if agg_name not in ("max", "sum"):
            raise ValueError(f"unknown aggregate: {agg!r}")
        if not all(groups):
            raise ValueError("user group must be non-empty")
        if not len(self):
            raise ValueError("POI set must be non-empty")
        return self._scan(groups, k, agg_name)

    def _scan(self, groups, k: int, agg_name: str):
        if k <= 0:
            for i in range(len(groups)):
                yield i, [], None
            return
        pending: Sequence[int] = range(len(groups))
        if k < len(self) and self._oracle.alt_active:
            # The landmark-pruned path first: it returns the provably
            # identical answer or declines onto the full-row kernel.
            slot_ids, live_mask = self._poi_slots()
            pending = []
            for i, users in enumerate(groups):
                answer = self._gnn_alt(users, k, k, agg_name, slot_ids, live_mask)
                if answer is None:
                    pending.append(i)
                else:
                    yield i, answer, None
        by_size: dict[int, list[int]] = {}
        for i in pending:
            by_size.setdefault(len(groups[i]), []).append(i)
        for m, members in by_size.items():
            step = max(1, _STACK_BYTES // (8 * len(self._nodes) * m))
            for lo in range(0, len(members), step):
                chunk = members[lo : lo + step]
                rows = self.user_node_distances(
                    [user for i in chunk for user in groups[i]]
                )
                answers = self._score(rows, m, k, agg_name)
                for j, i in enumerate(chunk):
                    yield i, answers[j], rows[j * m : (j + 1) * m]

    def _score(
        self, rows: np.ndarray, m: int, k: int, agg_name: str
    ) -> list[list[tuple[float, Hashable]]]:
        """The exact full-row scoring of ``len(rows) // m`` groups of
        ``m`` consecutive user rows each."""
        slot_ids, live_mask = self._poi_slots()
        kk = min(k, len(self))
        per_user = rows.take(slot_ids, axis=1).reshape(-1, m, len(slot_ids))
        scores = per_user[:, 0].copy()
        if agg_name == "max":
            for i in range(1, m):
                np.maximum(scores, per_user[:, i], out=scores)
        else:
            # Sequential adds in user order: bit-identical to the
            # reference's ``total += d`` accumulation.
            for i in range(1, m):
                scores += per_user[:, i]
        # Each live slot's score is elementwise-identical to what a
        # freshly repacked index would compute for the same POI, so
        # masking dead slots to inf keeps the answer bit-identical.
        if live_mask is not None:
            scores[:, ~live_mask] = np.inf
        # Everything at or below the kk-th score, ties included; the
        # shared sort below decides among them.
        hits = scores <= np.partition(scores, kk - 1, axis=1)[:, kk - 1 : kk]
        if live_mask is not None:
            hits &= live_mask
        answers: list[list[tuple[float, Hashable]]] = [[] for _ in per_user]
        keys = self._delta.keys
        which, slots = np.nonzero(hits)
        for g, slot, score in zip(
            which.tolist(), slots.tolist(), scores[hits].tolist()
        ):
            answers[g].append((score, keys[slot]))
        for answer in answers:
            answer.sort(key=lambda t: (t[0], str(t[1])))
            del answer[k:]
        return answers

    # ------------------------------------------------------------------
    # The ALT-pruned path
    # ------------------------------------------------------------------

    def _landmark_slot_columns(self, slot_ids: np.ndarray) -> np.ndarray:
        """``[L, n_slots]`` landmark distances gathered at the POI
        slots, cached per delta generation (``slot_ids`` identity)."""
        cache = self._lm_slot_cache
        if cache is None or cache[0] is not slot_ids:
            columns = self._oracle.landmark_matrix()[:, slot_ids]
            self._lm_slot_cache = (slot_ids, columns)
            return columns
        return cache[1]

    def _gnn_alt(
        self,
        users: Sequence[object],
        k: int,
        kk: int,
        agg_name: str,
        slot_ids: np.ndarray,
        live_mask: Optional[np.ndarray],
    ) -> Optional[list[tuple[float, Hashable]]]:
        """Landmark bounds -> bounded exact scoring, or ``None`` to
        decline onto the exact full-row path.

        Correctness sketch (the equivalence suite checks the claim on
        random graphs):

        * per user, ``LB(p) <= dist(user, p) <= UB(p)`` from the
          triangle inequality through every landmark, minimized over
          the user's anchors; aggregating bounds with the objective's
          own max/sum preserves both inequalities;
        * ``T`` = the ``kk``-th smallest aggregate UB, so at least
          ``kk`` POIs score ``<= T`` and every answer POI does;
        * any POI with aggregate score ``<= T`` has every per-user
          term ``<= T`` (max: trivially; sum: non-negative terms), so
          a bounded Dijkstra per anchor with cutoff ``~T`` settles the
          minimizing anchor path exactly — survivor scores at or below
          ``T`` are bit-identical to full-row scores, and masked-inf
          entries only inflate scores already strictly above ``T``;
        * survivors = ``{LB <= T + slack}`` — slack covering the
          bounds' float rounding — therefore contains every POI of
          the exact answer, scored identically, and the shared
          ``(score, str(poi))`` sort returns the identical list.
        """
        oracle = self._oracle
        anchor_lists = [self.space.anchors(user) for user in users]
        landmarks = oracle.landmark_matrix()
        lm_slots = self._landmark_slot_columns(slot_ids)
        lb: Optional[np.ndarray] = None
        ub: Optional[np.ndarray] = None
        for anchors in anchor_lists:
            user_lb: Optional[np.ndarray] = None
            user_ub: Optional[np.ndarray] = None
            for node, d0 in anchors:
                to_anchor = landmarks[:, self._node_id[node]][:, None]
                a_lb = d0 + np.abs(lm_slots - to_anchor).max(axis=0)
                a_ub = d0 + (lm_slots + to_anchor).min(axis=0)
                user_lb = (
                    a_lb if user_lb is None else np.minimum(user_lb, a_lb)
                )
                user_ub = (
                    a_ub if user_ub is None else np.minimum(user_ub, a_ub)
                )
            if lb is None:
                lb, ub = user_lb.copy(), user_ub.copy()
            elif agg_name == "max":
                np.maximum(lb, user_lb, out=lb)
                np.maximum(ub, user_ub, out=ub)
            else:
                lb += user_lb
                ub += user_ub
        if live_mask is not None:
            lb = np.where(live_mask, lb, np.inf)
            ub = np.where(live_mask, ub, np.inf)
        threshold = float(np.partition(ub, kk - 1)[kk - 1])
        if not np.isfinite(threshold):
            return None
        # LB and UB reach the same real value through *different* float
        # expressions (|a - b| vs a + b, then the aggregation chain), so
        # rounding can lift a true answer's LB a few ulps past the
        # UB-derived threshold.  The slack dominates that chain — one
        # rounding per op, < len(users) + 8 ops, each <= eps/2 relative
        # — by seven orders of magnitude while pruning power is
        # untouched (real distance gaps dwarf 1e-9 relative).
        cut = threshold + 1e-9 * (abs(threshold) + 1.0) * (len(users) + 8)
        survivors = np.flatnonzero(lb <= cut)
        oracle.note_alt(candidates=int(n_live_slots(live_mask, slot_ids)),
                        survivors=len(survivors))
        # Exact scores for the survivors only, off bounded rows.  The
        # cutoff is padded so a rounded ``d0 + d == cut`` sum can never
        # fall out of the settled ball (see ``padded_cutoff``).
        sub_cols = slot_ids[survivors]
        scores: Optional[np.ndarray] = None
        for anchors in anchor_lists:
            combined: Optional[np.ndarray] = None
            for node, d0 in anchors:
                node_id = self._node_id[node]
                full = oracle.cached_row(node_id)
                if full is not None:
                    row = d0 + full[sub_cols]
                else:
                    bounded = oracle.bounded_row(
                        node_id, padded_cutoff(cut, d0)
                    )
                    row = d0 + bounded[sub_cols]
                combined = (
                    row if combined is None else np.minimum(combined, row)
                )
            if scores is None:
                scores = combined.copy()
            elif agg_name == "max":
                np.maximum(scores, combined, out=scores)
            else:
                scores += combined
        keys = self._delta.keys
        scored = sorted(
            (
                (float(scores[j]), keys[i])
                for j, i in enumerate(survivors.tolist())
            ),
            key=lambda t: (t[0], str(t[1])),
        )
        return scored[:k]


def n_live_slots(
    live_mask: Optional[np.ndarray], slot_ids: np.ndarray
) -> int:
    """Live POI slots under ``live_mask`` (all of them when ``None``)."""
    return int(live_mask.sum()) if live_mask is not None else len(slot_ids)
