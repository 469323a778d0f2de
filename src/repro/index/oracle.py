"""The one shortest-path engine of a road graph.

Every road-network distance — the POI index's GNN kernel, network
balls, ``net_tile`` verification, and
:meth:`repro.network_ext.space.NetworkSpace.node_distances` /
``distance`` — is computed and cached here, by SciPy's C Dijkstra over
the graph packed once into CSR arrays.  Every walk over a road graph is
planned here too (:meth:`DistanceOracle.path`): the scenario compiler's
commuters and crowds, :func:`repro.network_ext.monitor.network_trajectory`
and the Brinkhoff-like generator of :mod:`repro.mobility.network`.

At 100k+ nodes each cached source costs ~800 KB of float64, so memory,
not CPU, is what bounds city-scale graphs; three cooperating mechanisms
sit behind one object:

* an **LRU row cache** with a configurable byte budget
  (``row_cache_bytes``): full distance rows are exact and reusable but
  evictable, with hit/miss/eviction/resident-byte counters.  The
  default budget (64 MiB) holds >1k rows at 10k-edge scale, so small
  grids behave exactly as the old unbounded dict;
* **ALT landmarks** (A*, Landmarks, Triangle inequality): ~16
  landmarks picked by the farthest-point heuristic, their rows
  precomputed once and pinned outside the LRU budget.  For any nodes
  ``s, t`` and landmark ``L``, ``|d(L,s) - d(L,t)| <= d(s,t) <=
  d(L,s) + d(L,t)`` — cheap lower/upper bounds that let the GNN kernel
  discard almost every POI before a single exact row is computed;
* **bounded-radius Dijkstra**: an early-exit single-source run that
  settles only the ball of radius ``cutoff`` around the source
  (SciPy's ``dijkstra(limit=...)``).  Entries beyond the cutoff are
  masked to ``inf`` — settled entries are bit-identical to the full
  row's, tentative ones never leak.

One oracle serves one road graph: :func:`oracle_for` hangs the oracle
off the :class:`~repro.network_ext.space.NetworkSpace`, so POI
replicas (:meth:`repro.space.network.NetworkPOISpace.replicate`) and
every shard of a cluster (which all serve one space object) share a
single row cache — POI churn never touches graph structure,
so nothing a replica does can invalidate another's distances.

Everything here is *exact*: bounds only ever rule candidates out, and
callers fall back to full rows whenever a bound cannot prove the
answer.  ``tests/test_citynet_equivalence.py`` holds the pruned and
bounded paths bit-identical to the full-row baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

DEFAULT_ROW_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_LANDMARKS = 16
DEFAULT_AUTO_THRESHOLD_NODES = 20_000

_MODES = ("auto", "on", "off")


def padded_cutoff(limit: float, offset: float = 0.0) -> float:
    """A Dijkstra cutoff that provably covers every distance whose
    *rounded* offset sum stays under ``limit``.

    Callers prune on float comparisons like ``fl(offset + d) <=
    limit``; solving for ``d`` with a rounded subtraction can land one
    ulp short, silently excluding a boundary node and breaking bit
    identity with the exact path.  The padding (a few ulp, relative to
    the magnitudes involved) errs on the side of settling a handful of
    extra nodes — harmless, since settled values are exact.
    """
    if not np.isfinite(limit):
        return float("inf")
    eps = np.finfo(np.float64).eps
    return (limit - offset) + 8.0 * eps * (abs(limit) + abs(offset) + 1.0)


@dataclass(frozen=True)
class OracleConfig:
    """Tuning knobs for one :class:`DistanceOracle`.

    ``alt_mode`` / ``bounded_mode`` gate the two pruning mechanisms:
    ``"on"`` / ``"off"`` force them, ``"auto"`` (the default) engages
    them only at or above ``auto_threshold_nodes`` graph nodes — below
    that, full rows are cheap and the serving stack behaves exactly as
    it did before the oracle existed.
    """

    row_cache_bytes: int = DEFAULT_ROW_CACHE_BYTES
    landmarks: int = DEFAULT_LANDMARKS
    alt_mode: str = "auto"
    bounded_mode: str = "auto"
    auto_threshold_nodes: int = DEFAULT_AUTO_THRESHOLD_NODES

    def __post_init__(self) -> None:
        if self.row_cache_bytes < 0:
            raise ValueError("row_cache_bytes must be >= 0")
        if self.landmarks < 1:
            raise ValueError("need at least one landmark")
        for mode in (self.alt_mode, self.bounded_mode):
            if mode not in _MODES:
                raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if self.auto_threshold_nodes < 0:
            raise ValueError("auto_threshold_nodes must be >= 0")


class DistanceOracle:
    """CSR road graph + bounded-memory exact distance machinery.

    ``space`` is anything exposing a networkx ``graph`` with positive
    ``length`` edge attributes (a
    :class:`~repro.network_ext.space.NetworkSpace`).  The graph is
    packed once and assumed immutable; all public methods return exact
    shortest-path values.  Next to the CSR arrays sits the undirected
    edge table (``edge_u`` / ``edge_v`` / :meth:`incident_edges`) that
    network regions read their coverage from.
    """

    def __init__(self, space, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()
        graph = space.graph
        self.nodes: list[Hashable] = list(graph.nodes)
        self.node_id: dict[Hashable, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        n = len(self.nodes)
        # CSR adjacency: both directions of every undirected edge, edge
        # ``e`` of ``graph.edges`` contributing entries ``2e`` (from its
        # first endpoint) and ``2e + 1`` (from its second).
        src: list[int] = []
        dst: list[int] = []
        wgt: list[float] = []
        for u, v, data in graph.edges(data=True):
            iu, iv = self.node_id[u], self.node_id[v]
            length = float(data["length"])
            src += [iu, iv]
            dst += [iv, iu]
            wgt += [length, length]
        src_arr = np.asarray(src, dtype=np.int64)
        order = np.argsort(src_arr, kind="stable")
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src_arr, minlength=n), out=self.indptr[1:])
        self.indices = np.asarray(dst, dtype=np.int64)[order]
        self.weights = np.asarray(wgt, dtype=np.float64)[order]
        # The undirected edge table, in ``graph.edges`` order: endpoint
        # ids per edge, and the edge behind every CSR slot — so
        # ``slot_edge[indptr[i]:indptr[i + 1]]`` are node ``i``'s
        # incident edges (region coverage walks these, never the graph).
        self.edge_u = src_arr[0::2].copy()
        self.edge_v = src_arr[1::2].copy()
        self.slot_edge = order // 2
        self._csgraph = csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(n, n)
        )
        self.row_bytes = n * np.dtype(np.float64).itemsize
        self._max_rows = (
            self.config.row_cache_bytes // self.row_bytes if n else 0
        )
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._landmark_ids: Optional[np.ndarray] = None
        self._landmark_rows: Optional[np.ndarray] = None
        # Counters, all surfaced through :meth:`stats`.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rows_computed = 0
        self.bounded_queries = 0
        self.alt_queries = 0
        self.alt_candidates = 0
        self.alt_survivors = 0

    # ------------------------------------------------------------------
    # Engagement policy
    # ------------------------------------------------------------------

    def _engaged(self, mode: str) -> bool:
        if mode == "on":
            return True
        if mode == "off":
            return False
        return len(self.nodes) >= self.config.auto_threshold_nodes

    @property
    def alt_active(self) -> bool:
        """Should GNN queries go through the landmark-pruned path?"""
        return self._engaged(self.config.alt_mode)

    @property
    def bounded_active(self) -> bool:
        """Should region construction use bounded-radius Dijkstra?"""
        return self._engaged(self.config.bounded_mode)

    # ------------------------------------------------------------------
    # The LRU row cache
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def incident_edges(self, node_id: int) -> list[int]:
        """The edges touching ``node_id``, as indices into ``graph.edges``
        order (``edge_u`` / ``edge_v``) — O(degree), whatever the graph."""
        lo, hi = self.indptr[node_id], self.indptr[node_id + 1]
        return self.slot_edge[lo:hi].tolist()

    def has_row(self, node_id: int) -> bool:
        """Is the full row resident (no counter or recency effects)?"""
        return node_id in self._rows

    def cached_row(self, node_id: int) -> Optional[np.ndarray]:
        """The resident full row, freshened, or ``None`` — never computes."""
        row = self._rows.get(node_id)
        if row is not None:
            self._rows.move_to_end(node_id)
        return row

    def row(self, node_id: int) -> np.ndarray:
        """The full exact distance row from ``node_id`` (cached)."""
        row = self.cached_row(node_id)
        if row is None:
            return self.rows([node_id])[node_id]
        self.hits += 1
        return row

    def rows(self, node_ids: Sequence[int]) -> dict[int, np.ndarray]:
        """Full rows for every source, one multi-source dispatch for the
        misses.  The returned dict is eviction-proof: callers hold the
        arrays directly even if the budget cannot keep them resident.
        """
        out: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for node_id in node_ids:
            if node_id in out:
                continue
            row = self._rows.get(node_id)
            if row is not None:
                self.hits += 1
                self._rows.move_to_end(node_id)
                out[node_id] = row
            else:
                self.misses += 1
                missing.append(node_id)
        if missing:
            missing.sort()
            computed = self._compute_raw(missing)
            self.rows_computed += len(missing)
            for node_id, row in zip(missing, computed):
                out[node_id] = row
                self._insert(node_id, row)
        return out

    def _insert(self, node_id: int, row: np.ndarray) -> None:
        if self._max_rows <= 0:
            return
        self._rows[node_id] = row
        self._rows.move_to_end(node_id)
        while len(self._rows) > self._max_rows:
            self._rows.popitem(last=False)
            self.evictions += 1

    @property
    def resident_rows(self) -> int:
        return len(self._rows)

    @property
    def resident_bytes(self) -> int:
        return len(self._rows) * self.row_bytes

    # ------------------------------------------------------------------
    # Exact kernels (full + bounded)
    # ------------------------------------------------------------------

    def _compute_raw(self, node_ids: Sequence[int]) -> np.ndarray:
        """``[len(node_ids), n]`` exact rows, no cache interaction."""
        return np.atleast_2d(dijkstra(self._csgraph, indices=list(node_ids)))

    def bounded_row(self, node_id: int, cutoff: float) -> np.ndarray:
        """Distances from ``node_id``, exact up to ``cutoff``.

        Every entry ``<= cutoff`` is bit-identical to the full row's;
        every entry beyond is ``inf`` (tentative values from the
        early-exited frontier never leak out).  Not cached — bounded
        rows are query-radius-specific.
        """
        self.bounded_queries += 1
        if cutoff < 0.0:
            return np.full(len(self.nodes), np.inf)
        cached = self.cached_row(node_id)
        if cached is not None:
            self.hits += 1
            row = cached.copy()
        else:
            # nextafter: scipy's ``limit`` contract on the exact boundary
            # is version-dependent; overshoot by one ulp and let the
            # mask below enforce ours.
            row = dijkstra(
                self._csgraph,
                indices=[node_id],
                limit=float(np.nextafter(cutoff, np.inf)),
            )[0]
        row[row > cutoff] = np.inf
        return row

    def path(self, source: Hashable, target: Hashable) -> list[Hashable]:
        """A shortest node path from ``source`` to ``target``, both ends
        included (``[source]`` when they coincide).

        One SciPy Dijkstra from ``source`` with predecessors, walked back
        from ``target``.  Where every shortest path is unique (the
        jittered city and ``build_road_network`` graphs) this is *the*
        shortest path, node for node what networkx returns; where
        equal-length alternatives exist it is one of them.  A
        predecessor tree is not a distance row: the row cache and the
        :meth:`stats` counters are left alone.  Unknown nodes raise
        ``KeyError``; a target ``source`` cannot reach, ``ValueError``.
        """
        s, t = self.node_id[source], self.node_id[target]
        _, pred = dijkstra(self._csgraph, indices=s, return_predecessors=True)
        ids = [t]
        while t != s:
            t = int(pred[t])
            if t < 0:
                raise ValueError(f"no path from {source!r} to {target!r}")
            ids.append(t)
        return [self.nodes[i] for i in reversed(ids)]

    # ------------------------------------------------------------------
    # ALT landmarks
    # ------------------------------------------------------------------

    def landmark_matrix(self) -> np.ndarray:
        """``[L, n]`` pinned landmark rows (built on first use).

        Landmarks are chosen by the farthest-point heuristic: start
        from the node farthest from node 0, then repeatedly add the
        node maximizing the distance to the nearest landmark so far —
        the standard spread that makes ``|d(L,s) - d(L,t)|`` tight.
        Deterministic for a given graph (argmax ties break to the
        lowest node id).
        """
        if self._landmark_rows is None:
            n = len(self.nodes)
            want = min(self.config.landmarks, n)
            seed_row = self._compute_raw([0])[0]
            first = int(np.argmax(seed_row))
            ids = [first]
            rows = [self._compute_raw([first])[0]]
            nearest = rows[0].copy()
            while len(ids) < want:
                candidate = int(np.argmax(nearest))
                if nearest[candidate] <= 0.0:
                    break  # every node already is a landmark
                row = self._compute_raw([candidate])[0]
                ids.append(candidate)
                rows.append(row)
                np.minimum(nearest, row, out=nearest)
            self.rows_computed += 1 + len(ids)
            self._landmark_ids = np.asarray(ids, dtype=np.int64)
            self._landmark_rows = np.vstack(rows)
        return self._landmark_rows

    def landmark_ids(self) -> np.ndarray:
        self.landmark_matrix()
        return self._landmark_ids

    @property
    def landmark_bytes(self) -> int:
        if self._landmark_rows is None:
            return 0
        return int(self._landmark_rows.nbytes)

    def note_alt(self, candidates: int, survivors: int) -> None:
        """Charge one landmark-pruned GNN query to the counters."""
        self.alt_queries += 1
        self.alt_candidates += int(candidates)
        self.alt_survivors += int(survivors)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe counter snapshot (served over the wire ``stats`` op)."""
        pruned = self.alt_candidates - self.alt_survivors
        return {
            "nodes": len(self.nodes),
            "edges": self.edge_count(),
            "row_bytes": int(self.row_bytes),
            "row_cache_bytes": int(self.config.row_cache_bytes),
            "resident_rows": self.resident_rows,
            "resident_bytes": int(self.resident_bytes),
            "row_cache_hits": self.hits,
            "row_cache_misses": self.misses,
            "row_cache_evictions": self.evictions,
            "rows_computed": self.rows_computed,
            "bounded_queries": self.bounded_queries,
            "landmarks": (
                0 if self._landmark_ids is None else len(self._landmark_ids)
            ),
            "landmark_bytes": self.landmark_bytes,
            "alt_queries": self.alt_queries,
            "alt_candidates": self.alt_candidates,
            "alt_survivors": self.alt_survivors,
            "alt_prune_rate": (
                pruned / self.alt_candidates if self.alt_candidates else 0.0
            ),
        }


def oracle_for(space, config: Optional[OracleConfig] = None) -> DistanceOracle:
    """The one shared oracle of a road-network space.

    The first call builds a :class:`DistanceOracle` and hangs it off
    ``space``; later calls return the same object, so POI replicas and
    cluster epoch shares over one graph hold one row cache.  An
    explicit ``config`` that disagrees with the installed oracle's is
    an error — silent reconfiguration would invalidate the sharing
    contract.

    A space's first distance query — :meth:`NetworkSpace.distance`,
    :meth:`~NetworkSpace.node_distances` or a
    :class:`~repro.network_ext.ball.NetworkBall` — installs the default
    oracle the same way, so a custom :class:`OracleConfig` must come
    first: pass it before any query, as ``NetworkPOISpace(...,
    oracle_config=...)`` and ``city_network_space(oracle_config=...)``
    do.
    """
    existing = getattr(space, "_distance_oracle", None)
    if existing is not None:
        if config is not None and config != existing.config:
            raise ValueError(
                "space already carries a distance oracle with a different "
                f"config: {existing.config} != {config}"
            )
        return existing
    oracle = DistanceOracle(space, config)
    space._distance_oracle = oracle
    return oracle
