"""Vectorized traversal kernels over the flat (SoA) R-tree layout.

Three kernels serve the two query kinds the paper's server sends to
its POI index.  The aggregate nearest neighbors of a group (FindMaxGNN
/ FindSumGNN, gnn layer) come from ``best_first`` — one group,
incremental — or from ``gnn_batch`` — a whole wave of equal-size
groups in one pass.  The Theorem-3/6 candidate sets of Tile-MSR (core
layer) come from ``pruned_scan``.  Callers parameterize ``best_first``
and ``pruned_scan`` with small closures that map packed node bounds /
point arrays to scores or masks; the traversal logic itself — heap
discipline, level-wise frontier expansion, node access accounting —
is written once per kernel.

The node layout these kernels consume is documented in
:mod:`repro.index.flat`: per level, ``bounds`` is ``(k, 4)`` float64
``[x_lo, y_lo, x_hi, y_hi]`` and each node's children occupy the
contiguous range ``start[i] : start[i] + count[i]`` of the level below
(leaf nodes range over the packed point array instead).

Every kernel answers over the tree's **live view** — packed points
minus tombstones, plus the buffered-insert arena — taken from
``tree.delta_view()``.  Tombstoned points are filtered at the moment
leaf ids materialize (node MBRs over a superset stay valid lower
bounds, so the traversal itself needs no change); arena points are
scored brute-force alongside, with the exact same float operations as
their packed counterparts so delta-state answers are bit-identical to
a fresh-rebuilt index.  When the view reports no deltas the kernels
run their original slice-based fast paths untouched.

Aggregates fold the member axis: a group's per-member distances are
combined by :func:`fold` — ``op(op(d0, d1), d2) ...``, one elementwise
``np.maximum`` / ``np.add`` per extra member — never by a ``.max`` /
``.sum`` reduce along a short axis, which NumPy runs as one tiny inner
loop per row (over 40x slower on a 6,000 x 2 array).  Every scorer,
scalar or batched, node or point, sums in that one order, so a SUM
score never depends on which path computed it.

Ties: both k-GNN paths order results by ``(score, id)``.  Of two
points at exactly the same aggregate distance, the lower id comes
first, whether ``best_first`` or ``gnn_batch`` answered.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional

import numpy as np

# A node-scoring function: (k, 4) bounds -> (k,) lower bounds.
BoundFn = Callable[[np.ndarray], np.ndarray]
# A point-scoring function: (k, 2) points -> (k,) exact scores.
ScoreFn = Callable[[np.ndarray], np.ndarray]
# Mask variants used by the pruned scan.
MaskFn = Callable[[np.ndarray], np.ndarray]


def fold(op: Callable[[np.ndarray, np.ndarray], np.ndarray], parts) -> np.ndarray:
    """Left fold ``op`` over ``parts`` (an array's leading axis or a
    sequence of arrays): ``op(op(parts[0], parts[1]), parts[2]) ...``.

    The member-axis aggregate of every scorer.  For fewer than eight
    members it equals NumPy's own ``add`` / ``maximum`` reduce bit for
    bit (MAX is exact in any order; NumPy's short-axis SUM runs left to
    right below eight terms), at the cost of m - 1 elementwise calls.
    """
    it = iter(parts)
    acc = next(it)
    for part in it:
        acc = op(acc, part)
    return acc


def min_dists_sq_multi(bounds: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Squared per-user node ``min_dist`` matrix, shape ``(m, k)``."""
    ux = users[:, 0][:, None]
    uy = users[:, 1][:, None]
    dx = np.maximum(bounds[None, :, 0] - ux, 0.0) + np.maximum(
        ux - bounds[None, :, 2], 0.0
    )
    dy = np.maximum(bounds[None, :, 1] - uy, 0.0) + np.maximum(
        uy - bounds[None, :, 3], 0.0
    )
    return dx * dx + dy * dy


def point_dists_sq_multi(pts: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Squared point-to-user distance matrix, shape ``(k, m)``."""
    dx = pts[:, 0][:, None] - users[None, :, 0]
    dy = pts[:, 1][:, None] - users[None, :, 1]
    return dx * dx + dy * dy


def min_dists_multi(bounds: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Per-user node ``min_dist`` matrix, shape ``(m, k)``.

    This is the batched lower-bound computation of the MBM aggregate-NN
    method (Papadias et al., ref. [24]): one call covers the whole
    group against a whole sibling set.
    """
    ux = users[:, 0][:, None]
    uy = users[:, 1][:, None]
    dx = np.maximum(bounds[None, :, 0] - ux, 0.0) + np.maximum(
        ux - bounds[None, :, 2], 0.0
    )
    dy = np.maximum(bounds[None, :, 1] - uy, 0.0) + np.maximum(
        uy - bounds[None, :, 3], 0.0
    )
    return np.hypot(dx, dy)


def point_dists_multi(pts: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Point-to-user distance matrix, shape ``(k, m)``."""
    return np.hypot(
        pts[:, 0][:, None] - users[None, :, 0],
        pts[:, 1][:, None] - users[None, :, 1],
    )


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (start, count) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offset of each output slot within its own range, then shift.
    bases = np.repeat(counts.cumsum() - counts, counts)
    return np.arange(total, dtype=np.int64) - bases + np.repeat(starts, counts)


_POINTS = -1  # cursor over scored points: pops yield results


def best_first(tree, node_bound: BoundFn, point_score: ScoreFn) -> Iterator[tuple[float, int]]:
    """Yield ``(score, point_index)`` in increasing score order.

    Generic best-first search: node lower bounds and point scores are
    computed vectorized per sibling set, then fed through one priority
    queue.  Scores are aggregate GNN distances (MAX / SUM over the
    group; a one-user group is plain NN).  Callers may
    score with any monotone transform of the target metric (e.g.
    squared distances) as long as ``node_bound`` stays a lower bound of
    ``point_score`` over the node's subtree.

    Every expanded node enters the queue as a single *cursor* — its
    children (or points) pre-scored vectorized and pre-sorted — keyed
    by the score of the next unconsumed item.  A sibling set of w
    items therefore costs one scoring call and one push, plus one
    push/pop per item the search actually reaches, not w pushes up
    front.

    Deltas: the arena enters the queue as one more pre-scored cursor
    (so buffered points interleave with packed ones in exact score
    order), and tombstoned ids are dropped when a leaf's points are
    scored — dead points are never scored, so a full enumeration ends
    after exactly the live points.

    Ties: the queue is keyed ``(score, is_point, id, seq)``.  A node
    whose lower bound equals a point's score is expanded before that
    point is yielded, so every point of an equal score is queued before
    the first of them comes out, and they come out by ascending id —
    the order ``gnn_batch`` selects in.  The root enters at bound 0.0
    (no point scores lower), which spares scoring its one MBR.
    """
    levels = tree._levels
    alive, buf_pts, buf_ids = tree.delta_view()
    seq = itertools.count()  # tie-breaker: heap never compares cursors

    def cursor(level: int, scores: list, ids: list, pos: int = 0) -> tuple:
        # Heap item over ids[pos:], unconsumed nodes of ``level`` (_POINTS:
        # points), keyed (score, is_point, id, seq) on its next item.
        return (scores[pos], level == _POINTS, ids[pos], next(seq), level, scores, ids, pos)

    heap: list = []
    if levels:
        heap.append(cursor(len(levels) - 1, [0.0], [0]))
    if buf_pts is not None:
        sc = point_score(buf_pts)
        order = np.argsort(sc, kind="stable")
        heap.append(cursor(_POINTS, sc[order].tolist(), buf_ids[order].tolist()))
    heapq.heapify(heap)
    while heap:
        score, _, _, _, clevel, scores, ids, pos = heapq.heappop(heap)
        if pos + 1 < len(ids):  # re-arm the cursor for its next item
            heapq.heappush(heap, cursor(clevel, scores, ids, pos + 1))
        if clevel == _POINTS:
            yield score, ids[pos]
            continue
        lvl = levels[clevel]
        idx = ids[pos]
        start = int(lvl.start[idx])
        stop = start + int(lvl.count[idx])
        if clevel == 0:
            if alive is not None:
                pts_ids = np.arange(start, stop, dtype=np.int64)
                pts_ids = pts_ids[alive[start:stop]]
                if pts_ids.size == 0:
                    continue  # fully tombstoned leaf: nothing to push
                sc = point_score(tree._pts[pts_ids])
            else:
                pts_ids = None
                sc = point_score(tree._pts[start:stop])
            child_level = _POINTS
        else:
            pts_ids = None
            sc = node_bound(levels[clevel - 1].bounds[start:stop])
            child_level = clevel - 1
        order = np.argsort(sc, kind="stable")
        child_ids = (
            (start + order).tolist() if pts_ids is None else pts_ids[order].tolist()
        )
        heapq.heappush(heap, cursor(child_level, sc[order].tolist(), child_ids))


def _scorers(tree, U: np.ndarray, agg: str):
    """Build the five scoring closures ``gnn_batch`` traverses with.

    ``block_*`` score a per-group gathered block of node ids / point
    ids shaped ``(g, cap)``; ``pair_*`` score flat (group, node/point)
    pair arrays, where ``gidx`` maps each row to its group;
    ``buffer_points`` scores the arena's ``(nb, 2)`` point array
    against every group at once, shape ``(g, nb)``.  The packed
    closures gather from the level/point *column* arrays (contiguous
    1-D), which beats row gathers of the packed 2-D layouts.  Per-member
    offsets are laid out member axis first, ``(m, ...)``, and folded
    row by row (:func:`fold`).  MAX closures score in squared space, so
    the caller takes the square root of the final MAX scores.

    Rounding parity: SUM scores use ``np.hypot`` and the same left fold
    as the scalar traversal's scorers, so a batched query returns
    bit-identical distances to its scalar equivalent (the
    batched-service equivalence suite relies on this); MAX scores stay
    in squared space on both paths and take one correctly-rounded
    square root at the end, which is likewise bit-identical.
    ``buffer_points`` repeats the packed point float ops verbatim, so
    arena and packed copies of the same point always score identically.
    """
    squared = agg == "max"  # max is monotone under squaring; sum is not
    xs, ys = tree.point_columns()
    qx = np.ascontiguousarray(U[:, :, 0].T)  # (m, g)
    qy = np.ascontiguousarray(U[:, :, 1].T)
    ux3 = qx[:, :, None]  # (m, g, 1)
    uy3 = qy[:, :, None]

    def aggregate(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        if squared:
            return fold(np.maximum, dx * dx + dy * dy)
        return fold(np.add, np.hypot(dx, dy))

    def gap(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return np.maximum(np.maximum(lo - u, u - hi), 0.0)

    def block_bounds(lvl, cidx: np.ndarray) -> np.ndarray:
        lo_x, lo_y, hi_x, hi_y = lvl.columns()
        return aggregate(
            gap(ux3, lo_x[cidx], hi_x[cidx]), gap(uy3, lo_y[cidx], hi_y[cidx])
        )

    def block_points(pidx: np.ndarray) -> np.ndarray:
        return aggregate(xs[pidx] - ux3, ys[pidx] - uy3)  # (m, g, cap) folded

    def pair_bounds(lvl, nid: np.ndarray, gidx: np.ndarray) -> np.ndarray:
        lo_x, lo_y, hi_x, hi_y = lvl.columns()
        gx = qx[:, gidx]  # (m, p)
        gy = qy[:, gidx]
        return aggregate(gap(gx, lo_x[nid], hi_x[nid]), gap(gy, lo_y[nid], hi_y[nid]))

    def pair_points(nid: np.ndarray, gidx: np.ndarray) -> np.ndarray:
        return aggregate(xs[nid] - qx[:, gidx], ys[nid] - qy[:, gidx])

    def buffer_points(bpts: np.ndarray) -> np.ndarray:
        return aggregate(bpts[:, 0] - ux3, bpts[:, 1] - uy3)  # (m, g, nb) folded

    return block_bounds, block_points, pair_bounds, pair_points, buffer_points


def gnn_batch(
    tree, U: np.ndarray, k: int, agg: str
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Exact k-GNN for many groups in one vectorized pass.

    ``U`` is ``(g, m, 2)`` — ``g`` groups of ``m`` users each.  Strategy:
    (1) greedy batched descent from the root, each group following its
    minimum-lower-bound child, lands every group on its most promising
    *seed leaf*; (2) the k-th best aggregate distance over the seed
    leaf's live points plus the whole arena upper-bounds the true k-th
    best; (3) a frontier of (group, node) pairs descends the tree,
    dropping every pair whose lower bound exceeds the group's bound,
    and the surviving leaves' live points — joined by the arena points
    under the bound — are scored and segment-selected to the top k per
    group.  All three phases cost a constant number of NumPy calls per
    tree level, independent of g.

    Every (group, node) and (group, point) pair is scored at most once.
    Phase (3) starts from the (g, fanout) block phase (1) already scored
    for the root's children, not from the root: it keeps the pairs under
    the bound and scores only the levels below them.  Up to fanout²
    packed points the root's children are the leaves, so phase (3)
    scores no node at all.  The seed leaf's points and the arena's,
    scored in phase (2), join the candidates from there; phase (3)
    scores only the other surviving leaves' points.  In a one-leaf tree
    the seed leaf is the whole packing, so phase (3) scores nothing.

    Results are ordered by ``(score, id)``: exact ties go to the lower
    point id, as in ``best_first``.  Returns ``(scores, ids)`` of shape
    ``(g, k)``, or None when a precondition fails (no packed tree, or
    some group's candidate pool is thinner than k); the caller falls
    back to the incremental search, which handles every delta state.
    """
    levels = tree._levels
    if not levels or k <= 0 or k > len(tree):
        return None
    alive, buf_pts, buf_ids = tree.delta_view()
    leaf = levels[0]
    g = U.shape[0]
    block_bounds, block_points, pair_bounds, pair_points, buffer_points = _scorers(
        tree, U, agg
    )

    # (1) greedy descent: per group, repeatedly step into the child
    # with the smallest aggregate lower bound.  Each level scores one
    # (g, fanout) block; the landing leaf is a good (not necessarily
    # optimal) source for the pruning bound.  The first block (the
    # root's children, shared by every group) is kept for phase (3).
    seed = np.zeros(g, dtype=np.int64)
    top_sc = None
    for level in range(len(levels) - 1, 0, -1):
        lvl = levels[level]
        start = lvl.start[seed]
        count = lvl.count[seed]
        cap = int(count.max())
        col = np.arange(cap)
        cidx = start[:, None] + col[None, :]
        valid = col[None, :] < count[:, None]
        sc = block_bounds(levels[level - 1], np.where(valid, cidx, 0))  # (g, cap)
        sc = np.where(valid, sc, np.inf)
        if top_sc is None:
            top_sc = sc
        seed = cidx[np.arange(g), sc.argmin(axis=1)]

    # (2) k-th best aggregate distance over each group's candidate
    # pool: the seed leaf's live points plus the whole arena (arena
    # points are never pruned, so they always belong in the pool).
    seed_count = leaf.count[seed]
    cap = int(seed_count.max())
    col = np.arange(cap)
    pidx = leaf.start[seed][:, None] + col[None, :]
    valid = col[None, :] < seed_count[:, None]
    safe = np.where(valid, pidx, 0)
    pa = np.where(valid, block_points(safe), np.inf)
    if alive is not None:
        pa = np.where(valid & alive[safe], pa, np.inf)
    bsc = None
    if buf_pts is not None:
        bsc = buffer_points(buf_pts)  # (g, nb)
        pool = np.concatenate([pa, bsc], axis=1)
    else:
        pool = pa
    if pool.shape[1] < k or (np.isfinite(pool).sum(axis=1) < k).any():
        return None
    bound = np.partition(pool, k - 1, axis=1)[:, k - 1]  # (g,)

    # (3) bounded frontier descent: (group, node) pairs, pruned per
    # level.  The seed path always survives (ancestor bounds only
    # shrink down the path), so every group keeps >= k candidates:
    # each pool point under the bound is either an arena point (never
    # pruned) or a live packed point whose ancestors' bounds are <=
    # its own score <= the bound.  The seed leaf's points and the
    # arena's were scored in (2); they join the candidates from there.
    in_seed = pa <= bound[:, None]
    gs, cs = np.nonzero(in_seed)
    gids, nids, scs = [gs], [pidx[gs, cs]], [pa[in_seed]]
    if top_sc is not None:  # else one leaf holds every packed point
        # The frontier starts at the root's children, scored by (1).
        gid, col = np.nonzero(top_sc <= bound[:, None])
        nid = levels[-1].start[0] + col
        for level in range(len(levels) - 2, 0, -1):
            lvl = levels[level]
            counts = lvl.count[nid]
            gid = np.repeat(gid, counts)
            nid = expand_ranges(lvl.start[nid], counts)
            keep = pair_bounds(levels[level - 1], nid, gid) <= bound[gid]
            gid = gid[keep]
            nid = nid[keep]
        keep = nid != seed[gid]  # leaf pairs: the seed leaf is scored
        gid = gid[keep]
        nid = nid[keep]
        counts = leaf.count[nid]
        gid = np.repeat(gid, counts)
        nid = expand_ranges(leaf.start[nid], counts)
        if alive is not None and nid.size:
            keep = alive[nid]
            gid = gid[keep]
            nid = nid[keep]
        sc = pair_points(nid, gid)
        sel = sc <= bound[gid]  # drop losers before the sort
        gids.append(gid[sel])
        nids.append(nid[sel])
        scs.append(sc[sel])
    if bsc is not None:
        inb = bsc <= bound[:, None]  # (g, nb)
        gb, jb = np.nonzero(inb)
        gids.append(gb)
        nids.append(buf_ids[jb])
        scs.append(bsc[inb])
    gid = np.concatenate(gids)
    nid = np.concatenate(nids)
    sc = np.concatenate(scs)

    # Segment-select the k best per group, lower id first on a tie.
    order = np.lexsort((nid, sc, gid))
    sq_ = gid[order]
    seg_new = np.empty(len(sq_), dtype=bool)
    seg_new[0] = True
    seg_new[1:] = sq_[1:] != sq_[:-1]
    seg_start = np.flatnonzero(seg_new)
    seg_len = np.diff(np.append(seg_start, len(sq_)))
    pos = np.arange(len(sq_)) - np.repeat(seg_start, seg_len)
    sel = pos < k
    scores = sc[order][sel].reshape(g, k)
    ids = nid[order][sel].reshape(g, k)
    if agg == "max":
        scores = np.sqrt(scores)
    return scores, ids


def pruned_scan(
    tree,
    node_mask: MaskFn,
    point_mask: MaskFn,
    stats: Optional[Any] = None,
) -> np.ndarray:
    """Indices of live points surviving a node-pruned scan.

    Level-wise frontier traversal: at each level the surviving nodes'
    children are gathered in one shot and masked in one vectorized
    call.  Every node whose MBR is examined counts as one index node
    access, the paper's accounting for Theorems 3/6 (arena points are
    not nodes and count nothing).  Tombstoned ids are dropped before
    the final point mask; arena survivors are appended after the
    packed ones.
    """
    alive, buf_pts, buf_ids = tree.delta_view()
    levels = tree._levels
    packed = np.empty(0, dtype=np.int64)
    if levels:
        idx = np.zeros(1, dtype=np.int64)
        for level in range(len(levels) - 1, -1, -1):
            lvl = levels[level]
            if stats is not None:
                stats.index_node_accesses += int(idx.size)
            keep = node_mask(lvl.bounds[idx])
            idx = idx[keep]
            if idx.size == 0:
                break
            idx = expand_ranges(lvl.start[idx], lvl.count[idx])
        else:
            if alive is not None:
                idx = idx[alive[idx]]
            if idx.size:
                packed = idx[point_mask(tree._pts[idx])]
    if buf_pts is None:
        return packed
    bsel = buf_ids[point_mask(buf_pts)]
    if packed.size == 0:
        return bsel
    return np.concatenate([packed, bsel])
