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
    """
    levels = tree._levels
    alive, buf_pts, buf_ids = tree.delta_view()
    counter = itertools.count()  # tie-breaker: heap never compares cursors
    # Heap items: (score, seq, cursor_level, scores, ids, pos) where
    # ids[pos:] are unconsumed nodes of that level (_POINTS: points).
    heap: list = []
    if levels:
        top = len(levels) - 1
        root_bound = float(node_bound(levels[top].bounds[0:1])[0])
        heap.append((root_bound, next(counter), top, [root_bound], [0], 0))
    if buf_pts is not None:
        sc = point_score(buf_pts)
        order = np.argsort(sc, kind="stable")
        heap.append(
            (
                float(sc[order[0]]),
                next(counter),
                _POINTS,
                sc[order].tolist(),
                buf_ids[order].tolist(),
                0,
            )
        )
    heapq.heapify(heap)
    while heap:
        score, _, clevel, scores, ids, pos = heapq.heappop(heap)
        if pos + 1 < len(ids):  # re-arm the cursor for its next item
            heapq.heappush(
                heap, (scores[pos + 1], next(counter), clevel, scores, ids, pos + 1)
            )
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
        heapq.heappush(
            heap,
            (
                float(sc[order[0]]),
                next(counter),
                child_level,
                sc[order].tolist(),
                child_ids,
                0,
            ),
        )


def _scorers(tree, U: np.ndarray, agg: str):
    """Build the five scoring closures ``gnn_batch`` traverses with.

    ``block_*`` score a per-group gathered block of node ids / point
    ids shaped ``(g, cap)``; ``pair_*`` score flat (group, node/point)
    pair arrays, where ``gidx`` maps each row to its group;
    ``buffer_points`` scores the arena's ``(nb, 2)`` point array
    against every group at once, shape ``(g, nb)``.  The packed
    closures gather from the level/point *column* arrays (contiguous
    1-D), which beats row gathers of the packed 2-D layouts.  MAX
    closures score in squared space, so the caller takes the square
    root of the final MAX scores.

    Rounding parity: SUM scores use ``np.hypot`` exactly like the
    scalar traversal's ``min_dists_multi`` / ``point_dists_multi``, so
    a batched query returns bit-identical distances to its scalar
    equivalent (the batched-service equivalence suite relies on this);
    MAX scores stay in squared space on both paths and take one
    correctly-rounded square root at the end, which is likewise
    bit-identical.  ``buffer_points`` repeats the packed point float
    ops verbatim, so arena and packed copies of the same point always
    score identically.
    """
    squared = agg == "max"  # max is monotone under squaring; sum is not
    xs, ys = tree.point_columns()
    qxm = np.ascontiguousarray(U[:, :, 0])  # (g, m)
    qym = np.ascontiguousarray(U[:, :, 1])
    ux3 = qxm[:, :, None]  # (g, m, 1)
    uy3 = qym[:, :, None]

    def block_bounds(lvl, cidx: np.ndarray) -> np.ndarray:
        lo_x, lo_y, hi_x, hi_y = lvl.columns()
        blx = lo_x[cidx][:, None, :]  # (g, 1, cap)
        bhx = hi_x[cidx][:, None, :]
        bly = lo_y[cidx][:, None, :]
        bhy = hi_y[cidx][:, None, :]
        dx = np.maximum(np.maximum(blx - ux3, ux3 - bhx), 0.0)
        dy = np.maximum(np.maximum(bly - uy3, uy3 - bhy), 0.0)
        if squared:
            D = dx * dx + dy * dy  # (g, m, cap)
            return D.max(axis=1)
        return np.hypot(dx, dy).sum(axis=1)

    def block_points(pidx: np.ndarray) -> np.ndarray:
        dx = xs[pidx][:, None, :] - ux3  # (g, m, cap)
        dy = ys[pidx][:, None, :] - uy3
        if squared:
            d = dx * dx + dy * dy
            return d.max(axis=1)
        return np.hypot(dx, dy).sum(axis=1)

    def pair_bounds(lvl, nid: np.ndarray, gidx: np.ndarray) -> np.ndarray:
        lo_x, lo_y, hi_x, hi_y = lvl.columns()
        gx = qxm[gidx]  # (p, m)
        gy = qym[gidx]
        blx = lo_x[nid][:, None]
        bhx = hi_x[nid][:, None]
        bly = lo_y[nid][:, None]
        bhy = hi_y[nid][:, None]
        dx = np.maximum(np.maximum(blx - gx, gx - bhx), 0.0)
        dy = np.maximum(np.maximum(bly - gy, gy - bhy), 0.0)
        if squared:
            D = dx * dx + dy * dy
            return D.max(axis=1)
        return np.hypot(dx, dy).sum(axis=1)

    def pair_points(nid: np.ndarray, gidx: np.ndarray) -> np.ndarray:
        dx = xs[nid][:, None] - qxm[gidx]  # (p, m)
        dy = ys[nid][:, None] - qym[gidx]
        if squared:
            d = dx * dx + dy * dy
            return d.max(axis=1)
        return np.hypot(dx, dy).sum(axis=1)

    def buffer_points(bpts: np.ndarray) -> np.ndarray:
        dx = bpts[:, 0][None, None, :] - ux3  # (g, m, nb)
        dy = bpts[:, 1][None, None, :] - uy3
        if squared:
            d = dx * dx + dy * dy
            return d.max(axis=1)
        return np.hypot(dx, dy).sum(axis=1)

    return block_bounds, block_points, pair_bounds, pair_points, buffer_points


def gnn_batch(
    tree, U: np.ndarray, k: int, agg: str
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Exact k-GNN for many groups in one vectorized pass.

    ``U`` is ``(g, m, 2)`` — ``g`` groups of ``m`` users each.  Strategy: (1) greedy batched descent
    from the root, each group following its minimum-lower-bound child,
    lands every group on its most promising *seed leaf*; (2) the k-th
    best aggregate distance over the seed leaf's live points plus the
    whole arena upper-bounds the true k-th best; (3) a frontier of
    (group, node) pairs descends from the root again, dropping every
    pair whose lower bound exceeds the group's bound, and the
    surviving leaves' live points — joined by the arena points under
    the bound — are scored and segment-selected to the top k per
    group.  All three phases cost a constant number of NumPy calls per
    tree level, independent of g.  Returns ``(scores, ids)`` of shape
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
    # optimal) source for the pruning bound.
    seed = np.zeros(g, dtype=np.int64)
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
    # its own score <= the bound.
    gid = np.arange(g, dtype=np.int64)
    nid = np.zeros(g, dtype=np.int64)
    for level in range(len(levels) - 1, -1, -1):
        lvl = levels[level]
        sc = pair_bounds(lvl, nid, gid)
        keep = sc <= bound[gid]
        gid = gid[keep]
        nid = nid[keep]
        counts = lvl.count[nid]
        gid = np.repeat(gid, counts)
        nid = expand_ranges(lvl.start[nid], counts)

    if alive is not None and nid.size:
        keep = alive[nid]
        gid = gid[keep]
        nid = nid[keep]
    sc = pair_points(nid, gid)
    sel = sc <= bound[gid]  # drop losers before the sort
    gid = gid[sel]
    nid = nid[sel]
    sc = sc[sel]
    if bsc is not None:
        inb = bsc <= bound[:, None]  # (g, nb)
        gb, jb = np.nonzero(inb)
        gid = np.concatenate([gid, gb.astype(np.int64)])
        nid = np.concatenate([nid, buf_ids[jb]])
        sc = np.concatenate([sc, bsc[inb]])

    # Segment-select the k best per group.
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
