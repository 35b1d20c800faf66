"""Discrete operational-state identification via K-Means (Lloyd's algorithm).

Fitting minimizes the within-cluster sum of squared Euclidean distances.
Initialization is greedy k-means++ (several candidates per step, keep the
potential minimizer) with a fixed seed; multiple restarts keep the best
objective.  Each restart runs Lloyd to a fixpoint and then applies exact
single-point reassignment moves (Hartigan-style) until none improves,
re-entering Lloyd after every improvement: plain Lloyd restarts provably
stall in non-optimal basins on small instances.  The objective is
non-increasing across the whole iteration history.  An empty cluster during
iteration is repaired by reseeding its centroid to the point farthest from
its assigned centroid.

A fit transposes its (n, d) points once into a contiguous (d, n) copy, the
layout the restart, Lloyd and polish functions take.  Every distance comes
from ``_block_dists``, which adds one feature column at a time in the order of
the row-major einsum it replaced, over column blocks of at most ``BLOCK_BYTES``
of distances in buffers reused from block to block: a pass stays in L2 and
builds no (k, n) temporary.  No bit moves, as every distance is elementwise, a
minimum is exact and the seeding potentials still sum over whole rows.

On points that span more than one block, each Lloyd pass after the first
computes every own-centroid distance exactly and keeps a label without the
other rows when the triangle inequality proves it: the distance is under half
the gap to the nearest other centroid (Elkan), or under the point's bound on
all others, the second smallest at its last full pass less each later pass's
largest centroid move (Hamerly).  A bound shrinks by ``_MARGIN`` (1e-9,
relative) and ``_FLOOR`` whenever made or moved, far past rounding and
underflow, so a proven label is the full kernel's strict minimum and no bit
moves.  A pass that moves no label ends Lloyd without summing again; given its
distances, the polish returns before any pass when no move can pay.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError

# bytes of one (k, w) block of distances; a block's three buffers stay in L2
BLOCK_BYTES = 1 << 18
_MARGIN, _FLOOR, _MAX = 1e-9, 1e-140, np.finfo(np.float64).max


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray          # (k, d)
    inertia: float                 # sum of squared distances at fit time
    feature_spec: str              # which columns were clustered ("settings" | "sensors")

    def __post_init__(self):
        if self.centroids.ndim != 2 or self.centroids.shape[0] != self.k:
            raise ContractError(f"expected ({self.k}, d) centroids, got shape {self.centroids.shape}")
        if np.isnan(self.centroids).any():
            raise ContractError("centroid contains NaN")


def _lane_features(d: int):
    """Feature indices of a distance's two partial sums (even and odd
    positions) in the order their terms are added: numpy's two-lane einsum
    order, which adds whole blocks of eight from the last pair to the first."""
    evens = [b + j for b in range(0, d - d % 8, 8) for j in (6, 4, 2, 0)]
    evens += range(d - d % 8, d, 2)
    return evens, [i + 1 for i in evens if i + 1 < d]


def _block_dists(cols: np.ndarray, centroids: np.ndarray, idx=None):
    """Yield (slice, (k, w) squared distances) per block of the points ``cols``
    (d, n) or of its columns ``idx`` against the centroid rows, adding feature
    columns in :func:`_lane_features` order into buffers reused block to block."""
    d, n, k = cols.shape[0], cols.shape[1] if idx is None else len(idx), len(centroids)
    w = max(1, BLOCK_BYTES // (8 * k))
    lanes, taken = np.empty((3, k, min(w, n))), None if idx is None else np.empty((d, min(w, n)))
    for start in range(0, n, w):
        at = slice(start, start + w)
        x = cols[:, at] if idx is None else np.take(cols, idx[at], axis=1, out=taken[:, :min(w, n - start)], mode="clip")
        even, odd, term = lanes[:, :, :x.shape[1]]
        for lane, features in zip((even, odd), _lane_features(d)):
            for pos, i in enumerate(features):
                dst = term if pos else lane
                np.subtract(x[i], centroids[:, i, None], out=dst)
                np.multiply(dst, dst, out=dst)
                if pos:
                    np.add(lane, term, out=lane)
        yield at, np.add(even, odd, out=even) if d > 1 else even


def _sq_dists(cols: np.ndarray, centroids: np.ndarray, out=None) -> np.ndarray:
    """(k, n) squared distances from the points ``cols`` (d, n) to each
    centroid row, filled into ``out`` (new if None) one ``BLOCK_BYTES`` block
    at a time; every value is elementwise, so no bit depends on the blocks."""
    out = np.empty((len(centroids), cols.shape[1])) if out is None else out
    for at, d2 in _block_dists(cols, centroids):
        out[:, at] = d2
    return out


def _own_blocks(cols: np.ndarray, centroids: np.ndarray, labels: np.ndarray):
    """Yield (slice, own, spare) per block of the points ``cols`` (d, n): the
    squared distances to their own centroid rows, added as in ``_block_dists``."""
    (d, n), rows = cols.shape, np.ascontiguousarray(centroids.T)
    w = max(1, BLOCK_BYTES // (8 * (d + 1)))
    terms, (evens, odds) = np.empty((d + 1, min(w, n))), _lane_features(d)
    for start in range(0, n, w):
        at = slice(start, min(start + w, n))
        t = np.take(rows, labels[at], axis=1, out=terms[:d, :at.stop - start], mode="clip")
        np.subtract(cols[:, at], t, out=t)
        np.multiply(t, t, out=t)
        for lane in (evens, odds):
            for i in lane[1:]:
                np.add(t[lane[0]], t[i], out=t[lane[0]])
        yield at, np.add(t[evens[0]], t[odds[0]], out=t[evens[0]]) if d > 1 else t[0], terms[d, :at.stop - start]


def _nearest(cols: np.ndarray, centroids: np.ndarray, idx=None, bounds=False):
    """Each point's (of the columns ``idx``, if given) nearest centroid index
    and squared distance, block by block; only a strictly smaller distance
    takes over, so ties go low.  ``bounds`` adds its bound on the others."""
    n = cols.shape[1] if idx is None else len(idx)
    labels, best, closer = np.zeros(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    second = np.full(n, np.inf) if bounds else None
    for at, d2 in _block_dists(cols, centroids, idx):
        label, low, less = labels[at], best[at], closer[at]
        low[:] = d2[0]
        for j in range(1, len(d2)):
            np.putmask(label, np.less(d2[j], low, out=less), j)
            if bounds:                  # the larger of the old minimum and row j, into spent row j - 1
                np.minimum(second[at], np.maximum(low, d2[j], out=d2[j - 1]), out=second[at])
            np.minimum(low, d2[j], out=low)
    if bounds:                          # an overflowed square says only that the distance passes sqrt(_MAX)
        np.sqrt(np.minimum(second, _MAX, out=second), out=second)
        np.subtract(np.multiply(second, 1.0 - _MARGIN, out=second), _FLOOR, out=second)
    return labels, best, second


def _center_gaps(centroids: np.ndarray) -> np.ndarray:
    """(k, k) distances between the centroid rows (sqrt(_MAX) where a square
    overflows, a lower bound), +inf on the diagonal."""
    return np.sqrt(np.minimum(((centroids[:, None] - centroids) ** 2).sum(axis=2), _MAX)) + np.diag([np.inf] * len(centroids))


def _assign_pass(cols, centroids, shift, labels, assigned, lower, bounds):
    """Lloyd's assignment to ``centroids``, none of which moved more than
    ``shift`` since the pass that left ``labels``, ``assigned`` and ``lower``,
    by the full kernel on the points the bounds leave open (all if ``lower`` is
    None).  Returns whether no label moved, and the new (labels, assigned, lower)."""
    if lower is None:
        state = _nearest(cols, centroids, bounds=bounds)
        return np.array_equal(state[0], labels), state
    half, open_ = 0.5 * (1.0 - _MARGIN) * _center_gaps(centroids).min(axis=1) - _FLOOR, []
    for at, own, bound in _own_blocks(cols, centroids, labels):
        assigned[at], low = own, lower[at]
        np.multiply(np.subtract(low, shift * (1.0 + _MARGIN), out=low), 1.0 - _MARGIN, out=low)   # Hamerly
        np.maximum(np.take(half, labels[at], out=bound, mode="clip"), low, out=bound)
        open_.append(at.start + np.flatnonzero(~(np.sqrt(own, out=own) < bound)))   # NaN proves nothing
    open_ = np.concatenate(open_)
    new, assigned[open_], lower[open_] = _nearest(cols, centroids, open_, bounds=True)
    unmoved, labels[open_] = np.array_equal(new, labels[open_]), new
    return unmoved, (labels, assigned, lower)


def _cluster_sums(cols: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster coordinate sums, accumulated in point order."""
    return np.stack([np.bincount(labels, weights=x, minlength=k) for x in cols], axis=1)


def _kmeanspp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: D^2-sample a few candidates, keep the potential minimizer."""
    n = cols.shape[1]
    n_candidates = min(n, 2 + int(np.log(k))) if k > 1 else 1
    centroids = np.empty((k, cols.shape[0]))
    centroids[0] = cols[:, rng.integers(n)]
    rows = np.empty((1 + n_candidates, n))      # one block, a restart's largest: glibc trims only past twice that
    closest, reach = _sq_dists(cols, centroids[:1], out=rows[:1])[0], rows[1:]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining mass is zero: all points duplicate chosen centroids
            centroids[j] = cols[:, rng.integers(n)]
            continue
        draws = rng.random(n_candidates) * total
        candidates = np.minimum(np.searchsorted(np.cumsum(closest), draws), n - 1)
        for at, d2 in _block_dists(cols, cols[:, candidates].T):
            np.minimum(closest[at], d2, out=reach[:, at])
        del d2                  # a block is a view: it would hold its buffers into the next step's
        best = int(np.argmin(reach.sum(axis=1)))
        centroids[j] = cols[:, candidates[best]]
        np.copyto(closest, reach[best])
    return centroids


def _single_point_moves(cols: np.ndarray, labels: np.ndarray, k: int, max_moves: int = 200, means=None, own=None):
    """Best-improvement single-point reassignments with exact objective deltas.

    Moving x from cluster a (size n_a) to b (size n_b) changes the objective
    by n_b/(n_b+1)*d(x,mu_b)^2 - n_a/(n_a-1)*d(x,mu_a)^2; moves of lone
    points are forbidden so no cluster empties.  Of equal best moves, the one
    with the lowest (point, cluster) index pair is taken.  Returns the means
    of the final assignment and the number of moves applied.  ``means`` and
    ``own`` are an unmoved Lloyd run's centroids and own distances, or None.
    """
    n = cols.shape[1]
    at = np.arange(n)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = None if own is not None else _cluster_sums(cols, labels, k)
    centroids = means.copy() if sums is None else np.divide(sums, counts[:, None], out=np.zeros_like(sums),
                                                             where=counts[:, None] > 0)
    if counts.all():                    # else an empty cluster takes any point
        # x of cluster a lies within r_a (its farthest member) of mu_a, so at least |mu_a - mu_b| - r_a from
        # mu_b, and moving it to b pays only if sqrt(n_b/(n_b+1)) d(x, mu_b) < sqrt(n_a/(n_a-1)) d(x, mu_a)
        grow, shrink = np.sqrt(counts / (counts + 1.0)), np.sqrt(counts / np.maximum(counts - 1.0, 1.0))
        limit = ((1.0 - _MARGIN) * grow * _center_gaps(centroids) / (grow + shrink[:, None])).min(axis=1) ** 2
        checks = [own < limit[labels]] if sums is None else (
            dist < limit[labels[cut][part]] for cut in (slice(0, 256), slice(None))   # 256 points refute most
            for part, dist, _ in _own_blocks(cols[:, cut], centroids, labels[cut]))
        if all(check.all() for check in checks):
            return centroids, 0
    sums = _cluster_sums(cols, labels, k) if sums is None else sums
    d2 = _sq_dists(cols, centroids)
    w = max(1, BLOCK_BYTES // (8 * k))
    delta, best = np.empty((k, min(w, n))), np.empty(n)   # a block of deltas, each point's best
    moves = 0
    while moves < max_moves:
        own_count = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            removal_gain = (own_count / (own_count - 1.0)) * d2[labels, at]
        removal_gain[own_count == 1] = -np.inf
        growth = (counts / (counts + 1.0))[:, None]   # 0 for an empty cluster
        for start in range(0, n, w):
            block, cut = delta[:, :min(w, n - start)], slice(start, start + w)
            np.multiply(growth, d2[:, cut], out=block)
            np.subtract(block, removal_gain[cut], out=block)
            block[labels[cut], at[:block.shape[1]]] = np.inf
            block.min(axis=0, out=best[cut])
        i = int(best.argmin())
        if not best[i] < -1e-12:
            break
        column = growth[:, 0] * d2[:, i] - removal_gain[i]
        column[labels[i]] = np.inf
        j = int(column.argmin())
        a = labels[i]
        labels[i] = j
        counts[a] -= 1.0
        counts[j] += 1.0
        sums[a] -= cols[:, i]
        sums[j] += cols[:, i]
        # only the two touched means move, and neither cluster is empty now
        centroids[[a, j]] = sums[[a, j]] / counts[[a, j], None]
        rows = slice(min(a, j), max(a, j) + 1, abs(a - j))    # rows a and j, as a view
        _sq_dists(cols, centroids[rows], out=d2[rows])
        moves += 1
    return centroids, moves


def fit_single_restart(cols: np.ndarray, k: int, seed: int, max_iter: int, tol: float):
    """One seeded restart on the points ``cols`` (d, n): greedy k-means++,
    Lloyd, then polish-and-rerun.  Returns (centroids, labels, inertia,
    inertia_history); the history is non-increasing across the entire run.
    """
    init = _kmeanspp_init(cols, k, np.random.default_rng(seed))
    centroids, labels, inertia, history, own = lloyd_iterations(cols, init, max_iter, tol)
    for _ in range(50):
        moved_centroids, n_moves = _single_point_moves(cols, labels.copy(), k, means=centroids, own=own)
        if not n_moves:
            break
        centroids, labels, inertia, more, own = lloyd_iterations(cols, moved_centroids, max_iter, tol)
        history += more
    return centroids, labels, inertia, history


def lloyd_iterations(cols: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    """Run Lloyd updates on the points ``cols`` (d, n) from the given (k, d)
    centroids.  Returns (centroids, labels, inertia, inertia_history, own)
    where the history holds the objective after every assignment step.  If no
    label moved in the last pass, the centroids are the means of the labels and
    ``own`` their squared distances as ``_block_dists`` adds them; else None.
    """
    k = centroids.shape[0]
    bounds = cols.shape[1] > BLOCK_BYTES // (8 * k)      # one block's pass is call overhead, which bounds do not cut
    history, shift, unmoved, labels, assigned, lower = [], 0.0, False, None, None, None
    for _ in range(max_iter):
        converged, (labels, assigned, lower) = _assign_pass(cols, centroids, shift, labels, assigned, lower, bounds)
        inertia = float(assigned.sum())
        history.append(inertia)
        counts = np.bincount(labels, minlength=k)[:, None]
        if converged and counts.all():
            unmoved = True                       # the same labels give the same means
            break
        sums = _cluster_sums(cols, labels, k)
        updated = np.divide(sums, counts, out=centroids.copy(), where=counts > 0)
        for j in np.flatnonzero(counts == 0):
            # deterministic repair: move to the point farthest from its centroid
            far = int(assigned.argmax())
            updated[j] = cols[:, far]
            assigned[far] = -1.0                 # keep later repairs off this point
        shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1).max()))
        # no repair and not a bit moved: this pass already holds the final assignment
        unmoved = counts.all() and updated.tobytes() == centroids.tobytes()
        centroids = updated
        if converged or shift < tol:
            break
    if not unmoved:
        _, (labels, assigned, lower) = _assign_pass(cols, centroids, shift, labels, assigned, lower, bounds)
    inertia = float(assigned.sum())
    history.append(inertia)
    return centroids, labels, inertia, history, assigned if unmoved else None


@np.errstate(over="ignore", invalid="ignore")      # an overflowed distance is +inf, and a NaN bound proves nothing
def kmeans_fit(
    points: np.ndarray,
    k: int,
    max_iter: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 10,
    feature_spec: str = "settings",
) -> ClusterModel:
    """Best-of-``restarts`` K-Means fit with k-means++ initialization."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or not points.shape[1]:
        raise DimensionError(f"points must be 2-d with at least one column, got shape {points.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    cols = np.ascontiguousarray(points.T)
    unseen, n_distinct = np.ones(cols.shape[1], dtype=bool), 0
    while n_distinct < k and unseen.any():        # distinct points, counted up to k
        unseen &= (cols != cols[:, unseen.argmax(), None]).any(axis=0)
        n_distinct += 1
    if n_distinct < k:
        raise ContractError(f"need at least {k} distinct points, got {n_distinct}")

    fits = (fit_single_restart(cols, k, seed + r, max_iter, tol) for r in range(max(restarts, 1)))
    centroids, _, inertia, _ = min(fits, key=lambda fit: fit[2])     # the first best on ties
    return ClusterModel(k=k, centroids=centroids, inertia=inertia, feature_spec=feature_spec)


@np.errstate(over="ignore")                       # a far-out point's squared distance is +inf, which still compares
def assign_states(points: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Index of the nearest centroid per row; ties break to the lowest index."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.centroids.shape[1]:
        raise DimensionError(
            f"points shape {points.shape} does not match centroids {model.centroids.shape}"
        )
    return _nearest(np.ascontiguousarray(points.T), model.centroids)[0]


def relabel_canonical(model: ClusterModel, train_points: np.ndarray) -> ClusterModel:
    """Permute cluster ids into a canonical order.

    Order is descending assignment count over ``train_points``, ties broken
    by lexicographic centroid comparison, so runs with different seeds yield
    comparable labels.
    """
    labels = assign_states(train_points, model)
    counts = np.bincount(labels, minlength=model.k)
    order = sorted(range(model.k), key=lambda j: (-counts[j], tuple(model.centroids[j])))
    return replace(model, centroids=model.centroids[order].copy())
