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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError

# bytes of one (k, w) block of distances; a block's three buffers stay in L2
BLOCK_BYTES = 1 << 18


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


def _block_dists(cols: np.ndarray, centroids: np.ndarray):
    """Yield (column slice, (k, w) squared distances) per block of the points
    ``cols`` (d, n) against the centroid rows, adding feature columns in
    :func:`_lane_features` order into buffers that the next block reuses."""
    (d, n), k = cols.shape, len(centroids)
    w = max(1, BLOCK_BYTES // (8 * k))
    lanes = np.empty((3, k, min(w, n)))
    for start in range(0, n, w):
        x = cols[:, start:start + w]
        even, odd, term = lanes[:, :, :x.shape[1]]
        for lane, features in zip((even, odd), _lane_features(d)):
            for pos, i in enumerate(features):
                dst = term if pos else lane
                np.subtract(x[i], centroids[:, i, None], out=dst)
                np.multiply(dst, dst, out=dst)
                if pos:
                    np.add(lane, term, out=lane)
        yield slice(start, start + x.shape[1]), np.add(even, odd, out=even) if d > 1 else even


def _sq_dists(cols: np.ndarray, centroids: np.ndarray, out=None) -> np.ndarray:
    """(k, n) squared distances from the points ``cols`` (d, n) to each
    centroid row, filled into ``out`` (new if None) one ``BLOCK_BYTES`` block
    at a time; every value is elementwise, so no bit depends on the blocks."""
    out = np.empty((len(centroids), cols.shape[1])) if out is None else out
    for at, d2 in _block_dists(cols, centroids):
        out[:, at] = d2
    return out


def _nearest(cols: np.ndarray, centroids: np.ndarray):
    """Each point's nearest centroid index and squared distance, block by
    block; only a strictly smaller distance takes over, so ties go low."""
    n = cols.shape[1]
    labels, best, closer = np.zeros(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    for at, d2 in _block_dists(cols, centroids):
        label, low, less = labels[at], best[at], closer[at]
        low[:] = d2[0]
        for j in range(1, len(d2)):
            np.putmask(label, np.less(d2[j], low, out=less), j)
            np.minimum(low, d2[j], out=low)
    return labels, best


def _cluster_sums(cols: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster coordinate sums, accumulated in point order."""
    return np.stack([np.bincount(labels, weights=x, minlength=k) for x in cols], axis=1)


def _kmeanspp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: D^2-sample a few candidates, keep the potential minimizer."""
    n = cols.shape[1]
    n_candidates = min(n, 2 + int(np.log(k))) if k > 1 else 1
    centroids = np.empty((k, cols.shape[0]))
    centroids[0] = cols[:, rng.integers(n)]
    closest, reach = _sq_dists(cols, centroids[:1])[0], np.empty((n_candidates, n))
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
        best = int(np.argmin(reach.sum(axis=1)))
        centroids[j] = cols[:, candidates[best]]
        np.copyto(closest, reach[best])
    return centroids


def _single_point_moves(cols: np.ndarray, labels: np.ndarray, k: int, max_moves: int = 200):
    """Best-improvement single-point reassignments with exact objective deltas.

    Moving x from cluster a (size n_a) to b (size n_b) changes the objective
    by n_b/(n_b+1)*d(x,mu_b)^2 - n_a/(n_a-1)*d(x,mu_a)^2; moves of lone
    points are forbidden so no cluster empties.  Of equal best moves, the one
    with the lowest (point, cluster) index pair is taken.  Returns the means
    of the final assignment and the number of moves applied.
    """
    n = cols.shape[1]
    at = np.arange(n)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = _cluster_sums(cols, labels, k)
    centroids = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
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
    centroids, labels, inertia, history = lloyd_iterations(cols, init, max_iter, tol)
    for _ in range(50):
        moved_centroids, n_moves = _single_point_moves(cols, labels.copy(), k)
        if not n_moves:
            break
        centroids, labels, inertia, more = lloyd_iterations(cols, moved_centroids, max_iter, tol)
        history += more
    return centroids, labels, inertia, history


def lloyd_iterations(cols: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    """Run Lloyd updates on the points ``cols`` (d, n) from the given (k, d)
    centroids.  Returns (centroids, labels, inertia, inertia_history) where
    the history holds the objective after every assignment step.
    """
    k = centroids.shape[0]
    history = []
    labels, unmoved = None, False
    for _ in range(max_iter):
        new_labels, assigned = _nearest(cols, centroids)
        inertia = float(assigned.sum())
        history.append(inertia)
        counts = np.bincount(new_labels, minlength=k)[:, None]
        sums = _cluster_sums(cols, new_labels, k)
        updated = np.divide(sums, counts, out=centroids.copy(), where=counts > 0)
        for j in np.flatnonzero(counts == 0):
            # deterministic repair: move to the point farthest from its centroid
            far = int(assigned.argmax())
            updated[j] = cols[:, far]
            assigned[far] = -1.0                 # keep later repairs off this point
        shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1).max()))
        converged = labels is not None and np.array_equal(labels, new_labels)
        # no repair and not a bit moved: this pass already holds the final assignment
        unmoved = counts.all() and updated.tobytes() == centroids.tobytes()
        centroids, labels = updated, new_labels
        if converged or shift < tol:
            break
    if not unmoved:
        labels, assigned = _nearest(cols, centroids)
    inertia = float(assigned.sum())
    history.append(inertia)
    return centroids, labels, inertia, history


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
