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
layout the restart, Lloyd and polish functions take.  Every distance (seeding,
Lloyd, polish, ``assign_states``) comes from one kernel, ``_sq_dists``, which
adds one feature column at a time into a (k, n) matrix in the summation order
of the row-major einsum it replaced, so fits keep their bits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray          # (k, d)
    inertia: float                 # sum of squared distances at fit time
    feature_spec: str              # which columns were clustered ("settings" | "sensors")

    def __post_init__(self):
        if self.centroids.shape[0] != self.k:
            raise ContractError(f"expected {self.k} centroids, got {self.centroids.shape[0]}")
        if np.isnan(self.centroids).any():
            raise ContractError("centroid contains NaN")


def _lane_features(d: int):
    """Feature indices of a distance's two partial sums (even and odd
    positions) in the order their terms are added: numpy's two-lane einsum
    order, which adds whole blocks of eight from the last pair to the first."""
    evens = [b + j for b in range(0, d - d % 8, 8) for j in (6, 4, 2, 0)]
    evens += range(d - d % 8, d, 2)
    return evens, [i + 1 for i in evens if i + 1 < d]


def _sq_dists(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, n) squared distances from the points ``cols`` (d, n) to each
    centroid row, adding feature columns in :func:`_lane_features` order."""
    lanes = []
    for features in _lane_features(len(cols)):
        terms = ((cols[i] - centroids[:, i, None]) ** 2 for i in features)
        lanes.append(next(terms, None))
        for term in terms:
            lanes[-1] += term
    even, odd = lanes
    return even if odd is None else np.add(even, odd, out=even)


def _nearest(d2: np.ndarray):
    """Row index and value of each column's minimum in ``d2`` (k, n); only a
    strictly smaller row takes over, so ties go to the lowest index."""
    labels, best = np.zeros(d2.shape[1], dtype=np.intp), d2[0].copy()
    for j in range(1, len(d2)):
        labels[d2[j] < best] = j
        np.minimum(best, d2[j], out=best)
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
    closest = _sq_dists(cols, centroids[:1])[0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining mass is zero: all points duplicate chosen centroids
            centroids[j] = cols[:, rng.integers(n)]
            continue
        draws = rng.random(n_candidates) * total
        candidates = np.minimum(np.searchsorted(np.cumsum(closest), draws), n - 1)
        reach = np.minimum(closest, _sq_dists(cols, cols[:, candidates].T))
        best = int(np.argmin(reach.sum(axis=1)))
        centroids[j] = cols[:, candidates[best]]
        closest = reach[best]
    return centroids


def _single_point_moves(cols: np.ndarray, labels: np.ndarray, k: int, max_moves: int = 200):
    """Best-improvement single-point reassignments with exact objective deltas.

    Moving x from cluster a (size n_a) to b (size n_b) changes the objective
    by n_b/(n_b+1)*d(x,mu_b)^2 - n_a/(n_a-1)*d(x,mu_a)^2; moves of lone
    points are forbidden so no cluster empties.  Of equal best moves, the one
    with the lowest (point, cluster) index pair is taken.  Returns the means
    of the final assignment and the number of moves applied.
    """
    at = np.arange(cols.shape[1])
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = _cluster_sums(cols, labels, k)
    centroids = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
    d2 = _sq_dists(cols, centroids)
    moves = 0
    while moves < max_moves:
        own_count = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            removal_gain = (own_count / (own_count - 1.0)) * d2[labels, at]
        removal_gain[own_count == 1] = -np.inf
        addition_cost = (counts / (counts + 1.0))[:, None] * d2   # 0 for an empty cluster
        delta = addition_cost - removal_gain
        delta[labels, at] = np.inf
        i = int(delta.min(axis=0).argmin())
        j = int(delta[:, i].argmin())
        if not delta[j, i] < -1e-12:
            break
        a = labels[i]
        labels[i] = j
        counts[a] -= 1.0
        counts[j] += 1.0
        sums[a] -= cols[:, i]
        sums[j] += cols[:, i]
        # only the two touched means move, and neither cluster is empty now
        centroids[[a, j]] = sums[[a, j]] / counts[[a, j], None]
        d2[[a, j]] = _sq_dists(cols, centroids[[a, j]])
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
    labels = None
    for _ in range(max_iter):
        new_labels, assigned = _nearest(_sq_dists(cols, centroids))
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
        centroids, labels = updated, new_labels
        if converged or shift < tol:
            break
    labels, assigned = _nearest(_sq_dists(cols, centroids))
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
    return _nearest(_sq_dists(np.ascontiguousarray(points.T), model.centroids))[0]


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
