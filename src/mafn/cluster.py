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


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared distances."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: D^2-sample a few candidates, keep the potential minimizer."""
    n = points.shape[0]
    n_candidates = min(n, 2 + int(np.log(k))) if k > 1 else 1
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining mass is zero: all points duplicate chosen centroids
            centroids[j] = points[rng.integers(n)]
            continue
        draws = rng.random(n_candidates) * total
        candidates = np.minimum(np.searchsorted(np.cumsum(closest), draws), n - 1)
        potentials = [
            np.minimum(closest, ((points - points[idx]) ** 2).sum(axis=1)).sum()
            for idx in candidates
        ]
        centroids[j] = points[candidates[int(np.argmin(potentials))]]
        closest = np.minimum(closest, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _single_point_moves(points: np.ndarray, labels: np.ndarray, k: int, max_moves: int = 200):
    """Best-improvement single-point reassignments with exact objective deltas.

    Moving x from cluster a (size n_a) to b (size n_b) changes the objective
    by n_b/(n_b+1)*d(x,mu_b)^2 - n_a/(n_a-1)*d(x,mu_a)^2; moves of lone
    points are forbidden so no cluster empties.  Returns the means of the
    final assignment and the number of moves applied.
    """
    n, d = points.shape
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros((k, d))
    np.add.at(sums, labels, points)
    moves = 0
    while moves < max_moves:
        nonempty = counts > 0
        centroids = np.zeros((k, d))
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        d2 = _sq_dists(points, centroids)
        own_count = counts[labels]
        own = d2[np.arange(n), labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            removal_gain = (own_count / (own_count - 1.0)) * own
        addition_cost = (counts[None, :] / (counts[None, :] + 1.0)) * d2
        addition_cost[:, ~nonempty] = 0.0
        delta = addition_cost - removal_gain[:, None]
        delta[own_count == 1, :] = np.inf
        delta[np.arange(n), labels] = np.inf
        i, j = np.unravel_index(np.argmin(delta), delta.shape)
        if not delta[i, j] < -1e-12:
            break
        a = labels[i]
        labels[i] = j
        counts[a] -= 1.0
        counts[j] += 1.0
        sums[a] -= points[i]
        sums[j] += points[i]
        moves += 1
    nonempty = counts > 0
    centroids = np.zeros((k, d))
    centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centroids, moves


def fit_single_restart(points: np.ndarray, k: int, seed: int, max_iter: int, tol: float):
    """One seeded restart: greedy k-means++, Lloyd, then polish-and-rerun.

    Returns (centroids, labels, inertia, inertia_history); the history is
    non-increasing across the entire run.
    """
    rng = np.random.default_rng(seed)
    init = _kmeanspp_init(points, k, rng)
    centroids, labels, inertia, history = lloyd_iterations(points, init, max_iter, tol)
    for _ in range(50):
        moved_centroids, n_moves = _single_point_moves(points, labels.copy(), k)
        if not n_moves:
            break
        centroids, labels, inertia, more = lloyd_iterations(points, moved_centroids, max_iter, tol)
        history += more
    return centroids, labels, inertia, history


def lloyd_iterations(points: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    """Run Lloyd updates from the given centroids.

    Returns (centroids, labels, inertia, inertia_history) where the history
    holds the objective after every assignment step.
    """
    history = []
    labels = None
    for _ in range(max_iter):
        d2 = _sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)          # argmin ties break to lowest index
        assigned = d2[np.arange(len(points)), new_labels]
        inertia = float(assigned.sum())
        history.append(inertia)
        updated = centroids.copy()
        reseed_pool = assigned.copy()
        for j in range(centroids.shape[0]):
            members = points[new_labels == j]
            if len(members):
                updated[j] = members.mean(axis=0)
            else:
                # deterministic repair: move to the point farthest from its centroid
                far = int(reseed_pool.argmax())
                updated[j] = points[far]
                reseed_pool[far] = -1.0          # keep later repairs off this point
        shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1).max()))
        converged = labels is not None and np.array_equal(labels, new_labels)
        centroids, labels = updated, new_labels
        if converged or shift < tol:
            break
    d2 = _sq_dists(points, centroids)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
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
    if points.ndim != 2:
        raise DimensionError(f"points must be 2-d, got shape {points.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    n_distinct = len(np.unique(points, axis=0))
    if n_distinct < k:
        raise ContractError(f"need at least {k} distinct points, got {n_distinct}")

    best = None
    for r in range(max(restarts, 1)):
        centroids, _, inertia, _ = fit_single_restart(points, k, seed + r, max_iter, tol)
        if best is None or inertia < best[0]:
            best = (inertia, centroids)
    inertia, centroids = best
    return ClusterModel(k=k, centroids=centroids, inertia=inertia, feature_spec=feature_spec)


def assign_states(points: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Index of the nearest centroid per row; ties break to the lowest index."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.centroids.shape[1]:
        raise DimensionError(
            f"points shape {points.shape} does not match centroids {model.centroids.shape}"
        )
    return _sq_dists(points, model.centroids).argmin(axis=1)


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
