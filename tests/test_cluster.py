import itertools

try:
    import resource
except ImportError:                      # not on every platform
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mafn.cluster
from mafn.cluster import (
    ClusterModel,
    _assign_pass,
    _single_point_moves,
    _sq_dists,
    assign_states,
    kmeans_fit,
    lloyd_iterations,
    relabel_canonical,
)
from mafn.errors import ContractError, DimensionError
from mafn.synthetic import SynthSpec, generate


def brute_force_inertia(points, k):
    """Minimum within-cluster sum of squares over every assignment."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def blobs(rng, centers, per_blob=20, sigma=0.02):
    pts = [c + sigma * rng.normal(size=(per_blob, len(c))) for c in centers]
    return np.concatenate(pts), np.repeat(np.arange(len(centers)), per_blob)


def reference_sq_dists(points, centroids):
    """(n, k) squared distances the row-major way: one einsum over (n, k, d)."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_lloyd(points, centroids, max_iter, tol):
    """Row-major Lloyd from the (k, d) ``centroids``.  Returns (centroids,
    labels, inertia, history of the objective after every assignment)."""
    k, at = len(centroids), np.arange(len(points))
    labels, history = None, []
    for _ in range(max_iter):
        d2 = reference_sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)
        reseed_pool = d2[at, new_labels]
        history.append(float(reseed_pool.sum()))
        updated = centroids.copy()
        for j in range(k):
            members = points[new_labels == j]
            if len(members):
                updated[j] = members.mean(axis=0)
            else:
                far = int(reseed_pool.argmax())
                updated[j] = points[far]
                reseed_pool[far] = -1.0
        shift = np.sqrt(((updated - centroids) ** 2).sum(axis=1).max())
        converged = labels is not None and np.array_equal(labels, new_labels)
        centroids, labels = updated, new_labels
        if converged or shift < tol:
            break
    d2 = reference_sq_dists(points, centroids)
    labels = d2.argmin(axis=1)
    history.append(float(d2[at, labels].sum()))
    return centroids, labels, history[-1], history


def reference_polish(points, labels, k, max_moves=200):
    """Row-major single-point moves on ``labels`` (changed in place): every
    move rebuilds the full (n, k) delta matrix.  Returns (means, moves)."""
    n, d = points.shape
    at = np.arange(n)

    def means(sums, counts):
        centroids = np.zeros((k, d))
        centroids[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        return centroids

    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros((k, d))
    np.add.at(sums, labels, points)
    for moves in range(max_moves):
        d2 = reference_sq_dists(points, means(sums, counts))
        own_count = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            removal_gain = (own_count / (own_count - 1.0)) * d2[at, labels]
        addition_cost = (counts[None, :] / (counts[None, :] + 1.0)) * d2
        addition_cost[:, counts == 0] = 0.0
        delta = addition_cost - removal_gain[:, None]
        delta[own_count == 1, :] = np.inf
        delta[at, labels] = np.inf
        i, j = np.unravel_index(np.argmin(delta), delta.shape)
        if not delta[i, j] < -1e-12:
            return means(sums, counts), moves
        a = labels[i]
        labels[i] = j
        counts[a] -= 1.0
        counts[j] += 1.0
        sums[a] -= points[i]
        sums[j] += points[i]
    return means(sums, counts), max_moves


def reference_fit(points, k, seed, restarts=10, max_iter=100, tol=1e-8):
    """The row-major K-Means fit that the column-major kernels replace: greedy
    k-means++, Lloyd, then single-point polish and Lloyd again, best of
    ``restarts``.  Returns (centroids, inertia, polish moves over all restarts)."""
    n, d = points.shape
    best, total_moves = None, 0
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        n_candidates = min(n, 2 + int(np.log(k))) if k > 1 else 1
        init = np.empty((k, d))
        init[0] = points[rng.integers(n)]
        closest = ((points - init[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = closest.sum()
            if total <= 0.0:
                init[j] = points[rng.integers(n)]
                continue
            draws = rng.random(n_candidates) * total
            candidates = np.minimum(np.searchsorted(np.cumsum(closest), draws), n - 1)
            potentials = [
                np.minimum(closest, ((points - points[idx]) ** 2).sum(axis=1)).sum()
                for idx in candidates
            ]
            init[j] = points[candidates[int(np.argmin(potentials))]]
            closest = np.minimum(closest, ((points - init[j]) ** 2).sum(axis=1))
        centroids, labels, inertia, _ = reference_lloyd(points, init, max_iter, tol)
        for _ in range(50):
            moved, n_moves = reference_polish(points, labels.copy(), k)
            total_moves += n_moves
            if not n_moves:
                break
            centroids, labels, inertia, _ = reference_lloyd(points, moved, max_iter, tol)
        if best is None or inertia < best[1]:
            best = (centroids, inertia)
    return best[0], best[1], total_moves


# FD002: six operating conditions, lives of 128 to 378 cycles
FD002_SHAPE = dict(k_states=6, offsets=(-1.5, -1.0, -0.5, 0.5, 1.0, 1.5), life_min=128, life_max=378)


class TestFit:
    def test_two_points_exact(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = kmeans_fit(pts, 2, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(map(tuple, model.centroids)) == [(0.0, 0.0), (1.0, 1.0)]

    def test_six_setting_blobs(self, rng):
        centers = np.array(
            [[0, 0, 100], [20, 0.6, 60], [35, 0.84, 40], [10, 0.25, 80], [25, 0.7, 20], [42, 0.84, 0]],
            dtype=float,
        )
        pts, truth = blobs(rng, centers)
        model = relabel_canonical(kmeans_fit(pts, 6, seed=0), pts)
        labels = assign_states(pts, model)
        # every blob maps to exactly one cluster and no cluster is shared
        blob_labels = [set(labels[truth == j]) for j in range(6)]
        assert all(len(s) == 1 for s in blob_labels)
        assert len(set.union(*blob_labels)) == 6

    def test_matches_brute_force_1d(self, rng):
        pts = rng.normal(size=(8, 1))
        model = kmeans_fit(pts, 2, seed=0, restarts=10)
        assert model.inertia == pytest.approx(brute_force_inertia(pts, 2), abs=1e-9)

    def test_needs_distinct_points(self):
        pts = np.array([[1.0, 1.0]] * 5)
        with pytest.raises(ContractError):
            kmeans_fit(pts, 2, seed=0)

    def test_k1_is_global_mean(self, rng):
        pts = rng.normal(size=(25, 3))
        model = kmeans_fit(pts, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_objective_monotone(self, rng):
        pts = rng.normal(size=(40, 3))
        init = pts[rng.choice(40, size=4, replace=False)]
        history = lloyd_iterations(pts.T, init.copy(), max_iter=50, tol=0.0)[3]
        diffs = np.diff(history)
        assert (diffs <= 1e-9).all()

    def test_empty_cluster_reseed(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        # both initial centroids sit in the left blob: the right blob starves one
        init = np.array([[0.0], [0.1]])
        centroids, labels, inertia, history, _ = lloyd_iterations(pts.T, init.copy(), 50, 0.0)
        assert len(set(labels.tolist())) == 2
        assert inertia == pytest.approx(0.01, abs=1e-12)
        assert (np.diff(history) <= 1e-9).all()

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fd002_shaped_fit_matches_row_major_reference(self, seed):
        records, _ = generate(SynthSpec(seed=seed, engines=20, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        centroids, inertia, _ = reference_fit(points, 6, seed)
        model = kmeans_fit(points, 6, seed=seed)
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.inertia == inertia

    def test_polish_moves_match_row_major_reference(self):
        """Overlapping random points make the polish move points, so its move
        order is compared too.  One-feature fits are compared to 2 ulp: numpy
        averaged a single column by pairwise summation, while the cluster
        sums are now accumulated in point order."""
        rng = np.random.default_rng(2026)
        total_moves = 0
        for case in range(36):
            d, grid, k = case % 12 + 1, (None, 4.0, 10.0)[case // 12], int(rng.integers(2, 9))
            points = rng.normal(size=(int(rng.integers(4 * k, 100)), d))
            if grid:
                points = np.round(points * grid) / grid
            centroids, inertia, moves = reference_fit(points, k, seed=case, restarts=3)
            model = kmeans_fit(points, k, seed=case, restarts=3)
            total_moves += moves
            if d == 1:
                np.testing.assert_array_max_ulp(model.centroids, centroids, maxulp=2)
                np.testing.assert_array_max_ulp(model.inertia, inertia, maxulp=2)
            else:
                assert model.centroids.tobytes() == centroids.tobytes(), case
                assert model.inertia == inertia, case
        assert total_moves > 0

    def test_polish_tie_takes_lowest_point(self):
        """Mirror-image clusters: moving point 0 (1.0) into cluster 1 and point
        5 (-1.0) into cluster 0 improve the objective by the same amount; the
        point-major scan takes the move of point 0."""
        pts = np.array([[1.0], [-3.0], [-2.0], [3.0], [2.0], [-1.0]])
        centroids, moves = _single_point_moves(pts.T, np.array([0, 0, 0, 1, 1, 1]), 2, max_moves=1)
        assert moves == 1
        np.testing.assert_array_equal(centroids, [[-2.5], [1.25]])

    def test_distinct_count_in_message(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [4.0, 5.0], [2.0, 3.0]])
        with pytest.raises(ContractError, match="need at least 4 distinct points, got 3"):
            kmeans_fit(pts, 4, seed=0)
        assert kmeans_fit(pts, 3, seed=0).inertia == pytest.approx(0.0, abs=1e-12)

    def test_rejects_points_without_columns(self):
        with pytest.raises(DimensionError):
            kmeans_fit(np.zeros((5, 0)), 1)

    def test_scaling_property(self, rng):
        pts = rng.normal(size=(30, 2))
        m1 = kmeans_fit(pts, 3, seed=7)
        m2 = kmeans_fit(4.0 * pts, 3, seed=7)
        assert m2.inertia == pytest.approx(16.0 * m1.inertia, rel=1e-9)
        np.testing.assert_array_equal(assign_states(pts, m1), assign_states(4.0 * pts, m2))


class TestAssign:
    def test_exact_centroid(self, rng):
        centroids = rng.normal(size=(5, 3))
        model = ClusterModel(k=5, centroids=centroids, inertia=0.0, feature_spec="settings")
        np.testing.assert_array_equal(assign_states(centroids, model), np.arange(5))

    def test_tie_breaks_low(self):
        model = ClusterModel(
            k=2, centroids=np.array([[0.0], [1.0]]), inertia=0.0, feature_spec="settings"
        )
        assert assign_states(np.array([[0.5]]), model)[0] == 0

    def test_matches_linear_scan(self, rng):
        centroids = rng.normal(size=(5, 4))
        model = ClusterModel(k=5, centroids=centroids, inertia=0.0, feature_spec="settings")
        points = rng.normal(size=(20, 4))
        labels = assign_states(points, model)
        for p, label in zip(points, labels):
            dists = [np.sum((p - c) ** 2) for c in centroids]
            assert label == int(np.argmin(dists))

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        k=st.integers(1, 8),
        grid=st.sampled_from([None, 4.0, 10.0]),
    )
    def test_matches_einsum_reference(self, seed, n, d, k, grid):
        """Distances keep the einsum's bits and labels its argmin.  On a 1/4
        grid distances tie exactly; on a 1/10 grid they tie up to rounding,
        where another summation order would flip the argmin."""
        rng = np.random.default_rng(seed)
        points, centroids = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        if grid:
            points, centroids = np.round(points * grid) / grid, np.round(centroids * grid) / grid
        expected = reference_sq_dists(points, centroids)
        assert _sq_dists(points.T, centroids).T.tobytes() == expected.tobytes()
        model = ClusterModel(k=k, centroids=centroids, inertia=0.0, feature_spec="settings")
        np.testing.assert_array_equal(assign_states(points, model), expected.argmin(axis=1))

    def test_dimension_mismatch(self):
        model = ClusterModel(
            k=1, centroids=np.zeros((1, 3)), inertia=0.0, feature_spec="settings"
        )
        with pytest.raises(DimensionError):
            assign_states(np.zeros((1, 2)), model)


class TestBlocks:
    """Every pass runs over blocks of ``BLOCK_BYTES``; shrunk to a few columns,
    the blocks split n <= 60 points raggedly, and the bits must not move."""

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 12),
        k=st.integers(1, 6),
        grid=st.sampled_from([None, 4.0, 10.0]),
        width=st.integers(1, 7),
        starve=st.sampled_from([None, "duplicate", "far"]),
    )
    @example(seed=1, n=60, d=1, k=6, grid=4.0, width=1, starve="duplicate")
    @example(seed=2, n=37, d=9, k=1, grid=None, width=3, starve=None)
    @example(seed=3, n=53, d=12, k=5, grid=10.0, width=7, starve="far")
    def test_small_blocks_match_references(self, seed, n, d, k, grid, width, starve):
        """Distances, labels, Lloyd (history and empty-cluster repair
        included), the polish and the whole fit against the row-major
        references.  One-feature points lie on the 1/4 grid, where every
        cluster sum is exact: the reference averages a single column by
        pairwise summation (see the polish test above)."""
        rng = np.random.default_rng(seed)
        grid = 4.0 if d == 1 else grid
        points, init = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        if grid:
            points, init = np.round(points * grid) / grid, np.round(init * grid) / grid
        if starve == "duplicate":
            init[-1] = init[0]           # ties go to row 0: the last cluster starts empty
        elif starve == "far":
            init[-1] = 1e3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mafn.cluster, "BLOCK_BYTES", 8 * k * width + int(rng.integers(8 * k)))
            expected = reference_sq_dists(points, init)
            assert _sq_dists(points.T, init).T.tobytes() == expected.tobytes()
            model = ClusterModel(k=k, centroids=init, inertia=0.0, feature_spec="settings")
            np.testing.assert_array_equal(assign_states(points, model), expected.argmin(axis=1))

            got = lloyd_iterations(np.ascontiguousarray(points.T), init.copy(), 20, 0.0)
            want = reference_lloyd(points, init.copy(), 20, 0.0)
            assert got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2:4] == want[2:]

            labels = rng.integers(k, size=n)
            got_labels, want_labels = labels.copy(), labels.copy()
            got = _single_point_moves(np.ascontiguousarray(points.T), got_labels, k)
            want = reference_polish(points, want_labels, k)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            np.testing.assert_array_equal(got_labels, want_labels)

            if len(np.unique(points, axis=0)) >= k:
                model = kmeans_fit(points, k, seed=seed, restarts=2)
                centroids, inertia, _ = reference_fit(points, k, seed, restarts=2)
                assert model.centroids.tobytes() == centroids.tobytes()
                assert model.inertia == inertia

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_refit_faults_few_pages(self):
        """A fit reuses its block buffers instead of building (k, n)
        temporaries, so once a first fit has grown the heap, a second fit of
        the same ~40k points faults in almost no fresh pages.  A kernel that
        built the temporaries on every pass faulted 52,295 pages in that
        second fit."""
        records, _ = generate(SynthSpec(seed=5, engines=160, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        assert len(points) > 5 * mafn.cluster.BLOCK_BYTES // (8 * 6)   # several blocks
        kmeans_fit(points, 6, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        kmeans_fit(points, 6, seed=0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2_000, f"{faults} minor page faults in one fit of {len(points)} points"


class TestBounds:
    """Lloyd passes after the first keep a label without its other distances
    only when the triangle inequality proves it; every result stays bit-equal
    to the row-major references.  The bounds run only on points of more than
    one block, so most tests shrink ``BLOCK_BYTES``."""

    def test_tight_bound_on_a_tie_proves_nothing(self):
        """x = 1 lies on the half-gap of c0 = 0 and its own c1 = 2, and its
        lower bound decays to exactly its own distance 1: only a strict test
        leaves it open, and the full kernel gives ``_nearest``'s tie-low 0."""
        labels, assigned = np.array([1]), np.array([1.0])
        lower = np.array([1.000000001])           # times (1 - 1e-9), exactly 1.0
        unmoved, _ = _assign_pass(np.array([[1.0]]), np.array([[0.0], [2.0]]), 0.0, labels, assigned, lower, True)
        assert not unmoved and labels.tolist() == [0] and assigned.tolist() == [1.0]

    def test_coincident_centroids_prove_nothing(self, monkeypatch):
        """Centroids 0 and 1 coincide, so their half-gap is no bound, and a
        zero lower bound is none either, even for a point at distance 0:
        their points are opened and go to the lower index, while the points
        of the distant centroid 2 stay proven."""
        cols = np.array([[0.0, 0.5, 9.0, 10.0], [0.0, 0.0, 9.0, 10.0]])
        centroids = np.array([[0.0, 0.0], [0.0, 0.0], [9.5, 9.5]])
        labels, assigned, lower = np.array([1, 1, 2, 2]), np.zeros(4), np.zeros(4)
        opened = []
        nearest = mafn.cluster._nearest
        monkeypatch.setattr(mafn.cluster, "_nearest", lambda c, m, idx=None, **kw: opened.append(idx) or nearest(c, m, idx, **kw))
        unmoved, _ = _assign_pass(cols, centroids, 0.0, labels, assigned, lower, True)
        assert not unmoved and [o.tolist() for o in opened] == [[0, 1]]
        assert labels.tolist() == [0, 0, 2, 2]
        assert assigned.tobytes() == reference_sq_dists(cols.T, centroids).min(axis=1).tobytes()

    def test_empty_cluster_repaired_mid_run(self, monkeypatch):
        """The third assignment leaves a cluster empty, in a bounded pass."""
        monkeypatch.setattr(mafn.cluster, "BLOCK_BYTES", 8 * 3 * 2)       # blocks of two points
        points = np.array([[1.5, 0.0], [0.5, 1.5], [-1.0, 2.0], [-1.0, 1.5], [1.0, 0.0], [1.5, -1.5]])
        init = np.array([[0.0, 1.0], [0.0, -1.5], [0.5, 1.5]])
        after_two = reference_lloyd(points, init.copy(), 2, 0.0)[0]
        assert len(np.unique(reference_sq_dists(points, after_two).argmin(axis=1))) == 2
        got = lloyd_iterations(np.ascontiguousarray(points.T), init.copy(), 20, 0.0)
        want = reference_lloyd(points, init.copy(), 20, 0.0)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:4] == want[2:] and len(got[3]) > 4

    def test_k1_matches_reference(self, monkeypatch):
        monkeypatch.setattr(mafn.cluster, "BLOCK_BYTES", 1 << 12)
        records, _ = generate(SynthSpec(seed=11, engines=20, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        centroids, inertia, _ = reference_fit(points, 1, 11, restarts=2)
        model = kmeans_fit(points, 1, seed=11, restarts=2)
        assert model.centroids.tobytes() == centroids.tobytes() and model.inertia == inertia

    def test_far_out_point_matches_reference(self, monkeypatch):
        """A setting at 1e200 squares to +inf against every other centroid,
        and inf - inf bounds are NaN: the fit still equals the reference bit
        for bit, and warns of nothing."""
        monkeypatch.setattr(mafn.cluster, "BLOCK_BYTES", 1 << 12)
        records, _ = generate(SynthSpec(seed=11, engines=20, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        points[7, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            centroids, inertia, _ = reference_fit(points, 6, 11)
        model = kmeans_fit(points, 6, seed=11)
        assert model.centroids.tobytes() == centroids.tobytes() and model.inertia == inertia
        assert (model.centroids[:, 0] == 1e200).sum() == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_squares_match_reference(self, seed, monkeypatch):
        """Points ~1e154 apart square to +inf.  An overflowed gap or second
        distance says only that the distance passes sqrt(max float), not that
        it is infinite, so Lloyd keeps the reference's bits, inf inertia too."""
        monkeypatch.setattr(mafn.cluster, "BLOCK_BYTES", 8 * 2 * 4)
        points = np.random.default_rng(seed).normal(size=(40, 2)) * 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            got = lloyd_iterations(np.ascontiguousarray(points.T), points[:2].copy(), 30, 0.0)
            want = reference_lloyd(points, points[:2].copy(), 30, 0.0)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:4] == want[2:]

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        d=st.integers(1, 12),
        k=st.integers(1, 6),
        grid=st.sampled_from([None, 4.0, 10.0]),
        nudge=st.sampled_from([0.0, 1e-6, 1e-2]),
        width=st.integers(1, 7),
    )
    @example(seed=4, n=60, d=1, k=6, grid=4.0, nudge=0.0, width=3)
    @example(seed=5, n=57, d=11, k=6, grid=None, nudge=1e-2, width=7)
    def test_converged_start_matches_reference(self, seed, n, d, k, grid, nudge, width):
        """Lloyd from centroids that the reference already converged, nudged
        or not: the bounds prove most labels, and centroids, labels, inertia
        and history keep the reference's bits.  One-feature points lie on the
        1/4 grid, where every cluster sum is exact."""
        rng = np.random.default_rng(seed)
        grid = 4.0 if d == 1 else grid
        points, init = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        if grid:
            points = np.round(points * grid) / grid
        start = reference_lloyd(points, init, 50, 0.0)[0] + nudge * rng.normal(size=(k, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mafn.cluster, "BLOCK_BYTES", 8 * k * width)
            got = lloyd_iterations(np.ascontiguousarray(points.T), start.copy(), 50, 0.0)
        want = reference_lloyd(points, start.copy(), 50, 0.0)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:4] == want[2:]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_idle_polish_builds_no_distance_matrix(self, seed, monkeypatch):
        """On well-separated FD002-shaped settings the centroid gaps prove
        that no single-point move pays, so the polish returns before its
        (k, n) distance pass: the seeding's one-row pass is the only caller."""
        records, _ = generate(SynthSpec(seed=seed, engines=20, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        rows = []
        sq_dists = mafn.cluster._sq_dists
        monkeypatch.setattr(mafn.cluster, "_sq_dists", lambda c, m, out=None: rows.append(len(m)) or sq_dists(c, m, out))
        model = kmeans_fit(points, 6, seed=seed)
        assert rows == [1] * 10                   # one per restart, from the seeding
        centroids, inertia, _ = reference_fit(points, 6, seed)
        assert model.centroids.tobytes() == centroids.tobytes() and model.inertia == inertia


class TestLloydState:
    """A Lloyd run whose last pass moved no label hands its means and
    own-centroid distances to the polish, which uses them in place of its
    own sums and distances; every bit stays the same."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_idle_polish_neither_sums_nor_measures(self, seed, monkeypatch):
        records, _ = generate(SynthSpec(seed=seed, engines=20, **FD002_SHAPE))
        points = np.concatenate([r.op_settings for r in records])
        polishing, calls, given_state = [False], [], []

        def counted(name, orig):
            return lambda *args, **kwargs: (calls.append(name) if polishing[0] else None) or orig(*args, **kwargs)

        def polish(*args, **kwargs):
            given_state.append(kwargs.get("own") is not None)
            polishing[0] = True
            try:
                return moves(*args, **kwargs)
            finally:
                polishing[0] = False

        moves = mafn.cluster._single_point_moves
        for name in ("_cluster_sums", "_own_blocks"):
            monkeypatch.setattr(mafn.cluster, name, counted(name, getattr(mafn.cluster, name)))
        monkeypatch.setattr(mafn.cluster, "_single_point_moves", polish)
        model = kmeans_fit(points, 6, seed=seed)
        assert given_state == [True] * 10 and calls == []
        centroids, inertia, _ = reference_fit(points, 6, seed)
        assert model.centroids.tobytes() == centroids.tobytes() and model.inertia == inertia

    @pytest.mark.parametrize("block_bytes", [None, 1 << 12])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_own_distances_are_own_blocks_bits(self, seed, block_bytes, monkeypatch):
        """From a k-means++ start, in plain passes (one block) and bounded ones."""
        if block_bytes:
            monkeypatch.setattr(mafn.cluster, "BLOCK_BYTES", block_bytes)
        records, _ = generate(SynthSpec(seed=seed, engines=20, **FD002_SHAPE))
        cols = np.ascontiguousarray(np.concatenate([r.op_settings for r in records]).T)
        init = mafn.cluster._kmeanspp_init(cols, 6, np.random.default_rng(seed))
        centroids, labels, inertia, _, own = lloyd_iterations(cols, init, 100, 1e-8)
        want = np.concatenate([dist.copy() for _, dist, _ in mafn.cluster._own_blocks(cols, centroids, labels)])
        assert own is not None and own.tobytes() == want.tobytes() and inertia == float(want.sum())

    def test_no_state_after_a_run_that_moved(self):
        """Stopped by ``max_iter`` while labels still move: the last pass's
        distances are not to the means of its labels, so none are handed on."""
        points = np.random.default_rng(1).normal(size=(60, 2))
        assert lloyd_iterations(np.ascontiguousarray(points.T), points[:4].copy(), 1, 0.0)[4] is None

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_moves_equal_with_and_without_lloyd_state(self, seed):
        points = np.random.default_rng(seed).normal(size=(60, 2))
        cols = np.ascontiguousarray(points.T)
        centroids, labels, _, _, own = lloyd_iterations(cols, points[:4].copy(), 100, 0.0)
        with_state, without = labels.copy(), labels.copy()
        got = _single_point_moves(cols, with_state, 4, means=centroids, own=own)
        want = _single_point_moves(cols, without, 4)
        assert own is not None and want[1] > 0
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        np.testing.assert_array_equal(with_state, without)


class TestRelabel:
    def test_count_ordering(self):
        pts = np.concatenate([np.full((10, 1), 0.0), np.full((30, 1), 5.0)])
        model = kmeans_fit(pts + np.arange(40)[:, None] * 1e-6, 2, seed=0)
        model = relabel_canonical(model, pts)
        labels = assign_states(pts, model)
        counts = np.bincount(labels)
        assert counts[0] == 30 and counts[1] == 10

    def test_lexicographic_tie(self):
        centroids = np.array([[1.0, 0.0], [0.0, 0.0]])
        model = ClusterModel(k=2, centroids=centroids, inertia=0.0, feature_spec="settings")
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])   # equal counts
        model = relabel_canonical(model, pts)
        np.testing.assert_array_equal(model.centroids[0], [0.0, 0.0])

    def test_assign_centroid_j_is_j(self, rng):
        pts = rng.normal(size=(50, 2))
        model = relabel_canonical(kmeans_fit(pts, 4, seed=1), pts)
        np.testing.assert_array_equal(assign_states(model.centroids, model), np.arange(4))

    def test_stable_labels_across_seeds(self, rng):
        centers = np.array(
            [[0, 0, 100], [20, 0.6, 60], [35, 0.84, 40], [10, 0.25, 80], [25, 0.7, 20], [42, 0.84, 0]],
            dtype=float,
        )
        pts, _ = blobs(rng, centers, per_blob=30)
        a = relabel_canonical(kmeans_fit(pts, 6, seed=1), pts)
        b = relabel_canonical(kmeans_fit(pts, 6, seed=99), pts)
        np.testing.assert_array_equal(assign_states(pts, a), assign_states(pts, b))
