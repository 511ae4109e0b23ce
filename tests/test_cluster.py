import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    oracle_kmeans_optimum,
    oracle_kmeans_optimum_fast,
    performance_session,
    reference_kmeans_fit,
    reference_select_k,
    session_of,
)
from musicking_lab.cluster import (
    bar_features,
    kmeans_fit,
    select_k,
    silhouette,
)
from musicking_lab.errors import InvalidK, InvalidRange, NonFinite, TooFewRows


def blobs(rng, centers, per_blob=12, spread=0.3):
    points = []
    for cx, cy in centers:
        points.append(rng.normal((cx, cy), spread, size=(per_blob, 2)))
    return np.vstack(points)


class TestBarFeatures:
    def test_full_coverage_shape(self, grid):
        s = performance_session(grid, seed=0)
        m = bar_features(s, grid, "eda")
        assert len(m.bar_index) <= 81
        assert m.feature_names == ("mean", "std", "min", "max")
        assert m.rows.shape == (len(m.bar_index), 4)
        assert sorted(m.bar_index + m.dropped) == list(range(81))

    def test_constant_column_standardizes_to_zero(self, grid):
        positions = np.arange(600.0, grid.duration_s * 1000.0, 400.0)
        s = session_of(positions.tolist(), eda=[5] * len(positions),
                       chorus=[1] * len(positions))
        m = bar_features(s, grid, "eda")
        assert np.all(m.rows == 0.0)

    def test_partial_coverage_drops_bars(self, grid):
        limit = grid.bar_times[10] * 1000.0 - 1.0
        positions = np.linspace(600.0, limit, 200)
        s = session_of(positions.tolist(), eda=list(range(200)),
                       chorus=[1] * 200)
        m = bar_features(s, grid, "eda")
        assert m.bar_index == tuple(range(10))
        assert m.dropped == tuple(range(10, 81))

    def test_unstandardized_values(self, grid):
        positions = [1000.0, 1100.0]
        s = session_of(positions, eda=[10, 20], chorus=[1, 1])
        m = bar_features(s, grid, "eda", standardize=False)
        assert m.bar_index == (0,)
        np.testing.assert_allclose(
            m.rows[0], [15.0, np.std([10.0, 20.0], ddof=1), 10.0, 20.0])

    def test_single_chorus_mode(self, grid):
        s = performance_session(grid, seed=1)
        m = bar_features(s, grid, "eda", chorus=2)
        # chorus 2 occupies roughly bars 16..31
        assert all(14 <= b <= 33 for b in m.bar_index)

    @pytest.mark.parametrize("positions, eda, standardize", [
        ([1000.0, 1100.0], [1.7e308, 1.7e308], False),
        ([1000.0, 5000.0], [1.7e308, -1.7e308], True),
    ], ids=["mean of one bar", "spread of a feature column"])
    def test_feature_that_overflows(self, grid, positions, eda, standardize):
        s = session_of(positions, eda=eda, chorus=[1, 1])
        with pytest.raises(NonFinite, match="^per-bar features of eda overflow double precision$"):
            bar_features(s, grid, "eda", standardize=standardize)

    @pytest.mark.parametrize("eda", [[math.inf, 1.0], [math.inf, -math.inf]])
    def test_infinite_value(self, grid, eda):
        s = session_of([1000.0, 1100.0], eda=eda, chorus=[1, 1])
        with pytest.raises(NonFinite, match="^per-bar features of eda of an infinite value$"):
            bar_features(s, grid, "eda")

    def test_bad_feature_name(self, grid):
        with pytest.raises(ValueError):
            bar_features(session_of([0.0]), grid, "eda", features=("mode",))


class TestKmeansFit:
    def test_two_obvious_clusters_any_seed(self):
        X = np.array([[0, 0], [0, 1], [10, 10], [10, 11]], dtype=float)
        optimum = oracle_kmeans_optimum(X, 2)
        for seed in range(6):
            result = kmeans_fit(X, 2, seed=seed)
            assert result.inertia == pytest.approx(optimum, abs=1e-12)
            assert sorted(result.sizes) == [2, 2]
            first_two = {result.assignments[0], result.assignments[1]}
            last_two = {result.assignments[2], result.assignments[3]}
            assert first_two != last_two and len(first_two) == len(last_two) == 1

    def test_k_one_centroid_is_column_means(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3))
        result = kmeans_fit(X, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0))
        total_ss = float(((X - X.mean(axis=0)) ** 2).sum())
        assert result.inertia == pytest.approx(total_ss)

    def test_k_equals_rows(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        result = kmeans_fit(X, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert result.sizes == (1,) * 6

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        a = kmeans_fit(X, 3, seed=9)
        b = kmeans_fit(X, 3, seed=9)
        assert a.assignments == b.assignments
        assert a.inertia == b.inertia
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        for seed in range(8):
            trace = kmeans_fit(X, 4, seed=seed).inertia_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_sizes_sum_to_rows(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(33, 2))
        result = kmeans_fit(X, 5, seed=1)
        assert sum(result.sizes) == 33
        assert all(0 <= c < 5 for c in result.assignments.values())

    def test_row_permutation_equivalent_up_to_relabeling(self):
        rng = np.random.default_rng(9)
        X = blobs(rng, [(0, 0), (8, 8), (-6, 5)], per_blob=10)
        perm = rng.permutation(len(X))
        a = kmeans_fit(X, 3, seed=2)
        b = kmeans_fit(X[perm], 3, seed=5)

        def canonical(labels):
            relabel, nxt = {}, 0
            out = []
            for l in labels:
                if l not in relabel:
                    relabel[l] = nxt
                    nxt += 1
                out.append(relabel[l])
            return out

        labels_a = canonical([a.assignments[i] for i in range(len(X))])
        labels_b_in_orig_order = [None] * len(X)
        for row, orig in enumerate(perm):
            labels_b_in_orig_order[orig] = b.assignments[row]
        labels_b = canonical(labels_b_in_orig_order)
        # same partition of the same blobs regardless of row order and seed
        assert labels_a == canonical(
            [labels_b[i] for i in range(len(X))]) or a.inertia == pytest.approx(b.inertia)
        assert a.inertia == pytest.approx(b.inertia, rel=1e-9)

    def test_duplicate_points(self):
        X = np.zeros((5, 2))
        result = kmeans_fit(X, 2, seed=0)
        assert result.inertia == 0.0
        assert sum(result.sizes) == 5
        assert all(size > 0 for size in result.sizes)

    def test_row_labels_key_assignments(self):
        X = np.array([[0.0], [10.0]])
        result = kmeans_fit(X, 2, seed=0, row_labels=[7, 42])
        assert set(result.assignments) == {7, 42}

    def test_duplicate_row_labels(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeans_fit(X, 2, seed=0, row_labels=[1, 1, 2, 3])

    @pytest.mark.parametrize("X, k, kwargs, message", [
        (np.zeros(4), 1, {}, r"X must be 2-D, got shape \(4,\)"),
        (np.zeros((4, 2)), 0, {}, "k must be >= 1, got 0"),
        (np.zeros((4, 2)), 2, {"n_init": 0}, "n_init must be >= 1, got 0"),
        (np.zeros((4, 2)), 2, {"row_labels": [1, 2, 3]}, "3 row labels for 4 rows"),
    ], ids=["not 2-D", "k below 1", "no starts", "label count"])
    def test_bad_argument_refused(self, X, k, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            kmeans_fit(X, k, seed=0, **kwargs)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            kmeans_fit(np.zeros((2, 2)), 3, seed=0)

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            kmeans_fit(np.array([[1.0], [np.nan]]), 1, seed=0)

    def test_small_instances_reach_bruteforce_optimum(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            if k > n:
                continue
            X = rng.normal(size=(n, d))
            best = min(kmeans_fit(X, k, seed=s).inertia for s in range(10))
            assert best == pytest.approx(oracle_kmeans_optimum(X, k), rel=1e-9, abs=1e-9)

    def test_fast_oracle_agrees_with_naive(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            X = rng.normal(size=(n, 2))
            for k in (2, 3):
                assert oracle_kmeans_optimum_fast(X, k) == pytest.approx(
                    oracle_kmeans_optimum(X, k), rel=1e-12)


class TestSilhouette:
    def test_tight_separated_blobs_score_high(self):
        rng = np.random.default_rng(11)
        X = blobs(rng, [(0, 0), (20, 20)], per_blob=15, spread=0.2)
        result = kmeans_fit(X, 2, seed=0)
        assert silhouette(X, result) > 0.9

    def test_singletons_score_zero(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        result = kmeans_fit(X, 3, seed=0)
        assert silhouette(X, result) == 0.0

    def test_uniform_noise_scores_near_zero(self):
        scores = []
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(0, 1, size=(40, 2))
            result = kmeans_fit(X, 2, seed=seed)
            scores.append(silhouette(X, result))
        assert all(abs(s) < 0.6 for s in scores)
        assert np.mean(scores) < 0.5

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(12, 2))
        result = kmeans_fit(X, 3, seed=0)
        labels = result.labels

        def direct(i):
            own = [j for j in range(len(X)) if labels[j] == labels[i] and j != i]
            if not own:
                return 0.0
            a = np.mean([np.linalg.norm(X[i] - X[j]) for j in own])
            b = min(np.mean([np.linalg.norm(X[i] - X[j])
                             for j in range(len(X)) if labels[j] == c])
                    for c in set(labels) if c != labels[i])
            return 0.0 if max(a, b) == 0 else (b - a) / max(a, b)

        expected = np.mean([direct(i) for i in range(len(X))])
        assert silhouette(X, result) == pytest.approx(float(expected), rel=1e-12)

    def test_invalid_k(self):
        X = np.zeros((4, 2))
        with pytest.raises(InvalidK):
            silhouette(X, kmeans_fit(X, 1, seed=0))


class TestSelectK:
    def test_three_blobs_select_three(self):
        rng = np.random.default_rng(13)
        X = blobs(rng, [(0, 0), (12, 0), (6, 10)], per_blob=14, spread=0.5)
        best_k, diagnostics = select_k(X, (2, 6), seed=0)
        assert best_k == 3
        assert [d.k for d in diagnostics] == [2, 3, 4, 5, 6]

    def test_two_blobs_select_two(self):
        rng = np.random.default_rng(14)
        X = blobs(rng, [(0, 0), (15, 15)], per_blob=16, spread=0.4)
        best_k, _ = select_k(X, (2, 6), seed=0)
        assert best_k == 2

    def test_inverted_range(self):
        with pytest.raises(InvalidRange):
            select_k(np.zeros((10, 2)), (5, 4), seed=0)

    def test_range_beyond_rows(self):
        with pytest.raises(InvalidRange):
            select_k(np.random.default_rng(0).normal(size=(5, 2)), (2, 5), seed=0)

    def test_tie_prefers_smaller_k(self):
        # all-identical points: silhouette 0 at every k, so smallest k wins
        X = np.zeros((10, 2))
        best_k, diagnostics = select_k(X, (2, 4), seed=0)
        assert best_k == 2
        assert all(d.silhouette == 0.0 for d in diagnostics)

    def test_duplicate_row_labels(self):
        X = np.arange(10.0)[:, None]
        with pytest.raises(ValueError, match="distinct"):
            select_k(X, (2, 4), seed=0, row_labels=[0, 1, 2, 3, 4, 5, 6, 7, 8, 8])

    def test_fits_kept_match_a_refit(self):
        rng = np.random.default_rng(15)
        X = blobs(rng, [(0, 0), (12, 0), (6, 10)], per_blob=10, spread=0.5)
        labels = list(range(100, 100 + X.shape[0]))
        _, diagnostics = select_k(X, (2, 5), seed=3, row_labels=labels)
        for d in diagnostics:
            refit = kmeans_fit(X, d.k, seed=3, row_labels=labels)
            assert d.fit.as_dict() == refit.as_dict()
            assert d.inertia == refit.inertia


# Finite rows whose squared distances overflow: a squared spread that is
# infinite, one whose squares are finite but whose sum is not, and one whose
# k-means++ total over the rows is not (each distance itself is finite).
# Last, rows with no spread at all whose sum for a centroid overflows.
OVERFLOWING = [
    [[1e200], [-1e200], [0.0], [5e199]],
    [[0.0, 0.0], [1.2e154, 1.2e154], [-1.0, 3.0], [1.2e154, 0.0]],
    [[0.0], [0.0], [1.3e154], [1.3e154]],
    [[1.7e308]] * 4,
]


class TestOverflowingDistances:
    @pytest.mark.parametrize("rows", OVERFLOWING)
    def test_refused_without_warnings(self, rows):
        X = np.array(rows)
        result = kmeans_fit(np.arange(4.0)[:, None], 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflow"):
                kmeans_fit(X, 2, seed=0)
            with pytest.raises(NonFinite, match="overflow"):
                silhouette(X, result)
            with pytest.raises(NonFinite, match="overflow"):
                select_k(X, (2, 3), seed=0)

    def test_centroid_sum_that_overflows_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="centroid overflow"):
                kmeans_fit([[1.7e308], [1.7e308]], 1)

    def test_large_finite_spread_still_fits(self):
        X = np.array([[0.0], [1e150], [2e150], [3e150]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans_fit(X, 2, seed=0)
            assert -1.0 <= silhouette(X, result) <= 1.0
        assert sorted(result.sizes) == [2, 2]


@st.composite
def feature_matrices(draw):
    """Matrices with ties, duplicate rows and -0.0 columns, at several scales."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    rounding = draw(st.sampled_from([None, 0, 1]))
    if rounding is not None:
        X = np.round(X, rounding)
    distinct = draw(st.sampled_from([None, 1, 2, 5]))
    if distinct is not None:  # duplicate rows; 1 makes every row identical
        X = X[rng.integers(0, min(distinct, n), size=n)]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = -0.0
    return X


class TestBatchMatchesParentLoop:
    """The batched fit and silhouette keep every bit of the per-start loops."""

    @settings(max_examples=150, deadline=None)
    @given(feature_matrices(), st.integers(1, 9), st.integers(0, 4),
           st.sampled_from([1, 2, 300]), st.sampled_from([0.0, 1e-6]))
    def test_kmeans_fit(self, X, k, seed, max_iter, tol):
        k = min(k, X.shape[0])
        got = kmeans_fit(X, k, seed=seed, max_iter=max_iter, tol=tol)
        labels, centroids, inertia, iterations, trace, sizes = reference_kmeans_fit(
            X, k, seed, max_iter, tol)
        assert repr(got.labels.tolist()) == repr(labels.tolist())
        assert repr(got.centroids.tolist()) == repr(centroids.tolist())
        assert repr(got.inertia) == repr(inertia)
        assert repr(got.inertia_trace) == repr(trace)
        assert got.iterations == iterations
        assert got.sizes == sizes

    @settings(max_examples=40, deadline=None)
    @given(feature_matrices().filter(lambda X: X.shape[0] >= 3), st.integers(0, 4),
           st.sampled_from([1, 2, 300]), st.sampled_from([0.0, 1e-6]))
    def test_select_k(self, X, seed, max_iter, tol):
        k_range = (2, min(8, X.shape[0] - 1))
        best_k, diagnostics = select_k(X, k_range, seed=seed, max_iter=max_iter, tol=tol)
        reference_best, rows = reference_select_k(X, k_range, seed, max_iter, tol)
        assert [repr((d.k, d.inertia, d.silhouette)) for d in diagnostics] == [
            repr(row) for row in rows]
        assert best_k == reference_best
        for d in diagnostics:
            assert repr(silhouette(X, d.fit)) == repr(d.silhouette)
