"""Per-bar feature construction and KMeans clustering.

The per-bar feature vector defaults to [mean, std, min, max] of one column;
the source data only establishes that bars are grouped by statistical
similarity, so the feature set is explicit and configurable rather than
baked in.  Fits are deterministic for a fixed (matrix, k, seed) and the
seed is recorded in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._series import finite, refusing
from .errors import InvalidK, InvalidRange, NonFinite, TooFewRows
from .model import BarFeatureMatrix, BeatGrid, Session, _column
from .timing import PER_BAR_STATS, _bar_groups, _bar_stat

DEFAULT_BAR_FEATURES = ("mean", "std", "min", "max")
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 300


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """A fitted KMeans model keyed by the clustered rows' labels."""

    k: int
    assignments: dict[int, int]  # row label (e.g. bar index) -> cluster id
    centroids: np.ndarray
    inertia: float
    sizes: tuple[int, ...]
    iterations: int
    seed: int
    inertia_trace: tuple[float, ...]

    @property
    def labels(self) -> np.ndarray:
        """Cluster ids in row order."""
        return np.fromiter(self.assignments.values(), dtype=int, count=len(self.assignments))

    def as_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "inertia": self.inertia,
                "iterations": self.iterations, "sizes": list(self.sizes),
                "centroids": [[float(v) for v in row] for row in self.centroids],
                "assignments": {str(label): int(c) for label, c in self.assignments.items()}}


@dataclass(frozen=True)
class KDiagnostic:
    k: int
    inertia: float
    silhouette: float
    fit: ClusterResult | None = field(default=None, compare=False, repr=False)


def bar_features(session: Session, grid: BeatGrid, column: str,
                 features: Sequence[str] = DEFAULT_BAR_FEATURES,
                 include_nonperformance: bool = False,
                 chorus: int | None = None,
                 standardize: bool = True,
                 offset_ms: float = 0.0) -> BarFeatureMatrix:
    """Aggregate one column into per-bar feature rows ready for clustering.

    Bars with no records are dropped from the matrix and listed in
    ``dropped``.  Columns are z-scored before clustering; a zero-variance
    column maps to all zeros instead of dividing by zero.  Pass ``chorus``
    to restrict to a single playthrough instead of pooling the whole track.

    Raises:
        UnknownColumn: Column name does not resolve.
        ValueError: Unsupported feature statistic.
        NonFinite: An infinite value, or a bar's statistic or a z-score that overflows.
    """
    for stat in features:
        if stat not in PER_BAR_STATS:
            raise ValueError(f"feature must be one of {PER_BAR_STATS}, got {stat!r}")
    values = finite(_column(session, column), f"per-bar features of {column}").copy()
    if chorus is not None:
        values[_column(session, "chorus_id") != chorus] = np.nan
    groups = _bar_groups(session, grid, values, include_nonperformance, offset_ms)
    kept = [b for b, bucket in enumerate(groups) if bucket.size]
    dropped = [b for b, bucket in enumerate(groups) if not bucket.size]
    with refusing(f"per-bar features of {column} overflow double precision"):
        rows = np.array([[_bar_stat(groups[b], stat) for stat in features] for b in kept],
                        dtype=float)
        rows = rows.reshape(len(kept), len(features))
        if standardize and rows.size:
            mean = rows.mean(axis=0)
            std = rows.std(axis=0)
            scale = np.where(std == 0.0, 1.0, std)
            rows = (rows - mean) / scale
            rows[:, std == 0.0] = 0.0
    return BarFeatureMatrix(bar_index=tuple(kept), feature_names=tuple(features),
                            rows=rows, dropped=tuple(dropped))


def _kmeans_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[c] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _repair_empty(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                  own_d2: np.ndarray) -> None:
    # An empty cluster takes over the point currently farthest from its
    # centroid; that point's distance drops to zero, so inertia never rises.
    # Sole members are not stolen, or the repair would cascade new empties.
    k = centroids.shape[0]
    for c in range(k):
        if (labels == c).any():
            continue
        counts = np.bincount(labels, minlength=k)
        candidates = np.where(counts[labels] > 1, own_d2, -np.inf)
        farthest = int(candidates.argmax())
        centroids[c] = X[farthest]
        labels[farthest] = c
        own_d2[farthest] = 0.0


def _means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each start's cluster means, summed as ``X[labels[s] == c].mean(axis=0)`` sums.

    numpy sums rows of two or more columns one after another from +0.0, as
    ``np.bincount`` does, but one column pairwise, so there each cluster's
    rows are summed by that same ``sum``.
    """
    starts = len(labels)
    group = (labels + k * np.arange(starts)[:, None]).ravel()
    counts = np.bincount(group, minlength=starts * k)
    if X.shape[1] > 1:
        sums = np.stack([np.bincount(group, w, starts * k) for w in np.tile(X.T, starts)], axis=1)
    else:
        sums = np.array([X[lab == c].sum(axis=0) for lab in labels for c in range(k)])
    return (sums / counts[:, None]).reshape(starts, k, -1)


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float) -> list:
    """Each start's (labels, centroids, inertia, iterations, trace), run as one batch.

    A start leaves the batch at the assignment after its last update.
    """
    starts, k = centroids.shape[:2]
    active, runs = np.arange(starts), [None] * starts
    traces: list[list[float]] = [[] for _ in runs]
    done = np.full(starts, max_iter <= 0)
    iterations = 0
    while True:
        diff = X[None, :, None, :] - centroids[:, None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=3)
        labels = d2.argmin(axis=2)
        own_d2 = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
        counts = np.bincount((labels + k * np.arange(active.size)[:, None]).ravel(),
                             minlength=active.size * k)
        for i in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
            _repair_empty(X, centroids[i], labels[i], own_d2[i])
        for s, inertia in zip(active, own_d2.sum(axis=1).tolist()):
            traces[s].append(inertia)
        for i, s in zip(np.flatnonzero(done), active[done]):
            runs[s] = (labels[i], centroids[i], traces[s][-1], iterations, tuple(traces[s]))
        active, centroids, labels = active[~done], centroids[~done], labels[~done]
        if not active.size:
            return runs
        iterations += 1
        new_centroids = _means(X, labels, k)
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=2)).max(axis=1)
        done = (movement < tol) | (iterations >= max_iter)
        centroids = new_centroids


def _check_spread(X: np.ndarray) -> None:
    # Rows times the columns' squared spread bounds every sum of squared
    # distances between rows: k-means++ totals, inertia, silhouette sums.
    # Rows times the largest magnitude bounds every sum behind a centroid.
    with np.errstate(all="ignore"):
        bound = X.shape[0] * np.square(X.max(axis=0) - X.min(axis=0)).sum()
        total = X.shape[0] * np.abs(X).max(initial=0.0)
    if not np.isfinite(bound):
        raise NonFinite("squared distances between rows overflow or are NaN")
    if not np.isfinite(total):
        raise NonFinite("sums of rows for a centroid overflow")


def _distances(X: np.ndarray) -> np.ndarray:
    _check_spread(X)
    return np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))


def kmeans_fit(X: np.ndarray, k: int, seed: int = 0,
               max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
               n_init: int = 10,
               row_labels: Sequence[int] | None = None) -> ClusterResult:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` starts.

    Each start draws its k-means++ seeds in turn from one generator
    initialized with ``seed``; then the starts run Lloyd as one batch, each
    until its largest centroid movement falls below ``tol`` or ``max_iter``
    is hit.  The first lowest-inertia start wins; the whole fit is
    deterministic for a fixed (X, k, seed).  ``row_labels`` keys the
    assignment map (bar indices, typically) and defaults to 0..n-1.

    Raises:
        TooFewRows: Fewer rows than clusters.
        NonFinite: NaN or infinity in the matrix, or overflowing distances.
        ValueError: k < 1, n_init < 1, or not one distinct label per row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFinite("feature matrix contains NaN or infinity")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    n = X.shape[0]
    if n < k:
        raise TooFewRows(f"{n} rows cannot form {k} clusters")
    if row_labels is None:
        row_labels = range(n)
    else:
        row_labels = list(row_labels)
        if len(row_labels) != n:
            raise ValueError(f"{len(row_labels)} row labels for {n} rows")
        if len(set(row_labels)) != n:
            raise ValueError("row labels must be distinct")
    _check_spread(X)

    rng = np.random.default_rng(seed)
    seeds = np.array([_kmeans_plus_plus(X, k, rng) for _ in range(n_init)])
    labels, centroids, inertia, iterations, trace = min(_lloyd(X, seeds, max_iter, tol),
                                                         key=lambda run: run[2])

    sizes = tuple(int((labels == c).sum()) for c in range(k))
    return ClusterResult(
        k=k,
        assignments={label: int(c) for label, c in zip(row_labels, labels)},
        centroids=centroids,
        inertia=inertia,
        sizes=sizes,
        iterations=iterations,
        seed=seed,
        inertia_trace=trace,
    )


def _silhouette(D: np.ndarray, labels: np.ndarray, k: int) -> float:
    # One gather per cluster; the contiguous copy sums each row as that
    # row's own sum would.
    sums = np.stack([np.ascontiguousarray(D[:, labels == c]).sum(axis=1)
                     for c in range(k)], axis=1)
    counts = np.bincount(labels, minlength=k)
    own = counts[labels]
    a = np.take_along_axis(sums, labels[:, None], axis=1)[:, 0] / np.maximum(own - 1, 1)
    means = np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=counts > 0)
    np.put_along_axis(means, labels[:, None], np.inf, axis=1)
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(labels.size), where=(own > 1) & (denom != 0))
    return float(scores.mean())


def silhouette(X: np.ndarray, result: ClusterResult) -> float:
    """Mean silhouette score (Euclidean); singleton clusters contribute 0.

    k may equal the row count (every cluster a singleton scores 0 by that
    convention).  All rows are scored at once from one distance matrix.

    Raises:
        InvalidK: k outside [2, rows].
        NonFinite: NaN in the matrix, or overflowing distances.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 2 <= result.k <= n:
        raise InvalidK(f"silhouette needs 2 <= k <= rows, got k={result.k}, rows={n}")
    return _silhouette(_distances(X), result.labels, result.k)


def select_k(X: np.ndarray, k_range: tuple[int, int], seed: int = 0,
             max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
             row_labels: Sequence[int] | None = None,
             ) -> tuple[int, list[KDiagnostic]]:
    """Fit every k in the inclusive range and pick the silhouette argmax.

    Ties go to the smaller k.  The full diagnostics table (inertia and
    silhouette per k) comes back too, so elbow judgment stays possible;
    each row keeps its fit, keyed by ``row_labels`` as in
    :func:`kmeans_fit`, so the chosen model need not be fitted again.  Each
    k's starts run as one batch, and one distance matrix serves every k.

    Raises:
        InvalidRange: Empty range, or bounds outside [2, rows - 1].
        NonFinite, ValueError: As for :func:`kmeans_fit`.
    """
    X = np.asarray(X, dtype=float)
    lo, hi = k_range
    if lo > hi or lo < 2 or hi > X.shape[0] - 1:
        raise InvalidRange(f"k range [{lo}, {hi}] invalid for {X.shape[0]} rows")
    fits = [kmeans_fit(X, k, seed=seed, max_iter=max_iter, tol=tol, row_labels=row_labels)
            for k in range(lo, hi + 1)]
    D = _distances(X)
    diagnostics = [KDiagnostic(k=fit.k, inertia=fit.inertia, fit=fit,
                               silhouette=_silhouette(D, fit.labels, fit.k)) for fit in fits]
    return max(diagnostics, key=lambda row: row.silhouette).k, diagnostics
