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
    """
    for stat in features:
        if stat not in PER_BAR_STATS:
            raise ValueError(f"feature must be one of {PER_BAR_STATS}, got {stat!r}")
    values = _column(session, column).copy()
    if chorus is not None:
        values[_column(session, "chorus_id") != chorus] = np.nan
    groups = _bar_groups(session, grid, values, include_nonperformance, offset_ms)
    kept = [b for b, bucket in enumerate(groups) if bucket.size]
    dropped = [b for b, bucket in enumerate(groups) if not bucket.size]
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


def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]


def _repair_empty(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                  own_d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return labels, own_d2


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int, tol: float):
    k = centroids.shape[0]
    trace: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels, own_d2 = _assign(X, centroids)
        labels, own_d2 = _repair_empty(X, centroids, labels, own_d2)
        trace.append(float(own_d2.sum()))
        new_centroids = np.array([X[labels == c].mean(axis=0) for c in range(k)])
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break
    # One more assignment so the reported labels match the final centroids.
    labels, own_d2 = _assign(X, centroids)
    labels, own_d2 = _repair_empty(X, centroids, labels, own_d2)
    trace.append(float(own_d2.sum()))
    return labels, centroids, float(own_d2.sum()), iterations, tuple(trace)


def kmeans_fit(X: np.ndarray, k: int, seed: int = 0,
               max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
               n_init: int = 10,
               row_labels: Sequence[int] | None = None) -> ClusterResult:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` starts.

    Each start draws its k-means++ seeds from one generator initialized
    with ``seed``, runs Lloyd until the largest centroid movement falls
    below ``tol`` or ``max_iter`` is hit, and the lowest-inertia start
    wins; the whole fit is deterministic for a fixed (X, k, seed).
    ``row_labels`` keys the assignment map (bar indices, typically) and
    defaults to 0..n-1.

    Raises:
        TooFewRows: Fewer rows than clusters.
        NonFinite: NaN or infinity in the matrix.
        ValueError: k < 1 or n_init < 1.
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

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        run = _lloyd(X, _kmeans_plus_plus(X, k, rng), max_iter, tol)
        if best is None or run[2] < best[2]:
            best = run
    labels, centroids, inertia, iterations, trace = best

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


def silhouette(X: np.ndarray, result: ClusterResult) -> float:
    """Mean silhouette score (Euclidean); singleton clusters contribute 0.

    k may equal the row count (every cluster a singleton scores 0 by that
    convention).

    Raises:
        InvalidK: k outside [2, rows].
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 2 <= result.k <= n:
        raise InvalidK(f"silhouette needs 2 <= k <= rows, got k={result.k}, rows={n}")
    labels = result.labels
    distances = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_size = int(own.sum())
        if own_size <= 1:
            continue
        a = distances[i, own].sum() / (own_size - 1)
        b = min(distances[i, labels == c].mean()
                for c in range(result.k) if c != labels[i] and (labels == c).any())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def select_k(X: np.ndarray, k_range: tuple[int, int], seed: int = 0,
             max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
             row_labels: Sequence[int] | None = None,
             ) -> tuple[int, list[KDiagnostic]]:
    """Fit every k in the inclusive range and pick the silhouette argmax.

    Ties go to the smaller k.  The full diagnostics table (inertia and
    silhouette per k) comes back too, so elbow judgment stays possible;
    each row keeps its fit, keyed by ``row_labels`` as in
    :func:`kmeans_fit`, so the chosen model need not be fitted again.

    Raises:
        InvalidRange: Empty range, or bounds outside [2, rows - 1].
    """
    X = np.asarray(X, dtype=float)
    lo, hi = k_range
    if lo > hi or lo < 2 or hi > X.shape[0] - 1:
        raise InvalidRange(f"k range [{lo}, {hi}] invalid for {X.shape[0]} rows")
    diagnostics = []
    best_k, best_score = None, -np.inf
    for k in range(lo, hi + 1):
        result = kmeans_fit(X, k, seed=seed, max_iter=max_iter, tol=tol, row_labels=row_labels)
        score = silhouette(X, result)
        diagnostics.append(KDiagnostic(k=k, inertia=result.inertia, silhouette=score,
                                       fit=result))
        if score > best_score:
            best_k, best_score = k, score
    return best_k, diagnostics
