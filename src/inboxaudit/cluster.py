"""Company-level behavioral clustering: features → z-scores → PCA → K-Means.

The 36-column feature layout is frozen: hourly[0..23], weekly[0..6]
(0=Monday), marketing_flag, content mix proportions (promotional, crm,
alert), total volume. Proportions carry the content signal so volume
lives only in the final column. Every randomized routine takes an
explicit seed and is deterministic for a fixed one.

K-Means refines all of its restarts in one Lloyd loop, and the
silhouette scores all points at once. Each adds its floats in the order
a restart or a point on its own would: numpy's sum order depends on the
memory layout of what it sums, so the arrays are laid out for that.

numpy is imported inside the functions that use it: every stage
process imports this module through the CLI, and only the analysis
needs numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .classify.rules import LABELS

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

FEATURE_NAMES = (
    [f"hourly_{h:02d}" for h in range(24)]
    + [f"weekly_{d}" for d in range(7)]
    + ["marketing_flag", "mix_promotional", "mix_crm", "mix_alert", "total_volume"]
)

DEFAULT_SEED = 42
_MAX_LLOYD_ITER = 300


class InsufficientCompaniesError(ValueError):
    pass


def build_features(by_service: dict[str, list], profiles) -> np.ndarray:
    """One 36-dim row per company, in the grouping's (name-sorted) order.

    The clock comes from each company's message rows, in the audit
    timezone; the marketing flag, content mix and total from its profile,
    in the same order. Every row carries a content label, so each company's
    mix sums to 1.
    """
    import numpy as np
    if len(by_service) < 2:
        raise InsufficientCompaniesError(
            f"need >= 2 companies with mail, have {len(by_service)}")
    rows = []
    for service_rows, profile in zip(by_service.values(), profiles,
                                     strict=True):
        hourly = np.zeros(24)
        weekly = np.zeros(7)
        for row in service_rows:
            hourly[row.local.hour] += 1
            weekly[row.local.weekday()] += 1
        counts = np.array([profile.content_counts[label] for label in LABELS],
                          dtype=float)
        rows.append(np.concatenate([
            hourly, weekly,
            [1.0 if profile.uses_marketing_provider else 0.0],
            counts / counts.sum(),
            [float(profile.emails_total)],
        ]))
    return np.array(rows)


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Column z-scores (population stddev); constant columns become zeros."""
    import numpy as np
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("standardize needs a 2-d matrix with >= 2 rows")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    constant = stds == 0.0
    z = (matrix - means) / np.where(constant, 1.0, stds)
    z[:, constant] = 0.0
    if constant.any():
        log.info("standardize: %d zero-variance columns zeroed",
                 int(constant.sum()))
    return z


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray               # shape (m, d), rows orthonormal
    explained_variance_ratio: list[float]
    eigenvalues: list[float]             # all, descending

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        import numpy as np
        return (np.asarray(matrix, dtype=float) - self.mean) @ self.components.T


def pca_fit(matrix: np.ndarray, n_components: int = 5) -> PcaModel:
    """The first ``n_components`` principal axes of the centered data via
    covariance eigendecomposition.

    Population covariance (divide by n); each component's sign is fixed
    so its largest-magnitude entry is positive. Requests beyond the data
    rank clamp with a warning.
    """
    import numpy as np
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca_fit needs a 2-d matrix with >= 2 rows")
    if n_components < 1:
        raise ValueError(f"pca_fit needs >= 1 component, got {n_components}")
    n = x.shape[0]
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]

    total = eigenvalues.sum()
    rank = int((eigenvalues > max(total, 1.0) * 1e-12).sum())
    rank = max(rank, 1)

    m = n_components
    if m > rank:
        log.warning("pca: requested %d components, data rank %d; clamping",
                    m, rank)
        m = rank

    components = eigenvectors[:, :m].T.copy()
    for i in range(m):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]

    ratios = (eigenvalues[:m] / total).tolist() if total > 0 else [0.0] * m
    return PcaModel(mean=mean, components=components,
                    explained_variance_ratio=[float(r) for r in ratios],
                    eigenvalues=[float(v) for v in eigenvalues])


@dataclass
class KmeansResult:
    labels: np.ndarray
    inertia: float
    inertia_history: list[float]  # per Lloyd iteration of the winning restart


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest_sq = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = x[idx]
        dist_sq = ((x - centroids[i]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid and its squared distance to it, as two
    (restarts, n) arrays, for each restart's (k, d) centroids. A distance
    is a sum over the d axis of a C-contiguous (restarts, n, k, d) array,
    so it is the sum that restart alone gives."""
    import numpy as np
    dists = ((x[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=3)
    labels = dists.argmin(axis=2)
    return labels, np.take_along_axis(dists, labels[:, :, None], axis=2)[..., 0]


def _lloyd(x: np.ndarray, centroids: np.ndarray
           ) -> tuple[np.ndarray, list[float], list[list[float]]]:
    """Lloyd refinement of every restart's (k, d) centroids at once: each
    restart's labels, inertia and per-iteration inertia history, as Lloyd
    on that restart alone gives them. A restart stops when its labels stop
    changing; the others go on without it."""
    import numpy as np
    restarts, k, d = centroids.shape
    n = x.shape[0]
    labels = np.full((restarts, n), -1)
    inertia = [0.0] * restarts
    history: list[list[float]] = [[] for _ in range(restarts)]
    active = np.arange(restarts)
    for _ in range(_MAX_LLOYD_ITER):
        new_labels, closest = _assign(x, centroids[active])
        for r, total in zip(active.tolist(), closest.sum(axis=1).tolist()):
            history[r].append(total)
        moved = (new_labels != labels[active]).any(axis=1)
        for r in active[~moved].tolist():
            inertia[r] = history[r][-1]
        active = active[moved]
        if not active.size:
            return labels, inertia, history
        new_labels, closest = new_labels[moved], closest[moved]
        labels[active] = new_labels
        # each (restart, cluster) bin sums its members in point order, as
        # numpy's mean(axis=0) sums an (m, d) block for d > 1; a one-column
        # block it sums pairwise, so for d = 1 each bin takes that sum
        a = len(active)
        bins = (new_labels + k * np.arange(a)[:, None]).ravel()
        counts = np.bincount(bins, minlength=a * k).reshape(a, k)
        if d == 1:
            sums = np.array([[x[row == c].sum(axis=0) for c in range(k)]
                             for row in new_labels])
        else:
            sums = np.bincount((bins[:, None] * d + np.arange(d)).ravel(),
                               weights=np.broadcast_to(x, (a, n, d)).ravel(),
                               minlength=a * k * d).reshape(a, k, d)
        means = sums / np.maximum(counts, 1)[:, :, None]
        # re-seed an empty cluster with its restart's worst-fit point
        empty_r, empty_c = np.nonzero(counts == 0)
        means[empty_r, empty_c] = x[closest.argmax(axis=1)[empty_r]]
        centroids[active] = means
    labels[active], closest = _assign(x, centroids[active])
    for r, total in zip(active.tolist(), closest.sum(axis=1).tolist()):
        inertia[r] = total
    return labels, inertia, history


def kmeans(matrix: np.ndarray, k: int, seed: int = DEFAULT_SEED,
           restarts: int = 10) -> KmeansResult:
    """Best-of-restarts K-Means with k-means++ seeding and Lloyd refinement.

    Every restart's seeding is drawn first, in restart order from one
    generator; Lloyd then refines all restarts together, and the first
    restart with the lowest inertia wins."""
    import numpy as np
    x = np.asarray(matrix, dtype=float)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x.shape[0] < k:
        raise ValueError(f"{x.shape[0]} rows cannot support k={k}")
    rng = np.random.default_rng(seed)
    centroids = np.stack([_kmeans_pp_init(x, k, rng)
                          for _ in range(max(1, restarts))])
    labels, inertia, history = _lloyd(x, centroids)
    best = min(range(len(inertia)), key=inertia.__getitem__)
    return KmeansResult(labels=labels[best], inertia=inertia[best],
                        inertia_history=history[best])


def silhouette(matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over points; singleton-cluster points score 0.

    A point's distance sum to each cluster is a row sum over that
    cluster's columns in a C-contiguous copy of the distance matrix whose
    columns are grouped by cluster, in point order within each: the values
    and the pairwise summation order of the point's row masked to that
    cluster."""
    import numpy as np
    x = np.asarray(matrix, dtype=float)
    unique, cluster, sizes = np.unique(np.asarray(labels), return_inverse=True,
                                       return_counts=True)
    if len(unique) < 2:
        raise ValueError("silhouette undefined for a single cluster")
    n = x.shape[0]
    diffs = x[:, None, :] - x[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    grouped = np.ascontiguousarray(
        dists[:, np.argsort(cluster, kind="stable")])
    ends = np.cumsum(sizes).tolist()
    sums = np.stack([grouped[:, end - size:end].sum(axis=1)
                     for size, end in zip(sizes.tolist(), ends)], axis=1)
    points = np.arange(n)
    own_size = sizes[cluster]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[points, cluster] / (own_size - 1)
        means = sums / sizes
        means[points, cluster] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        scores = (b - a) / denom
    scores[(own_size <= 1) | (denom == 0.0)] = 0.0
    return float(scores.mean())


@dataclass
class SelectionResult:
    k: int
    labels: np.ndarray
    silhouette: float
    per_k_silhouette: dict[int, float]
    clamped: bool = False


def select_k(matrix: np.ndarray, k_min: int = 2, k_max: int = 10,
             seed: int = DEFAULT_SEED, restarts: int = 10) -> SelectionResult:
    """Fit every k in range, keep the best silhouette (ties favor smaller k).

    Rows that are all equal have no second cluster to find: that raises
    InsufficientCompaniesError before any fit."""
    import numpy as np
    x = np.asarray(matrix, dtype=float)
    n = x.shape[0]
    clamped = False
    if k_max > n:
        log.warning("select_k: k range clamped to %d (only %d rows)", n, n)
        k_max = n
        clamped = True
    if k_min > k_max:
        raise ValueError(f"empty k range after clamping: {k_min}..{k_max}")
    if (x == x[0]).all():
        raise InsufficientCompaniesError(
            f"all {n} companies have identical features; nothing to cluster")

    best: SelectionResult | None = None
    per_k: dict[int, float] = {}
    for k in range(k_min, k_max + 1):
        result = kmeans(x, k, seed=seed, restarts=restarts)
        score = silhouette(x, result.labels)
        per_k[k] = score
        if best is None or score > best.silhouette:
            best = SelectionResult(k=k, labels=result.labels, silhouette=score,
                                   per_k_silhouette=per_k, clamped=clamped)
    assert best is not None
    return best


def loadings_report(pca: PcaModel, selection: SelectionResult,
                    feature_names: list[str], scores: np.ndarray,
                    top_n: int = 5) -> dict:
    """Interpretation aid: per-cluster mean component scores + top loadings."""
    import numpy as np
    report: dict = {"components": [], "clusters": []}
    for i, component in enumerate(pca.components):
        idx = np.argsort(-np.abs(component))[:top_n]
        report["components"].append({
            "component": i + 1,
            "explained_variance_ratio": pca.explained_variance_ratio[i],
            "top_features": [
                {"feature": feature_names[int(j)], "loading": float(component[j])}
                for j in idx
            ],
        })
    for cluster_id in sorted(set(int(c) for c in selection.labels)):
        member_scores = scores[selection.labels == cluster_id]
        report["clusters"].append({
            "cluster": cluster_id,
            "size": int((selection.labels == cluster_id).sum()),
            "mean_component_scores": [float(v) for v in member_scores.mean(axis=0)],
        })
    return report
