"""Feature building, standardization, PCA, K-Means, and k selection."""

from collections import Counter
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inboxaudit.cluster as cluster_mod
from inboxaudit.cluster import (FEATURE_NAMES, InsufficientCompaniesError,
                                build_features, kmeans, loadings_report,
                                pca_fit, select_k, silhouette, standardize)


def row(day=0, hour=9):
    base = datetime(2024, 1, 1, hour)  # a Monday
    return SimpleNamespace(local=base + timedelta(days=day))


def profile(name, marketing, total, **content):
    return SimpleNamespace(service_name=name, uses_marketing_provider=marketing,
                           emails_total=total, content_counts=Counter(content))


def test_feature_names_frozen():
    assert len(FEATURE_NAMES) == 36
    assert FEATURE_NAMES[0] == "hourly_00"
    assert FEATURE_NAMES[23] == "hourly_23"
    assert FEATURE_NAMES[24] == "weekly_0"
    assert FEATURE_NAMES[31] == "marketing_flag"
    assert FEATURE_NAMES[32:] == ["mix_promotional", "mix_crm", "mix_alert",
                                  "total_volume"]


def test_build_features_rows():
    by_service = {
        "alpha": [row(day=0, hour=9), row(day=1, hour=9), row(day=0, hour=20)],
        "beta": [row(day=5, hour=3), row(day=6, hour=3)],
    }
    profiles = [profile("alpha", True, 3, promotional=2, crm=1),
                profile("beta", False, 2, alert=2)]
    features = build_features(by_service, profiles)
    assert features.shape == (2, 36)
    alpha, beta = features
    assert alpha[9] == 2 and alpha[20] == 1          # hourly
    assert alpha[24] == 2 and alpha[25] == 1         # Mon, Tue
    assert alpha[31] == 1.0 and beta[31] == 0.0      # marketing flag
    assert alpha[32:35] == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert alpha[35] == 3.0
    assert beta[32:35] == pytest.approx([0.0, 0.0, 1.0])
    assert beta[35] == 2.0
    assert beta[3] == 2 and beta[29] == 1 and beta[30] == 1  # Sat, Sun


def test_build_features_needs_two_companies():
    with pytest.raises(InsufficientCompaniesError):
        build_features({"solo": [row()]},
                       [profile("solo", False, 1, alert=1)])


def test_build_features_needs_one_profile_per_company():
    by_service = {"alpha": [row()], "beta": [row()]}
    with pytest.raises(ValueError):
        build_features(by_service, [profile("alpha", False, 1, alert=1)])


def test_standardize_population_zscores():
    rng = np.random.default_rng(1)
    x = rng.normal(5, 3, size=(20, 4))
    x[:, 2] = 7.0  # constant column
    z = standardize(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, [0, 1, 3]].std(axis=0), 1.0)  # population convention
    assert np.all(z[:, 2] == 0.0)
    with pytest.raises(ValueError):
        standardize(x[:1])


def blobs(rng, centers, per=8, spread=0.1):
    rows = [rng.normal(c, spread, size=(per, len(centers[0]))) for c in centers]
    return np.vstack(rows)


def test_pca_orthonormal_and_svd_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, size=(30, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    pca = pca_fit(x, 4)
    c = pca.components
    assert c.shape == (4, 6)
    assert np.allclose(c @ c.T, np.eye(4), atol=1e-10)
    centered = x - x.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    assert np.allclose(pca.eigenvalues, s ** 2 / len(x), atol=1e-9)
    # components match right singular vectors up to sign
    _, _, vt = np.linalg.svd(centered)
    for i in range(4):
        assert abs(float(vt[i] @ c[i])) == pytest.approx(1.0)
        j = int(np.argmax(np.abs(c[i])))
        assert c[i, j] > 0  # sign convention
    # transform is projection of the centered data
    assert np.allclose(pca.transform(x), centered @ c.T)


def test_pca_clamps_beyond_rank():
    x = np.array([[0.0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [2, 0, 1, 0, 0]])
    pca = pca_fit(x, 5)
    assert pca.components.shape[0] == 2  # 3 points span a plane


def test_pca_rejects_bad_targets():
    with pytest.raises(ValueError):
        pca_fit(np.eye(3), 0)


def test_kmeans_recovers_blobs_and_is_deterministic():
    rng = np.random.default_rng(4)
    x = blobs(rng, [[0, 0], [10, 10], [0, 10]])
    first = kmeans(x, 3, seed=9)
    second = kmeans(x, 3, seed=9)
    assert np.array_equal(first.labels, second.labels)
    assert first.inertia == second.inertia
    for start in (0, 8, 16):
        block = first.labels[start:start + 8]
        assert len(set(block.tolist())) == 1
    assert len(set(first.labels.tolist())) == 3


def test_kmeans_inertia_history_nonincreasing():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 10, size=(40, 3))
    result = kmeans(x, 4, seed=1, restarts=1)
    hist = result.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_restarts_never_hurt():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 10, size=(30, 2))
    # restart 1 of N shares the rng sequence with restarts=1
    single = kmeans(x, 5, seed=3, restarts=1)
    many = kmeans(x, 5, seed=3, restarts=10)
    assert many.inertia <= single.inertia + 1e-9


def test_kmeans_guards():
    x = np.eye(3)
    with pytest.raises(ValueError):
        kmeans(x, 1)
    with pytest.raises(ValueError):
        kmeans(x, 4)


def silhouette_oracle(x, labels):
    n = len(x)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in own])
        b = min(np.mean([np.linalg.norm(x[i] - x[j])
                         for j in range(n) if labels[j] == lab])
                for lab in set(labels) if lab != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


@pytest.mark.parametrize("seed", range(6))
def test_silhouette_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(0, 5, size=(12, 3))
    labels = rng.integers(0, 3, 12)
    while len(set(labels.tolist())) < 2:
        labels = rng.integers(0, 3, 12)
    assert silhouette(x, labels) == pytest.approx(
        silhouette_oracle(x, labels.tolist()), abs=1e-12)


def test_silhouette_extremes():
    rng = np.random.default_rng(7)
    x = blobs(rng, [[0, 0], [100, 100]], spread=0.01)
    labels = np.array([0] * 8 + [1] * 8)
    assert silhouette(x, labels) > 0.99
    with pytest.raises(ValueError):
        silhouette(x, np.zeros(16))


def _oracle_lloyd(x, centroids, reseeds):
    """``_lloyd`` as it ran before the restarts were refined together: one
    restart's centroids, one cluster at a time. Each re-seeded empty
    cluster is appended to ``reseeds``."""
    n, k = x.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    history = []
    for _ in range(cluster_mod._MAX_LLOYD_ITER):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = x[labels == c]
            if len(members) > 0:
                centroids[c] = members.mean(axis=0)
            else:
                reseeds.append(c)
                per_point = dists[np.arange(n), labels]
                centroids[c] = x[int(per_point.argmax())]
    dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, inertia, history


def _oracle_kmeans(x, k, seed, restarts, reseeds):
    """``kmeans`` as it ran before: seed one restart, refine it, then the
    next; a later restart wins only with a strictly lower inertia."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        result = _oracle_lloyd(x, cluster_mod._kmeans_pp_init(x, k, rng),
                               reseeds)
        if best is None or result[1] < best[1]:
            best = result
    return best


def _oracle_silhouette(x, labels):
    """``silhouette`` as it ran before: a loop over the points, each
    cluster's distances masked out of the point's row."""
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("silhouette undefined for a single cluster")
    n = x.shape[0]
    diffs = x[:, None, :] - x[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_size = int(own_mask.sum())
        if own_size <= 1:
            scores[i] = 0.0
            continue
        a = dists[i][own_mask].sum() / (own_size - 1)
        b = min(dists[i][labels == other].mean()
                for other in unique if other != own)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


@st.composite
def _cluster_inputs(draw):
    """(matrix, k, seed, restarts): n 2-150, d 1-6, k 2-min(10, n);
    values rounded for ties, duplicated rows and one far outlier."""
    n, d = draw(st.integers(2, 150)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0, 3, size=(n, d))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        x = np.round(x, decimals)
    copies = draw(st.integers(0, n // 2))
    x[rng.integers(0, n, copies)] = x[rng.integers(0, n, copies)]
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] *= 1000.0
    return (x, draw(st.integers(2, min(10, n))), draw(st.integers(0, 999)),
            draw(st.integers(1, 10)))


# one column: numpy's mean(axis=0) sums an (m, 1) block pairwise, where a
# block of more columns is summed row by row
_ONE_COLUMN = (np.random.default_rng(23).normal(0, 3, size=(60, 1)), 3, 42, 10)
# the first restart's third cluster loses its last point after its centroid
# has moved, and is re-seeded away from row 0; the third restart ties the
# first's inertia, which the first keeps
_EMPTIES_A_CLUSTER = (np.array([[3, -2], [2, 4], [4, 4], [4, -5], [0, 6],
                                [2, -3], [-1, 6], [-4, 4], [3, -1], [-6, 2]],
                               dtype=float), 3, 16646, 3)


@settings(max_examples=150, deadline=None)
@given(case=_cluster_inputs())
@example(case=_ONE_COLUMN)
@example(case=_EMPTIES_A_CLUSTER)
def test_kmeans_and_silhouette_match_oracles_bit_for_bit(case):
    x, k, seed, restarts = case
    labels, inertia, history = _oracle_kmeans(x, k, seed, restarts, [])
    result = kmeans(x, k, seed=seed, restarts=restarts)
    assert np.array_equal(result.labels, labels)
    assert result.inertia == inertia
    assert result.inertia_history == history
    relabelled = np.random.default_rng(seed).integers(-1, k, len(x)) * 7
    for candidate in (labels, relabelled):
        if len(np.unique(candidate)) < 2:
            with pytest.raises(ValueError):
                silhouette(x, candidate)
        else:
            assert silhouette(x, candidate) == _oracle_silhouette(x, candidate)


def test_empty_cluster_example_runs_the_reseed_branch():
    x, k, seed, restarts = _EMPTIES_A_CLUSTER
    reseeds = []
    _oracle_kmeans(x, k, seed, restarts, reseeds)
    assert reseeds


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_kmeans_matches_oracle_when_lloyd_hits_its_cap(monkeypatch, max_iter):
    # a restart still moving at the cap takes its labels from one more
    # assignment, not from the last entry of its history
    monkeypatch.setattr(cluster_mod, "_MAX_LLOYD_ITER", max_iter)
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 10, size=(80, 3))
    labels, inertia, history = _oracle_kmeans(x, 6, 5, 10, [])
    result = kmeans(x, 6, seed=5, restarts=10)
    assert len(history) == max_iter
    assert np.array_equal(result.labels, labels)
    assert (result.inertia, result.inertia_history) == (inertia, history)


@pytest.mark.parametrize("n_blobs", [2, 3])
def test_select_k_finds_planted_count(n_blobs):
    rng = np.random.default_rng(8)
    centers = [[0, 0], [20, 0], [10, 17]][:n_blobs]
    x = blobs(rng, centers, per=10, spread=0.5)
    result = select_k(x, seed=1)
    assert result.k == n_blobs
    assert result.silhouette > 0.8
    assert set(result.per_k_silhouette) == set(range(2, 11))
    assert result.per_k_silhouette[n_blobs] == result.silhouette


def test_select_k_tie_prefers_smaller(monkeypatch):
    monkeypatch.setattr(cluster_mod, "silhouette", lambda x, labels: 0.5)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 10, size=(12, 2))
    result = cluster_mod.select_k(x, k_min=2, k_max=6, seed=1)
    assert result.k == 2


def test_select_k_clamps_to_row_count():
    rng = np.random.default_rng(10)
    x = blobs(rng, [[0, 0], [10, 10]], per=2, spread=0.01)  # 4 rows
    result = select_k(x, k_min=2, k_max=10, seed=1)
    assert result.clamped
    assert max(result.per_k_silhouette) <= 4
    with pytest.raises(ValueError):
        select_k(x, k_min=5, k_max=10)


def test_select_k_identical_rows_is_infeasible():
    with pytest.raises(InsufficientCompaniesError, match="identical features"):
        select_k(np.zeros((3, 2)))


def test_loadings_report_shape():
    rng = np.random.default_rng(11)
    x = blobs(rng, [[0, 0, 0], [5, 5, 5]], per=6, spread=0.2)
    pca = pca_fit(x, 2)
    scores = pca.transform(x)
    selection = select_k(scores, k_min=2, k_max=3, seed=2)
    report = loadings_report(pca, selection, ["f0", "f1", "f2"], scores, top_n=2)
    assert len(report["components"]) == 2
    for comp in report["components"]:
        mags = [abs(f["loading"]) for f in comp["top_features"]]
        assert mags == sorted(mags, reverse=True)
        assert len(comp["top_features"]) == 2
    assert sum(c["size"] for c in report["clusters"]) == len(x)
