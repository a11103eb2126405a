"""Inter-rater reliability: Cohen's kappa."""

import numpy as np
import pytest

from inboxaudit.classify.irr import cohens_kappa


def kappa_oracle(a, b):
    """Independent confusion-matrix implementation."""
    labels = sorted(set(a) | set(b))
    index = {lab: i for i, lab in enumerate(labels)}
    m = np.zeros((len(labels), len(labels)))
    for x, y in zip(a, b):
        m[index[x], index[y]] += 1
    n = m.sum()
    p_o = np.trace(m) / n
    p_e = float((m.sum(axis=1) / n) @ (m.sum(axis=0) / n))
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1 - p_e)


def test_kappa_perfect_agreement():
    assert cohens_kappa(list("aabbc"), list("aabbc")) == pytest.approx(1.0)


def test_kappa_hand_example():
    # classic 2x2: 20 agreements on a, 15 on b, 5+10 disagreements
    a = ["a"] * 25 + ["b"] * 25
    b = ["a"] * 20 + ["b"] * 5 + ["a"] * 10 + ["b"] * 15
    # p_o = 35/50 = .7, p_e = (.5*.6)+(.5*.4) = .5, kappa = .4
    assert cohens_kappa(a, b) == pytest.approx(0.4)


def test_kappa_chance_only_agreement():
    a = ["x", "x", "y", "y"]
    b = ["x", "y", "x", "y"]
    assert cohens_kappa(a, b) == pytest.approx(0.0)


def test_kappa_degenerate_marginals():
    assert cohens_kappa(["a", "a"], ["a", "a"]) == 1.0
    assert cohens_kappa(["a", "a"], ["a", "b"]) < 1.0


def test_kappa_length_mismatch():
    with pytest.raises(ValueError):
        cohens_kappa(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        cohens_kappa([], [])


@pytest.mark.parametrize("seed", range(20))
def test_kappa_matches_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(4, 12))
    labels = ["promotional", "crm", "alert"]
    a = [labels[i] for i in rng.integers(0, 3, n)]
    b = [labels[i] if rng.random() > 0.4 else a[j]
         for j, i in enumerate(rng.integers(0, 3, n))]
    assert cohens_kappa(a, b) == pytest.approx(kappa_oracle(a, b), abs=1e-9)
