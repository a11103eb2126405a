"""Inter-rater reliability: nominal Cohen's kappa over label lists."""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def cohens_kappa(a: Sequence[str], b: Sequence[str]) -> float:
    """Chance-corrected agreement between two raters, unweighted.

    p_e comes from each rater's own marginal label frequencies. The
    degenerate p_e=1 case (both raters constant on the same label) is
    perfect agreement by construction, returned as 1.0.
    """
    if len(a) != len(b):
        raise ValueError(f"label list length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("kappa needs at least one item")

    p_o = sum(x == y for x, y in zip(a, b)) / n
    freq_a = Counter(a)
    freq_b = Counter(b)
    p_e = sum(freq_a[label] * freq_b.get(label, 0) for label in freq_a) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)
