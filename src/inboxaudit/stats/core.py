"""Descriptive and inferential statistics used across the audit reports.

Everything here is plain-Python over lists with compensated sums; the
p-values delegate to the in-repo special functions so results are stable
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .special import chi2_sf, f_sf, student_t_two_sided

__all__ = [
    "ContingencyTable",
    "TestResult",
    "ParetoEntry",
    "ParetoTable",
    "descriptive",
    "pareto",
    "chi_squared_independence",
    "one_way_anova",
    "kruskal_wallis",
    "pearson",
    "spearman",
    "average_ranks",
]


class InsufficientDataError(ValueError):
    """Raised when an operation has too few observations to be defined."""


@dataclass
class TestResult:
    statistic: float
    df: tuple[int, ...]
    p_value: float

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value out of [0, 1]: {self.p_value}")

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": list(self.df),
            "p_value": self.p_value,
        }


@dataclass
class ContingencyTable:
    row_labels: list[str]
    col_labels: list[str]
    counts: list[list[int]]
    dropped_rows: list[str] = field(default_factory=list)
    dropped_cols: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.counts) != len(self.row_labels):
            raise ValueError("row label / count shape mismatch")
        for row in self.counts:
            if len(row) != len(self.col_labels):
                raise ValueError("column label / count shape mismatch")
            if any(c < 0 for c in row):
                raise ValueError("contingency counts must be nonnegative")

    def drop_zero_marginals(self) -> "ContingencyTable":
        """Return a copy with all-zero rows/columns removed (recorded on the copy)."""
        keep_r = [i for i, row in enumerate(self.counts) if sum(row) > 0]
        keep_c = [j for j in range(len(self.col_labels))
                  if sum(row[j] for row in self.counts) > 0]
        return ContingencyTable(
            row_labels=[self.row_labels[i] for i in keep_r],
            col_labels=[self.col_labels[j] for j in keep_c],
            counts=[[self.counts[i][j] for j in keep_c] for i in keep_r],
            dropped_rows=[self.row_labels[i] for i in range(len(self.row_labels))
                          if i not in keep_r],
            dropped_cols=[self.col_labels[j] for j in range(len(self.col_labels))
                          if j not in keep_c],
        )


def _moments(values: Sequence[float]) -> tuple[float, float, float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values) / n
    m3 = math.fsum((v - mean) ** 3 for v in values) / n
    m4 = math.fsum((v - mean) ** 4 for v in values) / n
    return mean, m2, m3, m4


def descriptive(values: Sequence[float], convention: str = "sample") -> dict:
    """Mean, median, skewness and excess kurtosis of ``values``.

    ``convention`` selects the moment estimator: "sample" applies the
    adjusted Fisher-Pearson bias corrections, "population" reports the
    plain standardized moments. Symmetric data gives skewness 0 under
    both. Raises when there are too few observations for the requested
    moment (2 for skewness, 4 for kurtosis corrections).
    """
    n = len(values)
    if n < 2:
        raise InsufficientDataError("descriptive statistics require n >= 2")
    if convention not in ("sample", "population"):
        raise ValueError(f"unknown convention: {convention!r}")
    if convention == "sample" and n < 4:
        raise InsufficientDataError(
            "sample kurtosis correction requires n >= 4; "
            "use convention='population' for smaller samples"
        )

    mean, m2, m3, m4 = _moments(values)
    ordered = sorted(values)
    mid = n // 2
    median = float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0

    if m2 == 0.0:
        skew = 0.0
        kurt = 0.0
    else:
        g1 = m3 / m2 ** 1.5
        g2 = m4 / (m2 * m2) - 3.0
        if convention == "population":
            skew, kurt = g1, g2
        else:
            skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))

    return {
        "n": n,
        "mean": mean,
        "median": median,
        "skewness": skew,
        "excess_kurtosis": kurt,
        "convention": convention,
    }


@dataclass
class ParetoEntry:
    name: str
    value: float
    share: float
    cumulative_share: float


@dataclass
class ParetoTable:
    entries: list[ParetoEntry]
    total: float

    def top_k_share(self, k: int) -> float:
        """Cumulative share of the k largest contributors."""
        if k <= 0:
            return 0.0
        k = min(k, len(self.entries))
        return self.entries[k - 1].cumulative_share


def pareto(values: Sequence[tuple[str, float]]) -> ParetoTable:
    """Concentration table: descending shares with cumulative sums.

    Ties are broken by name so the ordering is reproducible.
    """
    total = math.fsum(v for _, v in values)
    if total <= 0:
        raise ValueError("pareto requires a positive total")
    ordered = sorted(values, key=lambda nv: (-nv[1], nv[0]))
    entries = []
    running = 0.0
    for name, value in ordered:
        share = value / total
        running += share
        entries.append(ParetoEntry(name=name, value=value, share=share,
                                   cumulative_share=min(running, 1.0)))
    return ParetoTable(entries=entries, total=total)


def chi_squared_independence(table: ContingencyTable) -> TestResult:
    """Pearson chi-squared test of independence, no continuity correction.

    Zero-marginal rows/columns are dropped before computing. df is
    (r-1)(c-1); the p-value comes from the upper incomplete gamma.
    """
    t = table.drop_zero_marginals()
    r, c = len(t.row_labels), len(t.col_labels)
    if r < 2 or c < 2:
        raise InsufficientDataError(
            "chi-squared needs at least 2 rows and 2 columns with nonzero marginals"
        )
    row_sums = [math.fsum(row) for row in t.counts]
    col_sums = [math.fsum(row[j] for row in t.counts) for j in range(c)]
    grand = math.fsum(row_sums)
    stat = 0.0
    for i in range(r):
        for j in range(c):
            expected = row_sums[i] * col_sums[j] / grand
            diff = t.counts[i][j] - expected
            stat += diff * diff / expected
    df = (r - 1) * (c - 1)
    return TestResult(statistic=stat, df=(df,), p_value=chi2_sf(stat, df))


def one_way_anova(groups: Sequence[Sequence[float]]) -> TestResult:
    """One-way fixed-effects ANOVA over ``groups`` of observations."""
    g = len(groups)
    if g < 2:
        raise InsufficientDataError("ANOVA requires at least 2 groups")
    if any(len(grp) == 0 for grp in groups):
        raise InsufficientDataError("ANOVA groups must be nonempty")
    n = sum(len(grp) for grp in groups)
    if n <= g:
        raise InsufficientDataError("ANOVA requires more observations than groups")

    grand_mean = math.fsum(math.fsum(grp) for grp in groups) / n
    ss_between = math.fsum(
        len(grp) * (math.fsum(grp) / len(grp) - grand_mean) ** 2 for grp in groups
    )
    ss_within = math.fsum(
        math.fsum((v - math.fsum(grp) / len(grp)) ** 2 for v in grp) for grp in groups
    )
    df1, df2 = g - 1, n - g
    ms_between = ss_between / df1
    ms_within = ss_within / df2
    if ms_within == 0.0:
        if ms_between == 0.0:
            return TestResult(statistic=0.0, df=(df1, df2), p_value=1.0)
        return TestResult(statistic=math.inf, df=(df1, df2), p_value=0.0)
    stat = ms_between / ms_within
    return TestResult(statistic=stat, df=(df1, df2), p_value=f_sf(stat, df1, df2))


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties assigned the average of the tied positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal-Wallis H test with tie correction, chi-squared approximation."""
    g = len(groups)
    if g < 2:
        raise InsufficientDataError("Kruskal-Wallis requires at least 2 groups")
    if any(len(grp) == 0 for grp in groups):
        raise InsufficientDataError("Kruskal-Wallis groups must be nonempty")
    pooled = [v for grp in groups for v in grp]
    n = len(pooled)
    if n < 5:
        raise InsufficientDataError("Kruskal-Wallis requires total n >= 5")

    ranks = average_ranks(pooled)
    df = g - 1
    if len(set(pooled)) == 1:
        return TestResult(statistic=0.0, df=(df,), p_value=1.0)

    h = 0.0
    pos = 0
    for grp in groups:
        r_sum = math.fsum(ranks[pos:pos + len(grp)])
        h += r_sum * r_sum / len(grp)
        pos += len(grp)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)

    # tie correction
    tie_counts: dict[float, int] = {}
    for v in pooled:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    correction = 1.0 - math.fsum(t ** 3 - t for t in tie_counts.values()) / (n ** 3 - n)
    h /= correction
    h = max(0.0, h)
    return TestResult(statistic=h, df=(df,), p_value=chi2_sf(h, df))


def _corr_with_p(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined: zero variance input")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, student_t_two_sided(t, n - 2)


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Pearson r with a two-sided p-value from the t transform."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise InsufficientDataError("correlation requires n >= 3")
    return _corr_with_p(list(map(float, x)), list(map(float, y)))


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation: Pearson over average ranks, same p transform."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise InsufficientDataError("correlation requires n >= 3")
    return _corr_with_p(average_ranks(x), average_ranks(y))
