"""Bundled reference table: 109 root domains with sector, cluster, and
per-type email counts. Drives fixture-check and the soft cluster-membership
validation; nothing here ever mutates the shipped file.

The table's rows and analyze's per-company rows share one shape,
``CompanyRow``, and one sector contingency and grouping code path.

numpy is imported inside the functions that use it: every stage
process imports this module through the CLI, and only the analysis
needs numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .classify.rules import LABELS
from .cluster import kmeans
from .formats import ascii_decimal, read_table
from .stats.core import (
    ContingencyTable,
    chi_squared_independence,
    descriptive,
    one_way_anova,
)

if TYPE_CHECKING:
    import numpy as np

EXPECTED_ROWS = 109
# Messages in the paper's corpus. The bundled rows sum to 4,842, so
# shares of the corpus are taken over this count, not the table's sum.
PAPER_MESSAGE_COUNT = 4847


@dataclass(frozen=True)
class CompanyRow:
    """One company: a root domain of the table, or a service in analyze."""
    company: str
    sector: str
    cluster: int
    total: int
    promotional: int
    crm: int
    alert: int


class FixtureIntegrityError(ValueError):
    pass


# CompanyRow's fields, in order
_TABLE_COLUMNS = ("root_domain", "sector", "cluster", "total", "promotional",
                  "crm", "alert")


def load_fixture_table(path: str | Path | None = None) -> list[CompanyRow]:
    source = path if path is not None else resources.files("inboxaudit").joinpath(
        "fixtures/appendix_table.csv")
    rows: list[CompanyRow] = []
    for rownum, cells in read_table(source, _TABLE_COLUMNS):
        try:
            row = CompanyRow(cells["root_domain"], cells["sector"],
                             *(ascii_decimal(cells[c], c)
                               for c in _TABLE_COLUMNS[2:]))
        except ValueError as exc:
            raise FixtureIntegrityError(
                f"{source}: row {rownum}: {exc}") from exc
        rows.append(row)
    if path is None and len(rows) != EXPECTED_ROWS:
        raise FixtureIntegrityError(
            f"bundled table must have {EXPECTED_ROWS} rows, found {len(rows)}")
    if not rows:
        raise FixtureIntegrityError(f"{source}: fixture table is empty")
    return rows


def sector_contingency(rows: list[CompanyRow]) -> ContingencyTable:
    """Sector x content-type counts summed over the company rows."""
    sectors = sorted({r.sector for r in rows})
    counts = []
    for sector in sectors:
        members = [r for r in rows if r.sector == sector]
        counts.append([sum(getattr(r, label) for r in members)
                       for label in LABELS])
    return ContingencyTable(row_labels=sectors, col_labels=list(LABELS),
                            counts=counts)


def sector_groups(rows: list[CompanyRow]) -> dict[str, list[float]]:
    """Per-company totals grouped by sector."""
    groups: dict[str, list[float]] = {}
    for row in rows:
        groups.setdefault(row.sector, []).append(float(row.total))
    return {sector: groups[sector] for sector in sorted(groups)}


def feature_subset(rows: list[CompanyRow]) -> tuple[list[str], np.ndarray]:
    """Reduced features derivable from the table: total + content proportions.

    The published cluster column was produced from a richer feature set
    that includes temporal columns; this subset is the part the table
    can reconstruct, so membership checks against it are soft.
    """
    import numpy as np
    companies = [r.company for r in rows]
    matrix = np.zeros((len(rows), 4))
    for i, row in enumerate(rows):
        classified = row.promotional + row.crm + row.alert
        matrix[i, 0] = float(row.total)
        if classified > 0:
            matrix[i, 1] = row.promotional / classified
            matrix[i, 2] = row.crm / classified
            matrix[i, 3] = row.alert / classified
    return companies, matrix


def cluster_membership_check(rows: list[CompanyRow], seed: int = 42,
                             restarts: int = 10) -> dict:
    """k=2 K-Means on the reduced subset vs the published cluster column.

    Clustering runs on the raw (unstandardized) subset: with volume in
    one column and proportions in the rest, the raw geometry is the one
    that reproduces the published split. Cluster ids are matched to the
    published labels by majority overlap.
    """
    companies, matrix = feature_subset(rows)
    published = {r.company: r.cluster for r in rows}
    result = kmeans(matrix, k=2, seed=seed, restarts=restarts)

    # map fitted ids → published ids by best agreement
    best_map, best_hits = None, -1
    for mapping in ({0: 0, 1: 1}, {0: 1, 1: 0}):
        hits = sum(mapping[int(lab)] == published[c]
                   for c, lab in zip(companies, result.labels))
        if hits > best_hits:
            best_map, best_hits = mapping, hits
    assert best_map is not None
    misassigned = [c for c, lab in zip(companies, result.labels)
                   if best_map[int(lab)] != published[c]]
    return {
        "misassigned": sorted(misassigned),
        "n_misassigned": len(misassigned),
        "labels": {c: best_map[int(lab)]
                   for c, lab in zip(companies, result.labels)},
    }


# published reference values with acceptance tolerances
CHECKS = {
    "total_volume": {"expected": PAPER_MESSAGE_COUNT, "tolerance": 0},
    "top10_share": {"expected": 0.6323, "tolerance": 0.0005},
    "skewness": {"expected": 3.55, "tolerance": 0.02},
    "excess_kurtosis": {"expected": 12.92, "tolerance": 0.05},
    "chi2_statistic": {"expected": 2138.858, "tolerance_rel": 0.01},
    "anova_f": {"expected": 3.5095, "tolerance_rel": 0.01},
    "anova_p": {"expected": 0.002, "tolerance": 0.001},
}


def run_fixture_checks(rows: list[CompanyRow],
                       convention: str = "sample") -> list[dict]:
    """Recompute the published statistics and compare with tolerances.

    Returns one entry per ``CHECKS`` key (seven checks): check, expected,
    actual, tolerance, ok, note. The top-10 share is taken over the
    paper's ``PAPER_MESSAGE_COUNT`` messages, which is how the published
    63.23% was computed; the moment convention in use is reported
    alongside the moments.
    """
    totals = [float(r.total) for r in rows]
    checks: list[dict] = []

    def add(name: str, actual: float, note: str = ""):
        spec = CHECKS[name]
        expected = spec["expected"]
        if "tolerance_rel" in spec:
            tol = abs(expected) * spec["tolerance_rel"]
        else:
            tol = spec["tolerance"]
        checks.append({
            "check": name,
            "expected": expected,
            "actual": actual,
            "tolerance": tol,
            "ok": abs(actual - expected) <= tol,
            "note": note,
        })

    add("total_volume", float(sum(int(t) for t in totals)),
        f"{len(rows)} root domains")

    top10 = sum(sorted((r.total for r in rows), reverse=True)[:10])
    add("top10_share", top10 / PAPER_MESSAGE_COUNT,
        f"top-10 volume {top10} / {PAPER_MESSAGE_COUNT} paper messages")

    moments = descriptive(totals, convention=convention)
    add("skewness", moments["skewness"], f"convention={convention}")
    add("excess_kurtosis", moments["excess_kurtosis"], f"convention={convention}")

    chi2 = chi_squared_independence(sector_contingency(rows))
    add("chi2_statistic", chi2.statistic,
        f"df={chi2.df[0]}, p={chi2.p_value:.3e}")

    groups = sector_groups(rows)
    anova = one_way_anova(list(groups.values()))
    add("anova_f", anova.statistic, f"df={anova.df}")
    add("anova_p", anova.p_value)

    return checks
