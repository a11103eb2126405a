"""Output checks: artifacts against what the generator knows, computed apart
from the program (scipy for the statistics).

Each check returns the number of failed messages of one round. A message
fails when its own output is wrong; when an aggregate is wrong (a
statistic, a count), every message of the round fails.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from scipy import stats as sps

from gen import KINDS, Inputs

PUBLISHED_CHI2 = 2138.858


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _labels(out: Path) -> dict[str, dict]:
    with (out / "classifications.jsonl").open(encoding="utf-8") as fh:
        return {e["message_id"]: e for e in map(json.loads, fh)}


def _label_failures(inputs: Inputs, out: Path) -> int:
    """Messages whose rules label is not the kind they were written as."""
    got = _labels(out)
    return sum(1 for m in inputs.messages
               if got.get(m.message_id, {}).get("label") != m.kind
               or got[m.message_id]["source"] != "rules")


def _ingest_ok(inputs: Inputs, out: Path) -> bool:
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    return report == {"files": inputs.n_files, "ok": len(inputs.messages),
                      "unparseable": inputs.n_unparseable, "unmatched": 0,
                      "duplicates": 0}


class PaperInboxCheck:
    """χ², ANOVA F and Pareto from the generator's counts, labels, ingest."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        sectors = sorted({m.sector for m in inputs.messages})
        counts = Counter((m.sector, m.kind) for m in inputs.messages)
        self.contingency = [[counts[(s, k)] for k in KINDS] for s in sectors]
        self.chi2 = sps.chi2_contingency(self.contingency, correction=False)[0]
        per_company = Counter(m.service for m in inputs.messages)
        sector_of = {m.service: m.sector for m in inputs.messages}
        groups = [[float(n) for svc, n in sorted(per_company.items())
                   if sector_of[svc] == s] for s in sectors]
        self.anova_f = sps.f_oneway(*groups).statistic
        ranked = sorted(per_company.values(), reverse=True)
        self.total = sum(ranked)
        self.top10 = sum(ranked[:10]) / self.total

    def __call__(self, out: Path) -> int:
        s = json.loads((out / "sector_stats.json").read_text(encoding="utf-8"))
        aggregates_ok = (
            _ingest_ok(self.inputs, out)
            and s["contingency"]["counts"] == self.contingency
            and _close(s["chi_squared"]["statistic"], self.chi2)
            and abs(s["chi_squared"]["statistic"] - PUBLISHED_CHI2) < 5e-4
            and _close(s["anova"]["statistic"], self.anova_f)
            and s["pareto"]["total"] == self.total
            and _close(s["pareto"]["top_10_share"], self.top10))
        if not aggregates_ok:
            return self.inputs.n_files
        return _label_failures(self.inputs, out)


class AsnRangesCheck:
    """Sankey (service, ASN) weights against the row each IP was drawn from."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.edges = Counter((m.service, m.asn_label) for m in inputs.messages)

    def __call__(self, out: Path) -> int:
        if not _ingest_ok(self.inputs, out):
            return self.inputs.n_files
        sankey = json.loads((out / "sankey.json").read_text(encoding="utf-8"))
        got = Counter({(e["source"], e["target"]): e["weight"] for e in sankey})
        # a message on the wrong edge is missing from one and extra on another
        failed = max(sum((self.edges - got).values()),
                     sum((got - self.edges).values()))
        return min(self.inputs.n_files,
                   failed + _label_failures(self.inputs, out))

