"""Pipeline stages behind the CLI: ingest, classify, analyze, report.

Each stage leaves artifacts in the configured output directory and
returns (summary, product). Run alone, a stage reads its upstream
products from those artifacts, so stages can run in separate processes;
``run_report`` hands each product to the next stage in memory instead.
All numeric output goes through repr() of Python floats, which keeps
reruns byte-identical for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from zoneinfo import ZoneInfo

from .authlineage import ServiceOrgMap, classify_provenance
from .classify.adapter import classify_records
from .classify.rules import (LABELS, Classification, RuleTable,
                             default_rule_table)
from .cluster import (FEATURE_NAMES, build_features, loadings_report, pca_fit,
                      select_k, standardize)
from .config import AuditConfig
from .corpus.aliases import load_alias_registry
from .corpus.store import (CorpusStore, ingest_corpus, read_corpus_jsonl,
                           write_corpus_jsonl)
from .fixture import CompanyRow, sector_contingency, sector_groups
from .formats import read_jsonl, read_table, write_jsonl
from .netintel import (AsnTable, MessageRow, asn_volume_concentration,
                       build_sender_profiles, flag_marketing_asn,
                       ip_hopping_correlation, is_internal_hop,
                       load_abuse_reports, load_ip2asn, load_provider_list,
                       rows_by_service)
from .stats.core import (chi_squared_independence, descriptive,
                         kruskal_wallis, one_way_anova, pareto)
from .temporal import (build_daily_series, decompose_additive,
                       hour_day_matrix, spectrum_bins)

log = logging.getLogger(__name__)

CORPUS_FILE = "corpus.jsonl"
INGEST_REPORT_FILE = "ingest_report.json"
CLASSIFICATIONS_FILE = "classifications.jsonl"
CLASSIFY_SUMMARY_FILE = "classification_summary.json"
REPORT_FILE = "report.json"

ANALYZE_ARTIFACTS = [
    "pareto.csv", "spectrum.csv", "decomposition.csv", "heatmap.csv",
    "features.csv", "clusters.csv", "loadings.json", "sankey.json",
    "treemap.json", "sector_stats.json",
]


def _out_dir(cfg: AuditConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               ensure_ascii=False) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


def _bundled(name: str) -> Path:
    return resources.files("inboxaudit").joinpath("data", name)


def load_schema(name: str) -> dict:
    """Published JSON schema (or the CSV header manifest) by file name."""
    ref = resources.files("inboxaudit").joinpath("schemas", name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _load_providers(path: str | None, bundled_name: str) -> list[str]:
    if path:
        return load_provider_list(path)
    return load_provider_list(_bundled(bundled_name))


def _load_rule_table(cfg: AuditConfig) -> RuleTable:
    if cfg.rule_table_path:
        return RuleTable.load(cfg.rule_table_path)
    return default_rule_table()


def _load_sector_map(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    return {row["root_domain"].lower(): row["sector"] for _, row in read_table(
        path, ("root_domain", "sector"), unique="root_domain")}


def run_ingest(cfg: AuditConfig) -> tuple[dict, CorpusStore]:
    """Parse the EML directory into corpus.jsonl plus an ingest report."""
    out = _out_dir(cfg)
    registry = load_alias_registry(cfg.registry_path)
    store, report = ingest_corpus(cfg.corpus_dir, registry,
                                  trusted_mx=cfg.trusted_mx)
    write_corpus_jsonl(store, out / CORPUS_FILE)
    payload = asdict(report)
    _write_json(out / INGEST_REPORT_FILE, payload)
    log.info("ingested %d files: %d ok, %d unparseable, %d unmatched",
             report.files, report.ok, report.unparseable, report.unmatched)
    return payload, store


def _upstream(cfg: AuditConfig, name: str, what: str, stage: str) -> Path:
    path = _out_dir(cfg) / name
    if not path.is_file():
        raise OSError(f"{what} artifact missing: {path} (run {stage} first)")
    return path


def run_classify(cfg: AuditConfig, store: CorpusStore | None = None
                 ) -> tuple[dict, dict[str, Classification]]:
    """Classify content of every parsed record; write JSONL + summary."""
    out = _out_dir(cfg)
    if store is None:
        store = read_corpus_jsonl(_upstream(cfg, CORPUS_FILE, "corpus", "ingest"))
    table = _load_rule_table(cfg)
    results = classify_records(store.records, cfg.classifier,
                               cfg=cfg.adapter, table=table)

    write_jsonl(out / CLASSIFICATIONS_FILE,
                ({"message_id": message_id, **vars(results[message_id])}
                 for message_id in sorted(results)))

    counts = dict.fromkeys(LABELS, 0)
    fallbacks = 0
    for cls in results.values():
        counts[cls.label] += 1
        if "adapter_fallback" in cls.flags:
            fallbacks += 1
    classified = sum(counts.values())
    summary = {
        "classifier": cfg.classifier,
        "classified": classified,
        "counts": counts,
        "percentages": {label: (100.0 * n / classified if classified else 0.0)
                        for label, n in counts.items()},
        "adapter_fallbacks": fallbacks,
        "unclassified": len(store.records) - classified,
    }
    _write_json(out / CLASSIFY_SUMMARY_FILE, summary)
    return summary, results


def _load_classifications(cfg: AuditConfig) -> dict[str, Classification]:
    path = _upstream(cfg, CLASSIFICATIONS_FILE, "classifications", "classify")
    return dict(read_jsonl(path, "classification", lambda entry: (
        entry.pop("message_id"), Classification.from_dict(entry)),
        unique="message_id"))


def _resolve_sector(rows: list[MessageRow], sector_map: dict[str, str]) -> str:
    """A service's sector: its first mapped root domain, else its alias kind."""
    for row in rows:
        domain = row.record.from_root_domain
        if domain and domain in sector_map:
            return sector_map[domain]
    return rows[0].record.alias.service_kind


def enrich(store: CorpusStore, asn_table: AsnTable, providers: list[str],
           clouds: list[str], org_map: ServiceOrgMap,
           classifications: dict[str, Classification], *,
           audit_timezone: str) -> list[MessageRow]:
    """One row per parsed message, in corpus order: the one place a
    message's time is put into ``audit_timezone``, its sender IP looked
    up, its content label read and its provenance decided.
    ``classifications`` labels every parsed message."""
    zone = ZoneInfo(audit_timezone)
    rows: list[MessageRow] = []
    for rec in store.ok_records():
        ip = None if is_internal_hop(rec.sender_ip) else rec.sender_ip
        asn = asn_table.lookup(ip) if ip else None
        marketing = flag_marketing_asn(asn, providers)
        content = classifications[rec.message_id].label
        label = classify_provenance(
            rec, asn=asn, marketing_flag=marketing, org_map=org_map,
            cloud_flag=flag_marketing_asn(asn, clouds), content_label=content)
        rows.append(MessageRow(rec, rec.received_utc.astimezone(zone), ip,
                               asn, marketing, label, content))
    return rows


def _provenance_summary(rows: list[MessageRow]) -> dict:
    labels = [row.provenance for row in rows]
    return {"provenance": dict(Counter(lab.provenance for lab in labels)),
            "spam": dict(Counter(lab.spam for lab in labels)),
            "flags": dict(Counter(f for lab in labels for f in lab.flags))}


def _sector_stats(companies: list[CompanyRow], pareto_table, profiles,
                  flows) -> dict:
    """Aggregate statistics block for sector_stats.json."""
    contingency = sector_contingency(companies)
    groups = list(sector_groups(companies).values())
    stats: dict = {
        "contingency": {"rows": contingency.row_labels,
                        "cols": contingency.col_labels,
                        "counts": contingency.counts},
    }

    def attempt(name: str, fn):
        """stats[name] = fn(), or None with a note when fn is infeasible."""
        try:
            stats[name] = fn()
        except ValueError as exc:
            stats[name] = None
            stats.setdefault("notes", []).append(f"{name}: {exc}")

    attempt("chi_squared", lambda: chi_squared_independence(contingency).to_dict())
    attempt("anova", lambda: one_way_anova(groups).to_dict())
    attempt("kruskal_wallis", lambda: kruskal_wallis(groups).to_dict())
    attempt("descriptive", lambda: descriptive(
        [float(c.total) for c in companies]))
    stats["pareto"] = {
        "total": pareto_table.total,
        "top_10_share": pareto_table.top_k_share(10),
        "n_domains": len(pareto_table.entries),
    }
    attempt("ip_hopping", lambda: ip_hopping_correlation(profiles))
    stats["asn_concentration"] = [
        {"asn": label, "emails": volume, "cumulative_share": share}
        for label, volume, share in asn_volume_concentration(flows)]
    return stats


def run_analyze(cfg: AuditConfig, store: CorpusStore | None = None,
                classifications: dict[str, Classification] | None = None
                ) -> tuple[dict, dict]:
    """Produce the ten analysis artifacts; returns (summary, sector stats).

    Every result is computed before the first artifact is written, so an
    analysis that cannot finish leaves the output directory as it was."""
    out = _out_dir(cfg)
    if store is None:
        store = read_corpus_jsonl(_upstream(cfg, CORPUS_FILE, "corpus", "ingest"))
    if classifications is None:
        classifications = _load_classifications(cfg)
    parsed = {rec.message_id for rec in store.ok_records()}
    if parsed != classifications.keys():
        raise ValueError(
            f"{CLASSIFICATIONS_FILE} does not match {CORPUS_FILE}: "
            f"{len(parsed - classifications.keys())} parsed messages have no "
            f"label and {len(classifications.keys() - parsed)} labels name no "
            f"parsed message (run classify on this corpus)")

    asn_table = load_ip2asn(cfg.ip2asn_path) if cfg.ip2asn_path else AsnTable()
    abuse = load_abuse_reports(cfg.abuse_path) if cfg.abuse_path else {}
    providers = _load_providers(cfg.provider_list_path, "marketing_providers.txt")
    clouds = _load_providers(cfg.cloud_list_path, "cloud_providers.txt")
    org_map = (ServiceOrgMap.load(cfg.org_map_path) if cfg.org_map_path
               else ServiceOrgMap())
    sector_map = _load_sector_map(cfg.sector_map_path)

    rows = enrich(store, asn_table, providers, clouds, org_map, classifications,
                  audit_timezone=cfg.audit_timezone)
    by_service = rows_by_service(rows)
    profiles, flows = build_sender_profiles(by_service, abuse)

    # Pareto ranking over root domains of parsed mail
    domains = Counter(row.record.from_root_domain for row in rows
                      if row.record.from_root_domain)
    if not domains:
        raise ValueError("no parsed mail with a sender domain; nothing to rank")
    pareto_table = pareto([(d, float(n)) for d, n in domains.items()])

    # temporal results on the whole-inbox series
    stamps = [row.local for row in rows]
    series = build_daily_series(stamps)
    bins = spectrum_bins(series)
    dec = decompose_additive(series)
    matrix = hour_day_matrix(stamps)

    # clustering
    features = build_features(by_service, profiles)
    standardized = standardize(features)
    pca = pca_fit(standardized)
    scores = pca.transform(standardized)
    selection = select_k(scores, seed=cfg.seed)

    loadings = loadings_report(pca, selection, FEATURE_NAMES, scores)
    loadings["selected_k"] = selection.k
    loadings["silhouette"] = selection.silhouette
    loadings["per_k_silhouette"] = {str(k): v for k, v
                                    in selection.per_k_silhouette.items()}
    warnings = []
    if selection.clamped:
        warnings.append("k range clamped to the company count")
    loadings["warnings"] = warnings

    # one appendix-shaped row per company feeds the sector statistics
    companies = [
        CompanyRow(company=service,
                   sector=_resolve_sector(service_rows, sector_map),
                   cluster=int(cluster), total=profile.emails_total,
                   **{label: profile.content_counts[label] for label in LABELS})
        for (service, service_rows), profile, cluster
        in zip(by_service.items(), profiles, selection.labels, strict=True)]
    stats = _sector_stats(companies, pareto_table, profiles, flows)
    stats["provenance_summary"] = _provenance_summary(rows)

    _write_csv(out / "pareto.csv",
               ["rank", "root_domain", "emails", "share", "cumulative_share"],
               [[i + 1, e.name, int(e.value), e.share, e.cumulative_share]
                for i, e in enumerate(pareto_table.entries)])
    _write_csv(out / "spectrum.csv",
               ["frequency", "magnitude", "period", "is_peak"],
               [[b.frequency, b.magnitude, b.period_days, int(b.is_peak)]
                for b in bins])
    dates = series.dates()
    _write_csv(out / "decomposition.csv",
               ["day", "observed", "trend", "seasonal", "residual"],
               [[dates[i].isoformat(),
                 float(series.values[i]),
                 float(dec.trend[i]) if math.isfinite(dec.trend[i]) else "",
                 float(dec.seasonal[i]),
                 float(dec.residual[i]) if math.isfinite(dec.residual[i]) else ""]
                for i in range(len(series.values))])
    _write_csv(out / "heatmap.csv", ["dow", "hour", "count"],
               [[dow, hour, matrix[dow][hour]]
                for dow in range(7) for hour in range(24)])
    _write_csv(out / "features.csv", ["company"] + FEATURE_NAMES,
               [[company] + [float(v) for v in vector]
                for company, vector in zip(by_service, features)])
    _write_csv(out / "clusters.csv", ["company", "cluster", "pc1", "pc2"],
               [[company, int(cluster), float(score[0]),
                 float(score[1]) if scores.shape[1] > 1 else 0.0]
                for company, cluster, score
                in zip(by_service, selection.labels, scores)])
    _write_json(out / "loadings.json", loadings)
    _write_json(out / "sankey.json", flows.sankey)
    _write_json(out / "treemap.json", flows.treemap)
    _write_json(out / "sector_stats.json", stats)

    return {
        "artifacts": ANALYZE_ARTIFACTS,
        "companies": len(by_service),
        "selected_k": selection.k,
        "silhouette": selection.silhouette,
        "warnings": warnings,
    }, stats


def run_report(cfg: AuditConfig) -> dict:
    """Full chain: ingest, classify, analyze, plus a combined report."""
    out = _out_dir(cfg)
    ingest, store = run_ingest(cfg)
    classify, classifications = run_classify(cfg, store)
    analyze, stats = run_analyze(cfg, store, classifications)
    report = {
        "ingest": ingest,
        "classification": classify,
        "analysis": analyze,
        "provenance_summary": stats.get("provenance_summary"),
        "artifacts": [CORPUS_FILE, INGEST_REPORT_FILE, CLASSIFICATIONS_FILE,
                      CLASSIFY_SUMMARY_FILE] + ANALYZE_ARTIFACTS,
    }
    _write_json(out / REPORT_FILE, report)
    return report
