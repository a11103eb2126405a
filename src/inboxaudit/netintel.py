"""Network intelligence: offline IP-to-ASN mapping and abuse enrichment.

All data comes from point-in-time snapshot files (never live WHOIS/BGP),
so runs are reproducible. Lookups are longest-prefix over per-family
tables; private and reserved source IPs are excluded from profiles and
flow outputs as internal hops.
"""

from __future__ import annotations

import csv
import ipaddress
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus.eml import UNMATCHED
from .stats import pearson, spearman

log = logging.getLogger(__name__)

UNROUTED = "unrouted"


class SnapshotParseError(ValueError):
    pass


@dataclass(frozen=True)
class AsnRecord:
    asn: int
    organization: str
    prefix: str

    @property
    def label(self) -> str:
        return f"AS{self.asn} {self.organization}"


class AsnTable:
    """Longest-prefix lookup table over CIDR prefixes, both address families."""

    def __init__(self):
        # family → prefix_len → network_int → AsnRecord
        self._tables: dict[int, dict[int, dict[int, AsnRecord]]] = {4: {}, 6: {}}
        # family → the prefix lengths present, longest first
        self._lengths: dict[int, list[int]] = {4: [], 6: []}

    def add_network(self, network: ipaddress._BaseNetwork, record: AsnRecord) -> None:
        family = network.version
        nets = self._tables[family].get(network.prefixlen)
        if nets is None:
            nets = self._tables[family][network.prefixlen] = {}
            self._lengths[family] = sorted(self._tables[family], reverse=True)
        nets[int(network.network_address)] = record

    def __len__(self) -> int:
        return sum(len(nets) for fam in self._tables.values()
                   for nets in fam.values())

    def lookup(self, ip: str | ipaddress.IPv4Address | ipaddress.IPv6Address
               ) -> AsnRecord | None:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        table = self._tables[addr.version]
        bits = addr.max_prefixlen
        value = int(addr)
        for plen in self._lengths[addr.version]:
            shifted = value >> (bits - plen) << (bits - plen) if plen else 0
            record = table[plen].get(shifted)
            if record is not None:
                return record
        return None


def _split_row(line: str) -> list[str]:
    delim = "\t" if "\t" in line else ","
    return [cell.strip() for cell in next(csv.reader([line], delimiter=delim))]


def _parse_asn(cell: str) -> int:
    cell = cell.strip().upper()
    if cell.startswith("AS"):
        cell = cell[2:]
    return int(cell)


def load_ip2asn(path: str | Path) -> AsnTable:
    """Load an ASN snapshot: rows of CIDR or (range_start, range_end) + asn + org.

    Overlapping entries resolve most-specific-first at lookup time.
    """
    table = AsnTable()
    path = Path(path)
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = _split_row(line)
        try:
            if "/" in cells[0]:
                if len(cells) < 3:
                    raise ValueError("expected cidr, asn, organization")
                network = ipaddress.ip_network(cells[0], strict=False)
                record = AsnRecord(asn=_parse_asn(cells[1]),
                                   organization=",".join(cells[2:]).strip(),
                                   prefix=str(network))
                table.add_network(network, record)
            else:
                if len(cells) < 4:
                    raise ValueError("expected range_start, range_end, asn, org")
                start = ipaddress.ip_address(cells[0])
                end = ipaddress.ip_address(cells[1])
                asn = _parse_asn(cells[2])
                org = ",".join(cells[3:]).strip()
                for network in ipaddress.summarize_address_range(start, end):
                    table.add_network(network, AsnRecord(
                        asn=asn, organization=org, prefix=str(network)))
        except ValueError as exc:
            raise SnapshotParseError(f"{path}: row {lineno}: {exc}") from exc
    return table


def is_internal_hop(ip: str) -> bool:
    """Private/reserved (non-global) source addresses never identify a sender."""
    try:
        return not ipaddress.ip_address(ip).is_global
    except ValueError:
        return True


def lookup_asn(ip: str, table: AsnTable) -> AsnRecord | None:
    if is_internal_hop(ip):
        return None
    return table.lookup(ip)


def flag_marketing_asn(record: AsnRecord | None, provider_list: list[str]) -> bool:
    """Case-insensitive substring match of the ASN organization."""
    if record is None or not record.organization:
        return False
    org = record.organization.lower()
    return any(p.lower() in org for p in provider_list if p)


def load_provider_list(path: str | Path) -> list[str]:
    """One organization substring per line; '#' comments allowed."""
    entries: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    return entries


def load_abuse_reports(path: str | Path) -> dict[str, int]:
    """Abuse snapshot: rows of (ip, total_reports); duplicate IPs are summed."""
    reports: dict[str, int] = {}
    path = Path(path)
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = _split_row(line)
        try:
            if len(cells) < 2:
                raise ValueError("expected ip, total_reports")
            ip = str(ipaddress.ip_address(cells[0]))
            count = int(cells[1])
            if count < 0:
                raise ValueError("negative report count")
        except ValueError as exc:
            raise SnapshotParseError(f"{path}: row {lineno}: {exc}") from exc
        reports[ip] = reports.get(ip, 0) + count
    return reports


@dataclass
class SenderProfile:
    service_name: str
    ips: set[str] = field(default_factory=set)
    asns: set[AsnRecord] = field(default_factory=set)
    uses_marketing_provider: bool = False
    spam_reports_total: int = 0
    emails_total: int = 0
    root_domain: str = ""          # most common from-domain, for flow labels
    internal_hop_ips: set[str] = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "service_name": self.service_name,
            "ips": sorted(self.ips),
            "asns": sorted(f"AS{a.asn} {a.organization}" for a in self.asns),
            "uses_marketing_provider": self.uses_marketing_provider,
            "spam_reports_total": self.spam_reports_total,
            "emails_total": self.emails_total,
            "root_domain": self.root_domain,
        }


@dataclass
class FlowEdges:
    sankey: list[dict]                     # {source, target, weight}
    treemap: dict[str, dict[str, int]]     # ASN label → {root domain: reports}


def build_sender_profiles(store, table: AsnTable,
                          abuse: dict[str, int],
                          provider_list: list[str]
                          ) -> tuple[list[SenderProfile], FlowEdges]:
    """Aggregate per-service network behavior plus Sankey/treemap edges.

    Profiles partition the matched corpus: unmatched records stay out,
    so Σ emails_total + unmatched count = corpus total.
    """
    profiles: list[SenderProfile] = []
    sankey_weights: dict[tuple[str, str], int] = {}
    treemap: dict[str, dict[str, int]] = {}

    for service in store.services():
        records = store.service_records(service)
        profile = SenderProfile(service_name=service, emails_total=len(records))
        domain_counts = Counter(r.from_root_domain for r in records
                                if r.from_root_domain)
        if domain_counts:
            # ties broken alphabetically for determinism
            profile.root_domain = min(domain_counts,
                                      key=lambda d: (-domain_counts[d], d))
        asn_mail_counts: dict[AsnRecord, int] = {}
        for rec in records:
            ip = rec.sender_ip
            if not ip or ip == "UNKNOWN":
                continue
            if is_internal_hop(ip):
                profile.internal_hop_ips.add(ip)
                continue
            profile.ips.add(ip)
            record = table.lookup(ip)
            if record is not None:
                profile.asns.add(record)
                asn_mail_counts[record] = asn_mail_counts.get(record, 0) + 1
        profile.uses_marketing_provider = any(
            flag_marketing_asn(a, provider_list) for a in profile.asns)
        profile.spam_reports_total = sum(abuse.get(ip, 0) for ip in profile.ips)
        for asn_record, weight in asn_mail_counts.items():
            key = (service, asn_record.label)
            sankey_weights[key] = sankey_weights.get(key, 0) + weight
        for ip in sorted(profile.ips):
            count = abuse.get(ip, 0)
            if count <= 0:
                continue
            record = table.lookup(ip)
            label = record.label if record is not None else UNROUTED
            domain = profile.root_domain or profile.service_name
            treemap.setdefault(label, {})
            treemap[label][domain] = treemap[label].get(domain, 0) + count
        profiles.append(profile)

    sankey = [{"source": s, "target": t, "weight": w}
              for (s, t), w in sorted(sankey_weights.items())]
    return profiles, FlowEdges(sankey=sankey, treemap=treemap)


def asn_volume_concentration(flows: FlowEdges) -> list[tuple[str, int, float]]:
    """Per-ASN email volume with cumulative share, descending."""
    volumes: dict[str, int] = {}
    for edge in flows.sankey:
        volumes[edge["target"]] = volumes.get(edge["target"], 0) + edge["weight"]
    total = sum(volumes.values())
    if total == 0:
        return []
    out: list[tuple[str, int, float]] = []
    running = 0
    for label in sorted(volumes, key=lambda k: (-volumes[k], k)):
        running += volumes[label]
        out.append((label, volumes[label], running / total))
    return out


def ip_hopping_correlation(profiles: Iterable[SenderProfile]) -> dict:
    """Correlation of per-service unique-IP counts against abuse reports."""
    points = [(len(p.ips), p.spam_reports_total)
              for p in profiles if len(p.ips) > 0]
    if len(points) < 3:
        raise ValueError("ip hopping correlation needs >= 3 profiles with IPs")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    return {"pearson": pearson(xs, ys), "spearman": spearman(xs, ys), "n": len(points)}
