"""Network intelligence: offline IP-to-ASN mapping and abuse enrichment.

All data comes from point-in-time snapshot files (never live WHOIS/BGP),
so runs are reproducible. Each snapshot row, CIDR or range, is one
[first, last] address interval. Where rows overlap, the smallest
containing row wins and, between rows of one size, the later row; for
CIDR rows that is longest-prefix match. A snapshot is read one line at a
time (lines as ``str.splitlines`` ends them), and each row is appended
to its family's columns of first addresses, last addresses and records,
so no list of lines or of row tuples is kept. Published ip2asn range
files are disjoint and sorted, so the rule only decides for hand-made
snapshots: a family whose rows arrive sorted and disjoint is used as
read, and only another goes through ``_flatten``. Bytes that are not
UTF-8 are reported, with their file offset, when the reader decodes
them, 8 KiB at a time, so a bad row before them is named first. Range
ends and looked-up IPs are parsed to integers with ``socket.inet_pton``
(``ipaddress`` only for what it rejects, such as scoped IPv6 addresses,
and for the error text); the rows with the same ASN and organization
cells share one ``AsnRecord``, so each distinct cell is parsed once.
Private and reserved source IPs are excluded from profiles and flow
outputs as internal hops.
"""

from __future__ import annotations

import csv
import heapq
import ipaddress
import socket
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .authlineage import ProvenanceLabel, org_matches
from .corpus.eml import UNMATCHED, EmailRecord
from .formats import ascii_decimal
from .stats.core import pearson, spearman

UNROUTED = "unrouted"


class SnapshotParseError(ValueError):
    pass


# an address column of each family: IPv4 addresses fit a C unsigned int
_COLUMN = {4: partial(array, "I"), 6: list}


@dataclass(frozen=True)
class AsnRecord:
    asn: int
    organization: str

    @property
    def label(self) -> str:
        return f"AS{self.asn} {self.organization}"


def _address(text: str) -> tuple[int, int]:
    """(IP version, integer value) of an address, as ``ipaddress.ip_address``
    reads it; ValueError with its message when it is not one."""
    try:
        packed = socket.inet_pton(
            socket.AF_INET6 if ":" in text else socket.AF_INET, text)
    except (OSError, ValueError):     # ValueError: an embedded NUL
        address = ipaddress.ip_address(text)
        return address.version, int(address)
    return (4 if len(packed) == 4 else 6), int.from_bytes(packed, "big")


def _sweep(rows: list[tuple[int, int, AsnRecord]]
           ) -> list[tuple[int, int, AsnRecord]]:
    """Sorted, disjoint (first, last, record) intervals covering ``rows``:
    a sweep over the row boundaries. Rows enter a heap keyed (size, -row
    index) at their first address, so its top is the winner at each point."""
    points = sorted({p for first, last, _ in rows for p in (first, last + 1)})
    pending = sorted(((first, last - first, -i, last, record)
                      for i, (first, last, record) in enumerate(rows)),
                     reverse=True)
    open_rows, flat = [], []
    for lo, hi in zip(points, points[1:]):
        while pending and pending[-1][0] <= lo:
            heapq.heappush(open_rows, pending.pop()[1:])
        while open_rows and open_rows[0][2] < lo:
            heapq.heappop(open_rows)
        if open_rows:
            flat.append((lo, hi - 1, open_rows[0][3]))
    return flat


def _flatten(rows: list[tuple[int, int, AsnRecord]]
             ) -> list[tuple[int, int, AsnRecord]]:
    """The intervals ``_sweep(rows)`` gives. Rows that are already disjoint
    are their own flattening, so they are only sorted."""
    ordered = sorted(rows, key=itemgetter(0))
    if all(prev[1] < row[0] for prev, row in zip(ordered, ordered[1:])):
        return ordered
    return _sweep(rows)


class AsnTable:
    """ASN lookup over (IP version, first, last, record) integer rows, kept
    per family as three columns: first addresses, last addresses and
    records. Rows that arrive sorted and disjoint are the table as they
    come; a family with a row that starts before the previous one ends is
    flattened into sorted, disjoint intervals (the module docstring says
    which row wins an overlap). A lookup is one bisect of the first
    addresses."""

    def __init__(self, rows: Iterable[tuple[int, int, int, AsnRecord]] = ()):
        columns = {family: (_COLUMN[family](), _COLUMN[family](), [])
                   for family in (4, 6)}
        disjoint = {4: True, 6: True}
        for version, first, last, record in rows:
            starts, lasts, records = columns[version]
            if lasts and first <= lasts[-1]:
                disjoint[version] = False
            starts.append(first)
            lasts.append(last)
            records.append(record)
        self._rows = len(columns[4][2]) + len(columns[6][2])
        for family, (starts, lasts, records) in columns.items():
            if not disjoint[family]:
                starts, lasts, records = zip(*_flatten(
                    list(zip(starts, lasts, records))))
                columns[family] = (_COLUMN[family](starts),
                                   _COLUMN[family](lasts), list(records))
        self._columns = columns

    def __len__(self) -> int:
        return self._rows

    def intervals(self, version: int) -> list[tuple[int, int, AsnRecord]]:
        """The sorted, disjoint (first, last, record) intervals of a family."""
        return list(zip(*self._columns[version]))

    def lookup(self, ip: str) -> AsnRecord | None:
        try:
            version, value = _address(ip)
        except ValueError:
            return None
        starts, lasts, records = self._columns[version]
        i = bisect_right(starts, value) - 1
        if i >= 0 and value <= lasts[i]:
            return records[i]
        return None


def _lines(path: str | Path) -> Iterator[str]:
    """The lines ``str.splitlines`` gives of a UTF-8 file's text, read one
    physical line at a time: with ``newline=""`` a physical line ends only
    at ``\\n``, ``\\r`` or ``\\r\\n``, never inside a ``\\r\\n``, and
    ``splitlines`` breaks it at the other separators. Bytes that are not
    UTF-8 are named by their offset in the file: the decoder's own
    position counts from the start of the chunk it was given, which ends
    where the binary buffer now is."""
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            for physical in handle:
                yield from physical.splitlines()
        except UnicodeDecodeError as exc:
            offset = handle.buffer.tell() - len(exc.object) + exc.start
            raise SnapshotParseError(
                f"{path}: not UTF-8: {exc.reason} at byte {offset}") from exc


def _snapshot_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each TSV or CSV row but blank and '#' lines.
    Only a line with a quote needs ``csv.reader``; any other is split."""
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            delim = "\t" if "\t" in line else ","
            try:
                cells = (next(csv.reader([line], delimiter=delim)) if '"' in line
                         else line.split(delim))
            except csv.Error as exc:
                raise SnapshotParseError(f"{path}: row {lineno}: {exc}") from exc
            yield lineno, [cell.strip() for cell in cells]


_MAX_ASN = 2**32 - 1  # ASNs are unsigned 32-bit numbers (RFC 6793)


def _parse_asn(cell: str) -> int:
    if cell[:2].isascii() and cell[:2].upper() == "AS":
        cell = cell[2:]
    asn = ascii_decimal(cell, "asn")
    if asn > _MAX_ASN:
        raise ValueError(f"asn {asn} outside 0-{_MAX_ASN}")
    return asn


def load_ip2asn(path: str | Path) -> AsnTable:
    """Load an ASN snapshot: rows of CIDR or (range_start, range_end) + asn + org."""
    return AsnTable(_ip2asn_rows(Path(path)))


def _ip2asn_rows(path: Path) -> Iterator[tuple[int, int, int, AsnRecord]]:
    records: dict[tuple[str, str], AsnRecord] = {}  # by raw (asn, org) cells
    for lineno, cells in _snapshot_rows(path):
        try:
            if "/" in cells[0]:
                if len(cells) < 3:
                    raise ValueError("expected cidr, asn, organization")
                network = ipaddress.ip_network(cells[0], strict=False)
                version = network.version
                first = int(network.network_address)
                last = int(network.broadcast_address)
                asn, org = cells[1], cells[2:]
            else:
                if len(cells) < 4:
                    raise ValueError("expected range_start, range_end, asn, org")
                version, first = _address(cells[0])
                last_version, last = _address(cells[1])
                if version != last_version:
                    raise ValueError("range start and end differ in family")
                if first > last:
                    raise ValueError("range start is after range end")
                asn, org = cells[2], cells[3:]
            key = (asn, ",".join(org))
            record = records.get(key)
            if record is None:
                record = records[key] = AsnRecord(_parse_asn(asn), key[1])
        except ValueError as exc:
            raise SnapshotParseError(f"{path}: row {lineno}: {exc}") from exc
        yield version, first, last, record


def is_internal_hop(ip: str) -> bool:
    """Private/reserved (non-global) source addresses never identify a sender."""
    try:
        return not ipaddress.ip_address(ip).is_global
    except ValueError:
        return True


def flag_marketing_asn(record: AsnRecord | None, provider_list: list[str]) -> bool:
    """`org_matches` of the ASN organization against the lowercased,
    non-empty entries `load_provider_list` gives."""
    return record is not None and org_matches(record.organization, provider_list)


def load_provider_list(path: str | Path) -> list[str]:
    """One organization substring per line, lowercased; '#' comments allowed."""
    entries: list[str] = []
    for raw in _lines(path):
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line.lower())
    return entries


def load_abuse_reports(path: str | Path) -> dict[str, int]:
    """Abuse snapshot: rows of (ip, total_reports); duplicate IPs are summed."""
    reports: dict[str, int] = {}
    path = Path(path)
    for lineno, cells in _snapshot_rows(path):
        try:
            if len(cells) < 2:
                raise ValueError("expected ip, total_reports")
            ip = str(ipaddress.ip_address(cells[0]))
            count = ascii_decimal(cells[1], "report count")
        except ValueError as exc:
            raise SnapshotParseError(f"{path}: row {lineno}: {exc}") from exc
        reports[ip] = reports.get(ip, 0) + count
    return reports


@dataclass
class SenderProfile:
    service_name: str
    ips: set[str] = field(default_factory=set)
    uses_marketing_provider: bool = False
    spam_reports_total: int = 0
    emails_total: int = 0
    root_domain: str = ""          # most common from-domain, for flow labels
    content_counts: Counter[str] = field(default_factory=Counter)  # by label


class MessageRow(NamedTuple):
    """The facts about one parsed message that the analyze aggregates count."""
    record: EmailRecord
    local: datetime             # received_utc in the audit timezone
    ip: str | None              # the sender IP when globally routable
    asn: AsnRecord | None
    marketing: bool             # the ASN is a listed marketing provider
    provenance: ProvenanceLabel
    content: str                # the content label


def rows_by_service(rows: Iterable[MessageRow]) -> dict[str, list[MessageRow]]:
    """Rows grouped by service, name-sorted; unmatched mail is left out."""
    groups: dict[str, list[MessageRow]] = {}
    for row in rows:
        if row.record.service_name != UNMATCHED:
            groups.setdefault(row.record.service_name, []).append(row)
    return {service: groups[service] for service in sorted(groups)}


@dataclass
class FlowEdges:
    sankey: list[dict]                     # {source, target, weight}
    treemap: dict[str, dict[str, int]]     # ASN label → {root domain: reports}


def build_sender_profiles(by_service: dict[str, list[MessageRow]],
                          abuse: dict[str, int]
                          ) -> tuple[list[SenderProfile], FlowEdges]:
    """Per-service network behavior and content counts, in the grouping's
    order, plus Sankey/treemap edges.

    Profiles partition the matched corpus: unmatched records stay out,
    so Σ emails_total + unmatched count = corpus total.
    """
    profiles: list[SenderProfile] = []
    sankey_weights: Counter[tuple[str, str]] = Counter()
    treemap: dict[str, dict[str, int]] = {}
    for service, service_rows in by_service.items():
        profile = SenderProfile(
            service_name=service, emails_total=len(service_rows),
            content_counts=Counter(r.content for r in service_rows))
        domain_counts = Counter(r.record.from_root_domain for r in service_rows
                                if r.record.from_root_domain)
        if domain_counts:
            # ties broken alphabetically for determinism
            profile.root_domain = min(domain_counts,
                                      key=lambda d: (-domain_counts[d], d))
        asn_of_ip = {r.ip: r.asn for r in service_rows if r.ip is not None}
        sankey_weights.update((service, r.asn.label) for r in service_rows
                              if r.asn is not None)
        profile.ips = set(asn_of_ip)
        profile.uses_marketing_provider = any(r.marketing for r in service_rows)
        profile.spam_reports_total = sum(abuse.get(ip, 0) for ip in profile.ips)
        domain = profile.root_domain or profile.service_name
        for ip in sorted(profile.ips):
            if abuse.get(ip, 0) > 0:
                record = asn_of_ip[ip]
                cell = treemap.setdefault(record.label if record else UNROUTED, {})
                cell[domain] = cell.get(domain, 0) + abuse[ip]
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
