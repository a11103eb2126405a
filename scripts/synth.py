#!/usr/bin/env python3
"""Synthetic corpus generator: EML files plus matching snapshot files.

Everything an end-to-end test run needs is fabricated here with
fictional brands: alias registry, EML bytes with controlled auth
verdicts and Received chains, an ip2asn snapshot, abuse reports, the
service-to-org map, and a sector map. Deterministic for a fixed seed.
Every message is written by ``perfbench/gen.py``'s ``render_eml``, the
renderer of the benchmark's inputs too.

Two corpora are provided: `make_synthetic_corpus` builds a realistic
multi-service collection (weekly send rhythms, IP rotation, a volume
profile concentrated on two marketing ASNs), and `make_grid_corpus`
sweeps the full verdict/domain/ASN grid for taxonomy totality checks.
Run as a script, it writes both under one directory and prints a
summary:

    PYTHONPATH=src python3 scripts/synth.py /tmp/demo --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import numpy as np

from inboxaudit.corpus.aliases import expected_kind, generate_alias
from inboxaudit.formats import write_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from gen import (AUDIT_DOMAIN, BASE_DATE, SMALL_SNAPSHOT,  # noqa: E402
                 TRUSTED_MX, render_eml)

_PROMO_SUBJECTS = [
    "Flash sale: {pct}% off sitewide today only",
    "Last chance to save big this weekend",
    "Deal of the day: free shipping on every order",
    "Clearance event: up to {pct}% off bestsellers",
]
_PROMO_BODY = ("Huge savings inside. Shop now and save big before the sale "
               "ends tonight: https://{domain}/deals?utm=mail")
_CRM_SUBJECTS = [
    "Here's what's new in your community this week",
    "Your weekly digest: stories picked for you",
    "Welcome to {service}: getting started tips",
    "Did you know? New features this month",
]
_CRM_BODY = ("A roundup of highlights from the {service} community.\n"
             "Explore tips, stories, and inspiration on our blog.")
_ALERT_SUBJECTS = [
    "Your verification code is {code}",
    "Security alert: new sign-in to your account",
    "Receipt for your recent payment",
    "Your order #{order} has shipped",
]
_ALERT_BODY = ("This is an automated notification about your account. "
               "If this wasn't you, reset your password.")


def _subject_body(kind: str, service: str, domain: str, i: int) -> tuple[str, str]:
    if kind == "promotional":
        subject = _PROMO_SUBJECTS[i % len(_PROMO_SUBJECTS)].format(pct=20 + (i % 6) * 10)
        return subject, _PROMO_BODY.format(domain=domain)
    if kind == "crm":
        subject = _CRM_SUBJECTS[i % len(_CRM_SUBJECTS)].format(service=service)
        return subject, _CRM_BODY.format(service=service)
    subject = _ALERT_SUBJECTS[i % len(_ALERT_SUBJECTS)].format(
        code=100000 + i * 37 % 900000, order=4000 + i)
    return subject, _ALERT_BODY


@dataclass
class ServiceSpec:
    name: str
    index: int
    root_domain: str
    sector: str
    ips: list[str]
    weekly_pattern: list[int]          # mails per day-of-week, 0=Monday
    hours: list[int]                   # send-hour cycle
    content_cycle: list[str]           # content class cycle
    abuse_reports: list[int] = field(default_factory=list)  # aligned to ips


_WORDS = ["maple", "harbor", "cedar", "willow", "aspen", "birch", "rowan",
          "alder", "laurel", "hazel", "ivy", "fern", "moss", "clover", "sage"]

# the benchmark's snapshot plus bankly's own network, before the v6 row
_IP2ASN_ROWS = (SMALL_SNAPSHOT[:-1]
                + [("192.155.80.0/22", 64498, "BANKLY FINANCIAL")]
                + SMALL_SNAPSHOT[-1:])


def _services() -> list[ServiceSpec]:
    return [
        ServiceSpec("shopzilla", 0, "shopzilla.com", "E-tailer",
                    [f"167.89.1.{i}" for i in range(1, 9)],
                    [7, 8, 7, 6, 4, 2, 1], [23, 0, 0, 1, 0],
                    ["promotional"] * 6 + ["crm"] + ["promotional"] * 5 + ["alert"],
                    [12, 9, 15, 7, 11, 8, 14, 6]),
        ServiceSpec("dealdepot", 1, "dealdepot.com", "E-tailer",
                    [f"13.111.5.{i}" for i in range(1, 7)],
                    [6, 7, 6, 5, 3, 1, 1], [0, 1, 23, 0],
                    ["promotional"] * 7 + ["crm"],
                    [10, 8, 9, 12, 7, 6]),
        ServiceSpec("petplace", 7, "petplace.com", "Brick and Mortar",
                    ["167.89.2.1", "167.89.2.2"],
                    [0, 1, 0, 0, 0, 0, 0], [10],
                    ["promotional", "promotional", "crm"],
                    [3, 2]),
        ServiceSpec("bankly", 2, "bankly.com", "Financials",
                    ["192.155.81.10"],
                    [0, 0, 1, 0, 0, 0, 0], [9],
                    ["alert"],
                    [0]),
        ServiceSpec("streamflix", 3, "streamflix.com", "Online Entertainment",
                    ["52.89.10.1", "52.89.10.2"],
                    [0, 0, 0, 1, 0, 0, 0], [11],
                    ["crm", "crm", "alert"],
                    [2, 1]),
        ServiceSpec("chatterbox", 4, "chatterbox.com", "Communication Platforms",
                    ["35.190.3.1", "35.190.3.2"],
                    [0, 1, 0, 0, 0, 0, 0], [8],
                    ["crm"],
                    [1, 0]),
        ServiceSpec("wishmart", 5, "wishmart.com", "Online Marketplace",
                    ["199.87.241.1", "199.87.241.2", "199.87.241.3"],
                    [1, 0, 1, 0, 0, 0, 0], [9, 10],
                    ["promotional", "promotional", "promotional", "crm", "crm"],
                    [4, 3, 2]),
        ServiceSpec("linkhub", 6, "linkhub.com", "Communication Platforms",
                    ["108.174.4.1", "108.174.4.2"],
                    [0, 1, 0, 0, 0, 0, 0], [10],
                    ["crm", "crm", "alert"],
                    [2, 1]),
        ServiceSpec("fitpulse", 100, "fitpulse.com", "Digital Services",
                    ["159.135.228.1", "159.135.228.2", "159.135.228.3"],
                    [0, 1, 0, 1, 0, 0, 0], [9],
                    ["promotional", "crm"],
                    [5, 3, 2]),
        ServiceSpec("newsly", 101, "newsly.com", "Digital Services",
                    ["147.253.210.1", "147.253.210.2"],
                    [0, 0, 1, 0, 0, 0, 0], [8],
                    ["crm"],
                    [1, 1]),
        ServiceSpec("gamerden", 102, "gamerden.com", "Online Entertainment",
                    ["166.78.8.1", "166.78.8.2"],
                    [0, 0, 0, 0, 1, 0, 0], [11],
                    ["promotional", "crm"],
                    [2, 1]),
        ServiceSpec("craftyard", 8, "craftyard.com", "Omnichannel",
                    ["91.203.4.1", "91.203.4.2"],  # absent from the ASN snapshot
                    [1, 0, 0, 0, 0, 0, 0], [10],
                    ["crm", "promotional", "alert"],
                    [6, 4]),
    ]


_SILENT_SERVICES = [("dormantshop", 9), ("quietapp", 120), ("sleepysvc", 103)]


@dataclass
class SynthCorpus:
    root: Path
    eml_dir: Path
    registry_path: Path
    ip2asn_path: Path
    abuse_path: Path
    org_map_path: Path
    sector_map_path: Path
    expectations_path: Path | None
    expected: dict


def _alias(index: int) -> str:
    return generate_alias(_WORDS[index % len(_WORDS)], index, AUDIT_DOMAIN)


def _write_registry(path: Path, specs: list[ServiceSpec]) -> None:
    lines = ["local_part,index,service_name,service_kind,registration_date"]
    entries = [(s.name, s.index) for s in specs] + _SILENT_SERVICES
    for name, index in sorted(entries, key=lambda e: e[1]):
        local_part = _alias(index).partition("@")[0]
        reg = (BASE_DATE - timedelta(days=30) + timedelta(days=index)).date()
        lines.append(f"{local_part},{index},{name},{expected_kind(index)},"
                     f"{reg.isoformat()}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_snapshots(root: Path, specs: list[ServiceSpec]) -> tuple[Path, Path]:
    ip2asn = root / "ip2asn.csv"
    ip2asn.write_text(
        "\n".join(f"{cidr},{asn},{org}" for cidr, asn, org in _IP2ASN_ROWS) + "\n",
        encoding="utf-8")
    abuse = root / "abuse.csv"
    lines = []
    for spec in specs:
        for ip, count in zip(spec.ips, spec.abuse_reports):
            lines.append(f"{ip},{count}")
    lines.append("198.51.100.77,9")  # reported IP never seen in the corpus
    abuse.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ip2asn, abuse


def _write_org_map(path: Path) -> None:
    path.write_text(
        "service_name,accepted_domains,accepted_asn_org_substrings\n"
        "wishmart,wishmart.com,wishmart networks\n"
        "linkhub,linkhub.com,linkhub corp\n"
        "bankly,bankly.com,bankly financial\n",
        encoding="utf-8")


def _write_sector_map(path: Path, specs: list[ServiceSpec]) -> None:
    lines = ["root_domain,sector"]
    for spec in specs:
        lines.append(f"{spec.root_domain},{spec.sector}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_synthetic_corpus(out_dir: str | Path, seed: int = 42,
                          n_days: int = 60) -> SynthCorpus:
    """Build the full synthetic collection under ``out_dir``.

    ``n_days`` bounds the services' own mail only. The three bulk
    messages sit on days 10, 19 and 28 and the two stray ones on days 20
    and 21, whatever ``n_days`` is, so the mail always runs to at least
    2024-01-29: even ``n_days=10`` gives a 29-day series that analyzes.
    """
    root = Path(out_dir)
    eml_dir = root / "eml"
    eml_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    specs = _services()

    registry_path = root / "registry.csv"
    _write_registry(registry_path, specs)
    ip2asn_path, abuse_path = _write_snapshots(root, specs)
    org_map_path = root / "org_map.csv"
    _write_org_map(org_map_path)
    sector_map_path = root / "sector_map.csv"
    _write_sector_map(sector_map_path, specs)

    seq = 0
    per_service: dict[str, int] = {}
    label_counts = {"promotional": 0, "crm": 0, "alert": 0}

    def next_auth(global_i: int) -> tuple[str | None, str | None]:
        # weaken only DKIM so every dkim=pass message also has spf=pass
        if global_i % 101 == 100:
            return "pass", None
        if global_i % 83 == 82:
            return "none", "none"
        if global_i % 41 == 40:
            return "pass", "none"
        return "pass", "pass"

    for spec in specs:
        to_addr = _alias(spec.index)
        sent = 0
        for day in range(n_days):
            date = BASE_DATE + timedelta(days=day)
            for _ in range(spec.weekly_pattern[date.weekday()]):
                kind = spec.content_cycle[sent % len(spec.content_cycle)]
                subject, body = _subject_body(kind, spec.name, spec.root_domain, sent)
                hour = spec.hours[sent % len(spec.hours)]
                stamp = date.replace(hour=hour,
                                     minute=int(rng.integers(0, 60)),
                                     second=int(rng.integers(0, 60)))
                spf, dkim = next_auth(seq)
                ip = spec.ips[sent % len(spec.ips)]
                message_id = f"synth-{seq:06d}@{spec.root_domain}"
                raw = render_eml(
                    to_addr=to_addr,
                    from_addr=f"mail@{spec.root_domain}",
                    date=stamp, subject=subject, body=body,
                    message_id=message_id,
                    sender_ip=ip, sender_host=f"out.{spec.root_domain}",
                    spf=spf, dkim=dkim,
                )
                (eml_dir / f"{seq:06d}.eml").write_bytes(raw)
                label_counts[kind] += 1
                sent += 1
                seq += 1
        per_service[spec.name] = sent

    # unsolicited bulk to craftyard's alias from an unrelated domain:
    # two hard failures plus one SPF-passing lookalike, all → utp
    craftyard = next(s for s in specs if s.name == "craftyard")
    for i, (spf, dkim) in enumerate([("fail", "fail"), ("fail", "fail"),
                                     ("pass", "none")]):
        stamp = BASE_DATE + timedelta(days=10 + i * 9, hours=3)
        raw = render_eml(
            to_addr=_alias(craftyard.index),
            from_addr="deals@bulkblast.biz",
            date=stamp,
            subject="You won a free gift card, claim now",
            body="Claim your prize: https://bulkblast.biz/claim",
            message_id=f"bulk-{i:03d}@bulkblast.biz",
            sender_ip=f"91.203.7.{i + 1}", sender_host="mta.bulkblast.biz",
            spf=spf, dkim=dkim,
        )
        (eml_dir / f"bulk-{i:03d}.eml").write_bytes(raw)

    # mail to a local part no registry entry owns
    for i in range(2):
        raw = render_eml(
            to_addr=f"stray{482 + i}@{AUDIT_DOMAIN}",
            from_addr="hello@nowhere.example",
            date=BASE_DATE + timedelta(days=20 + i, hours=12),
            subject="Hello there",
            body="Stray message for an unregistered alias.",
            message_id=f"stray-{i:03d}@nowhere.example",
            sender_ip="91.203.9.9", sender_host="mta.nowhere.example",
            spf="pass", dkim="pass",
        )
        (eml_dir / f"stray-{i:03d}.eml").write_bytes(raw)

    # unparseable byte streams (count toward volume, carry no content)
    noise = [b"\x00\xfe\x17 not mail at all \xff\x00 binary soup",
             b"just a line of text\nand another line\nno headers here\n"]
    for i, blob in enumerate(noise):
        (eml_dir / f"noise-{i:03d}.eml").write_bytes(blob)

    # duplicate: byte-identical copy of the first shopzilla message
    first = (eml_dir / "000000.eml").read_bytes()
    (eml_dir / "zz-duplicate.eml").write_bytes(first)

    expected = {
        "files": seq + 3 + 2 + 2 + 1,  # service mail + bulk + stray + noise + dup
        "per_service": per_service,
        "bulk_to_craftyard": 3,
        "unmatched_ok": 2,
        "unparseable": 2,
        "duplicates": 1,
        "label_counts": label_counts,
        "n_days": n_days,
        "audit_domain": AUDIT_DOMAIN,
        "trusted_mx": TRUSTED_MX,
    }
    return SynthCorpus(root=root, eml_dir=eml_dir, registry_path=registry_path,
                       ip2asn_path=ip2asn_path, abuse_path=abuse_path,
                       org_map_path=org_map_path, sector_map_path=sector_map_path,
                       expectations_path=None, expected=expected)


# the grid corpus sweeps every verdict/domain/ASN combination
_GRID_VERDICTS = ["pass", "fail", "none", None]  # None → mechanism absent
_GRID_ASNS = [
    ("marketing", "167.89.9.9"),
    ("own", "104.30.1.1"),
    ("cloud", "52.89.99.99"),
    ("none", "91.203.4.4"),
]
_GRID_KINDS = ["promotional", "crm", "alert"]


def grid_cell(i: int) -> dict:
    """Decode message index → grid cell (128 cells, cycled)."""
    cell = i % 128
    spf = _GRID_VERDICTS[cell % 4]
    dkim = _GRID_VERDICTS[(cell // 4) % 4]
    matched = (cell // 16) % 2 == 0
    asn_kind, ip = _GRID_ASNS[(cell // 32) % 4]
    return {"spf": spf, "dkim": dkim, "matched": matched,
            "asn": asn_kind, "ip": ip, "content": _GRID_KINDS[i % 3]}


def make_grid_corpus(out_dir: str | Path, n_messages: int = 500) -> SynthCorpus:
    """Corpus spanning all {spf, dkim} x {domain match} x {ASN kind} cells."""
    root = Path(out_dir)
    eml_dir = root / "eml"
    eml_dir.mkdir(parents=True, exist_ok=True)

    registry_path = root / "registry.csv"
    registry_path.write_text(
        "local_part,index,service_name,service_kind,registration_date\n"
        "grid000,0,gridservice,online_service,2024-01-01\n",
        encoding="utf-8")
    ip2asn_path = root / "ip2asn.csv"
    ip2asn_path.write_text(
        "167.89.0.0/17,11377,SENDGRID\n"
        "104.30.0.0/15,64500,GRIDSERVICE BACKBONE\n"
        "52.88.0.0/13,16509,AMAZON-02\n",
        encoding="utf-8")
    abuse_path = root / "abuse.csv"
    abuse_path.write_text("167.89.9.9,5\n", encoding="utf-8")
    org_map_path = root / "org_map.csv"
    org_map_path.write_text(
        "service_name,accepted_domains,accepted_asn_org_substrings\n"
        "gridservice,gridservice.com,gridservice backbone\n",
        encoding="utf-8")
    sector_map_path = root / "sector_map.csv"
    sector_map_path.write_text(
        "root_domain,sector\ngridservice.com,Digital Services\n",
        encoding="utf-8")

    expectations = []
    for i in range(n_messages):
        cell = grid_cell(i)
        from_domain = "gridservice.com" if cell["matched"] else "elsewhere.biz"
        subject, body = _subject_body(cell["content"], "gridservice",
                                      from_domain, i)
        stamp = (BASE_DATE + timedelta(days=60 + i % 20, hours=i % 24,
                                        minutes=i % 60))
        message_id = f"grid-{i:05d}@{from_domain}"
        raw = render_eml(
            to_addr=f"grid000@{AUDIT_DOMAIN}",
            from_addr=f"mail@{from_domain}",
            date=stamp, subject=subject, body=body,
            message_id=message_id,
            sender_ip=cell["ip"], sender_host=f"out.{from_domain}",
            spf=cell["spf"], dkim=cell["dkim"],
        )
        (eml_dir / f"grid-{i:05d}.eml").write_bytes(raw)
        expectations.append({
            "message_id": message_id,
            "spf": cell["spf"] or "absent",
            "dkim": cell["dkim"] or "absent",
            "matched": cell["matched"],
            "asn": cell["asn"],
            "content": cell["content"],
        })

    expectations_path = root / "expectations.jsonl"
    write_jsonl(expectations_path, expectations)

    return SynthCorpus(root=root, eml_dir=eml_dir, registry_path=registry_path,
                       ip2asn_path=ip2asn_path, abuse_path=abuse_path,
                       org_map_path=org_map_path, sector_map_path=sector_map_path,
                       expectations_path=expectations_path,
                       expected={"n_messages": n_messages})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--days", type=int, default=60)
    args = parser.parse_args()

    main_corpus = make_synthetic_corpus(args.out / "main", seed=args.seed,
                                        n_days=args.days)
    grid = make_grid_corpus(args.out / "grid")

    print(json.dumps({
        "main": {k: str(v) if isinstance(v, Path) else v
                 for k, v in vars(main_corpus).items() if k != "expected"},
        "main_expected": main_corpus.expected,
        "grid_messages": grid.expected["n_messages"],
    }, indent=2, default=str))


if __name__ == "__main__":
    main()
