"""Input generator for the benchmark workloads (standard library only).

Every input the program reads is written here from ``--seed``: EML files,
the alias registry, the sector map and an ip2asn snapshot. The generator
also returns what it knows by construction (each message's kind, service,
sector and sender ASN, and the endpoint script), which the output checks
compare against. Randomness comes from ``random.Random`` seeded with a
string, and message ids are hashed with SHA-256, so a seed gives
byte-identical files in every process.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

AUDIT_DOMAIN = "audit.example"
TRUSTED_MX = "mx.audit.example"
BASE_DATE = datetime(2024, 1, 1, tzinfo=timezone.utc)
N_DAYS = 365
KINDS = ("promotional", "crm", "alert")

_WORDS = ["maple", "harbor", "cedar", "willow", "aspen", "birch", "rowan",
          "alder", "laurel", "hazel", "ivy", "fern", "moss", "clover", "sage"]
_SECTORS = ["Brick and Mortar", "Communication Platforms", "Digital Services",
            "E-tailer", "Financials", "Omnichannel", "Online Entertainment",
            "Online Marketplace"]
_DOW = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
_MON = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
        "Nov", "Dec"]

# the small CIDR snapshot of paper_inbox and llm_classify: (cidr, asn, org)
SMALL_SNAPSHOT = [
    ("167.89.0.0/17", 11377, "SENDGRID"),
    ("13.111.0.0/16", 14340, "SALESFORCE"),
    ("159.135.224.0/20", 396479, "MAILGUN TECHNOLOGIES"),
    ("147.253.208.0/20", 46638, "SPARKPOST"),
    ("52.88.0.0/13", 16509, "AMAZON-02"),
    ("35.190.0.0/17", 15169, "GOOGLE"),
    ("166.78.0.0/16", 27357, "RACKSPACE"),
    ("199.87.240.0/22", 64496, "WISHMART NETWORKS"),
    ("108.174.0.0/20", 64497, "LINKHUB CORP"),
    ("2a06:98c0::/29", 64499, "CLOUDY GLOBAL V6"),
]

_PROMO_SUBJECTS = [
    "Flash sale: {pct}% off sitewide today only",
    "Last chance to save big this weekend",
    "Deal of the day: free shipping on every order",
    "Clearance event: up to {pct}% off bestsellers",
    "{brand} exclusive offer: {pct}% off ends tonight",
]
_PROMO_BODIES = [
    "Huge savings inside. Shop now and save big before the sale ends "
    "tonight: https://{domain}/deals?utm=mail",
    "Use promo code SAVE{pct} at checkout. Limited time only, shop now: "
    "https://{domain}/shop",
]
_CRM_SUBJECTS = [
    "Here's what's new in your community this week",
    "Your weekly digest: stories picked for you",
    "Welcome to {brand}: getting started tips",
    "Did you know? New features this month",
]
_CRM_BODIES = [
    "A roundup of highlights from the {brand} community.\n"
    "Explore tips, stories, and inspiration on our blog.",
    "Thanks for being part of {brand}. Read the stories our community "
    "shared this week and discover new features.",
]
_ALERT_SUBJECTS = [
    "Your verification code is {code}",
    "Security alert: new sign-in to your account",
    "Receipt for your recent payment",
    "Your order #{order} has shipped",
]
_ALERT_BODIES = [
    "This is an automated notification about your account. If this wasn't "
    "you, reset your password.",
    "We noticed a new sign-in to your account. If this wasn't you, reset "
    "your password now.",
]

# sizes: paper_inbox takes its messages from the appendix table
PAPER_NOISE_FILES = 5        # unparseable byte streams next to the mail
ASN_SERVICES = 60
ASN_MESSAGES = 300           # 1/16 of paper_inbox, so ingest does little
ASN_V4_ROWS = 24000
ASN_V6_ROWS = 12000
ASN_DISTINCT_ASNS = 3000
ASN_ROWS_PER_SERVICE = 12    # each service's sender pool of snapshot rows
LLM_MESSAGES = 800

# endpoint reply classes of llm_classify and their shares of messages. The
# shares are an assumption, not measured traffic: no public figure for an
# LLM classifier's failure rates backs them. They are chosen so that every
# adapter path (re-prompt, transport retry, rules fallback) runs on tens of
# messages per round. Each class gets exactly its share of the messages,
# which gives 1.35 requests per message (1,080 per round); with every reply
# valid it would be 1.0.
REPLY_MIX = [("valid", 0.55), ("prose", 0.15), ("malformed", 0.10),
             ("transient", 0.10), ("dead_http", 0.05), ("dead_protocol", 0.05)]
# the endpoint's sleep puts a floor of requests * latency / pool under
# wall_s (README.md: how wall_s depends on the endpoint)
ENDPOINT_LATENCY_S = 0.004


@dataclass
class Message:
    message_id: str
    service: str
    sector: str
    kind: str
    subject: str
    body: str
    sender_ip: str
    asn_label: str | None = None   # "AS<n> <org>" of the row the IP came from
    script: str | None = None      # llm_classify endpoint script token


@dataclass
class Inputs:
    root: Path    # eml/, registry.csv, sector_map.csv, abuse.csv, ip2asn.*
    messages: list[Message]
    n_files: int
    n_unparseable: int
    ip2asn_rows: dict[str, int] = field(default_factory=dict)
    # script token → (reply class, kind, confidence), llm_classify only
    script: dict[str, tuple[str, str, int]] = field(default_factory=dict)

    @property
    def repeat_share(self) -> float:
        """Share of messages whose (subject, body) repeats an earlier one."""
        seen: set[tuple[str, str]] = set()
        repeats = 0
        for msg in self.messages:
            key = (msg.subject, msg.body)
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.messages)


def _rfc2822(dt: datetime) -> str:
    return (f"{_DOW[dt.weekday()]}, {dt.day:02d} {_MON[dt.month - 1]} "
            f"{dt.year} {dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} +0000")


def render_eml(*, to_addr: str, from_addr: str, date: datetime, subject: str,
               body: str, message_id: str, sender_ip: str, sender_host: str,
               spf: str | None, dkim: str | None) -> bytes:
    """One EML in the shape of a receiving MTA's stored copy."""
    stamp = _rfc2822(date)
    hop_id = int(hashlib.sha256(message_id.encode()).hexdigest(), 16) % 10**9
    ip_literal = f"IPv6:{sender_ip}" if ":" in sender_ip else sender_ip
    lines = [
        f"Delivered-To: {to_addr}",
        f"Return-Path: <{from_addr}>",
        f"Received: from {sender_host} ({sender_host} [{ip_literal}]) by "
        f"{TRUSTED_MX}",
        f" (Postfix) with ESMTPS id {hop_id:09d}; {stamp}",
    ]
    mechanisms = []
    if spf is not None:
        mechanisms.append(f"spf={spf} smtp.mailfrom={from_addr}")
    if dkim is not None:
        mechanisms.append(f"dkim={dkim} header.d={from_addr.rsplit('@', 1)[1]}")
    if mechanisms:
        lines.append(f"Authentication-Results: {TRUSTED_MX};")
        lines.extend(f" {m}{';' if i < len(mechanisms) - 1 else ''}"
                     for i, m in enumerate(mechanisms))
    lines += [
        f"From: {from_addr}",
        f"To: {to_addr}",
        f"Subject: {subject}",
        f"Date: {stamp}",
        f"Message-ID: <{message_id}>",
        'Content-Type: text/plain; charset="utf-8"',
        "Content-Transfer-Encoding: 7bit",
        "MIME-Version: 1.0",
        "",
        body,
        "",
    ]
    return "\n".join(lines).encode("ascii")


def _text(kind: str, rng: random.Random, brand: str, domain: str
          ) -> tuple[str, str]:
    pct = rng.choice((10, 20, 25, 30, 40, 50))
    if kind == "promotional":
        subjects, bodies = _PROMO_SUBJECTS, _PROMO_BODIES
    elif kind == "crm":
        subjects, bodies = _CRM_SUBJECTS, _CRM_BODIES
    else:
        subjects, bodies = _ALERT_SUBJECTS, _ALERT_BODIES
    fields = {"pct": pct, "brand": brand, "domain": domain,
              "code": rng.randrange(100000, 1000000),
              "order": rng.randrange(10000, 100000)}
    return (rng.choice(subjects).format(**fields),
            rng.choice(bodies).format(**fields))


def _auth(rng: random.Random) -> tuple[str | None, str | None]:
    roll = rng.random()
    if roll < 0.02:
        return "none", "none"
    if roll < 0.05:
        return "pass", "none"
    if roll < 0.06:
        return "pass", None
    return "pass", "pass"


def _timestamp(rng: random.Random, hours: list[int]) -> datetime:
    day = rng.randrange(N_DAYS)
    return BASE_DATE + timedelta(days=day, hours=rng.choice(hours),
                                 minutes=rng.randrange(60),
                                 seconds=rng.randrange(60))


def _alias_local(index: int) -> str:
    return f"{_WORDS[index % len(_WORDS)]}{index:03d}"


@dataclass
class _Service:
    index: int
    name: str
    root_domain: str
    sector: str
    counts: dict[str, int]


def paper_services(table_csv: Path) -> list[_Service]:
    """One service per row of the appendix table, with its content counts."""
    with table_csv.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    services = []
    for index, row in enumerate(rows):
        domain = row["root_domain"].strip()
        services.append(_Service(
            index=index, name=domain.split(".")[0], root_domain=domain,
            sector=row["sector"].strip(),
            counts={kind: int(row[kind]) for kind in KINDS}))
    if len({s.name for s in services}) != len(services):
        raise ValueError(f"{table_csv}: service names are not unique")
    return services


def _write_common(root: Path, services: list[_Service]) -> None:
    registry = root / "registry.csv"
    lines = ["local_part,index,service_name,service_kind,registration_date"]
    for svc in services:
        kind = "online_service" if svc.index < 100 else "mobile_app"
        lines.append(f"{_alias_local(svc.index)},{svc.index},{svc.name},{kind},"
                     f"2023-12-01")
    registry.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sector_map = root / "sector_map.csv"
    sector_map.write_text(
        "root_domain,sector\n"
        + "".join(f"{s.root_domain},{s.sector}\n" for s in services),
        encoding="utf-8")


def _write_small_snapshot(root: Path, rng: random.Random,
                          services: list[_Service]) -> dict[str, list[str]]:
    """CIDR snapshot plus 1-4 sender IPs per service inside one of its rows."""
    ip2asn = root / "ip2asn.csv"
    ip2asn.write_text("".join(f"{c},{a},{o}\n" for c, a, o in SMALL_SNAPSHOT),
                      encoding="utf-8")
    pools: dict[str, list[str]] = {}
    abuse_lines = []
    for svc in services:
        cidr = ipaddress.ip_network(SMALL_SNAPSHOT[svc.index % len(SMALL_SNAPSHOT)][0])
        base = int(cidr.network_address)
        offsets = rng.sample(range(1, min(cidr.num_addresses - 1, 4096)),
                             rng.randint(1, 4))
        pools[svc.name] = [str(ipaddress.ip_address(base + o)) for o in offsets]
        abuse_lines += [f"{ip},{rng.randrange(0, 20)}" for ip in pools[svc.name]]
    (root / "abuse.csv").write_text("\n".join(abuse_lines) + "\n",
                                    encoding="utf-8")
    return pools


def _noise(eml_dir: Path, n: int) -> None:
    for i in range(n):
        (eml_dir / f"noise-{i:03d}.eml").write_bytes(
            b"\x00\xfe\x17 not mail at all \xff\x00 " + str(i).encode())


def _emit(eml_dir: Path, seq: int, svc: _Service, msg: Message, stamp: datetime,
          spf: str | None, dkim: str | None) -> None:
    raw = render_eml(
        to_addr=f"{_alias_local(svc.index)}@{AUDIT_DOMAIN}",
        from_addr=f"mail@{svc.root_domain}", date=stamp, subject=msg.subject,
        body=msg.body, message_id=msg.message_id, sender_ip=msg.sender_ip,
        sender_host=f"out.{svc.root_domain}", spf=spf, dkim=dkim)
    (eml_dir / f"{seq:06d}.eml").write_bytes(raw)


def _hours(rng: random.Random) -> list[int]:
    start = rng.randrange(24)
    return [(start + rng.choice((0, 0, 1, 2, 23))) % 24 for _ in range(4)]


def make_paper_inbox(root: Path, seed: int, table_csv: Path) -> Inputs:
    """The paper's corpus shape: every table row's content counts as EML."""
    rng = random.Random(f"paper_inbox:{seed}")
    eml_dir = root / "eml"
    eml_dir.mkdir(parents=True)
    services = paper_services(table_csv)
    _write_common(root, services)
    pools = _write_small_snapshot(root, rng, services)

    plan = [(svc, kind) for svc in services for kind in KINDS
            for _ in range(svc.counts[kind])]
    rng.shuffle(plan)
    hours = {svc.name: _hours(rng) for svc in services}
    messages = []
    for seq, (svc, kind) in enumerate(plan):
        subject, body = _text(kind, rng, svc.name.capitalize(), svc.root_domain)
        msg = Message(
            message_id=f"pb-{seq:06d}@{svc.root_domain}", service=svc.name,
            sector=svc.sector, kind=kind, subject=subject, body=body,
            sender_ip=rng.choice(pools[svc.name]))
        spf, dkim = _auth(rng)
        _emit(eml_dir, seq, svc, msg, _timestamp(rng, hours[svc.name]), spf, dkim)
        messages.append(msg)
    _noise(eml_dir, PAPER_NOISE_FILES)
    return Inputs(root=root, messages=messages,
                  n_files=len(messages) + PAPER_NOISE_FILES,
                  n_unparseable=PAPER_NOISE_FILES,
                  ip2asn_rows={"cidr": len(SMALL_SNAPSHOT)})


def make_llm_classify(root: Path, seed: int, table_csv: Path) -> Inputs:
    """A sample of the paper's corpus, each message bound to a reply script.

    The body ends in a ``Ref:`` token that names the endpoint's script
    entry. Stateless replies (valid, prose, malformed, dead) share one
    token per (service, text, reply class), so those texts can repeat; a
    transient error is stateful per prompt, so each such message gets a
    token of its own and its outcome cannot depend on request order.
    """
    rng = random.Random(f"llm_classify:{seed}")
    eml_dir = root / "eml"
    eml_dir.mkdir(parents=True)
    services = paper_services(table_csv)
    _write_common(root, services)
    pools = _write_small_snapshot(root, rng, services)

    weighted = [(svc, kind) for svc in services for kind in KINDS
                for _ in range(svc.counts[kind])]
    plan = rng.sample(weighted, LLM_MESSAGES)
    # exact quotas, so every seed sends the same number of requests
    replies = [c for c, share in REPLY_MIX
               for _ in range(round(share * LLM_MESSAGES))]
    assert len(replies) == LLM_MESSAGES
    rng.shuffle(replies)
    script: dict[str, tuple[str, str, int]] = {}
    shared_tokens: dict[tuple[str, str, str, str], str] = {}
    messages = []
    for seq, ((svc, kind), reply) in enumerate(zip(plan, replies)):
        subject, body = _text(kind, rng, svc.name.capitalize(), svc.root_domain)
        if reply == "transient":
            token = f"t{seq:05d}"
        else:
            key = (svc.name, subject, body, reply)
            token = shared_tokens.setdefault(key, f"s{len(shared_tokens):05d}")
        script.setdefault(token, (reply, kind, rng.randint(1, 5)))
        msg = Message(
            message_id=f"lc-{seq:06d}@{svc.root_domain}", service=svc.name,
            sector=svc.sector, kind=kind, subject=subject,
            body=f"{body}\nRef: {token}",
            sender_ip=rng.choice(pools[svc.name]), script=token)
        spf, dkim = _auth(rng)
        _emit(eml_dir, seq, svc, msg, _timestamp(rng, [9, 12, 18]), spf, dkim)
        messages.append(msg)
    return Inputs(root=root, messages=messages,
                  n_files=len(messages), n_unparseable=0, script=script,
                  ip2asn_rows={"cidr": len(SMALL_SNAPSHOT)})


# first octets whose whole /8 is globally routable unicast
_V4_OCTETS = [o for o in range(1, 224)
              if o not in (10, 100, 127, 169, 172, 192, 198, 203)]
_V6_BASE = 0x2400 << 112                     # 2400::/12 and up, global unicast
_ORG_NAMES = ["SENDGRID", "SALESFORCE", "MAILGUN TECHNOLOGIES", "SPARKPOST",
              "AMAZON-02", "GOOGLE", "MICROSOFT-CORP", "RACKSPACE", "KLAVIYO",
              "BRAZE", "HUBSPOT", "MAILCHIMP"]


def _asn_org(asn: int) -> str:
    if asn % 50 < len(_ORG_NAMES):
        return f"{_ORG_NAMES[asn % 50]} {asn}"
    return f"NET-{asn} HOSTING"


def _v4_ranges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Disjoint ranges on /24 boundaries, at unaligned /24 offsets."""
    out = []
    octet_i, cursor = 0, 0                     # cursor in /24s inside the /8
    while len(out) < n:
        cursor += rng.randrange(0, 48)
        length = rng.randrange(1, 40)
        if cursor + length > 1 << 16:
            octet_i, cursor = octet_i + 1, 0
            continue
        start = (_V4_OCTETS[octet_i] << 24) + (cursor << 8)
        out.append((start, start + (length << 8) - 1))
        cursor += length
    return out


def _v6_ranges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Disjoint ranges on /48 boundaries, at unaligned /48 offsets."""
    out = []
    cursor = 0                                 # in /48s above _V6_BASE
    for _ in range(n):
        cursor += rng.randrange(0, 1 << 12)
        length = rng.randrange(1, 1 << 10)
        start = _V6_BASE + (cursor << 80)
        out.append((start, start + (length << 80) - 1))
        cursor += length
    return out


def make_asn_ranges(root: Path, seed: int) -> Inputs:
    """A small corpus whose senders spread over a large range snapshot."""
    rng = random.Random(f"asn_ranges:{seed}")
    eml_dir = root / "eml"
    eml_dir.mkdir(parents=True)
    services = [_Service(index=i, name=f"{_WORDS[i % len(_WORDS)]}{i}",
                         root_domain=f"{_WORDS[i % len(_WORDS)]}{i}.com",
                         sector=_SECTORS[i % len(_SECTORS)], counts={})
                for i in range(ASN_SERVICES)]
    _write_common(root, services)

    rows = ([(s, e, 4) for s, e in _v4_ranges(rng, ASN_V4_ROWS)]
            + [(s, e, 6) for s, e in _v6_ranges(rng, ASN_V6_ROWS)])
    asns = [rng.randrange(1000, 400000) for _ in range(ASN_DISTINCT_ASNS)]
    row_asn = [rng.choice(asns) for _ in rows]
    ip2asn = root / "ip2asn.tsv"
    with ip2asn.open("w", encoding="utf-8") as fh:
        for (start, end, family), asn in zip(rows, row_asn):
            make = ipaddress.IPv4Address if family == 4 else ipaddress.IPv6Address
            fh.write(f"{make(start)}\t{make(end)}\t{asn}\t{_asn_org(asn)}\n")

    # each service sends from its own pool of snapshot rows
    pools = [rng.sample(range(len(rows)), ASN_ROWS_PER_SERVICE)
             for _ in services]
    messages = []
    for seq in range(ASN_MESSAGES):
        svc = services[rng.randrange(ASN_SERVICES)]
        row = rng.choice(pools[svc.index])
        start, end, family = rows[row]
        make = ipaddress.IPv4Address if family == 4 else ipaddress.IPv6Address
        ip = make(rng.randint(start, end))
        kind = KINDS[seq % 3]
        subject, body = _text(kind, rng, svc.name.capitalize(), svc.root_domain)
        asn = row_asn[row]
        msg = Message(message_id=f"ar-{seq:06d}@{svc.root_domain}",
                      service=svc.name, sector=svc.sector, kind=kind, subject=subject, body=body,
                      sender_ip=str(ip), asn_label=f"AS{asn} {_asn_org(asn)}")
        _emit(eml_dir, seq, svc, msg, _timestamp(rng, [8, 13, 20]),
              *_auth(rng))
        messages.append(msg)
    (root / "abuse.csv").write_text(
        "".join(f"{m.sender_ip},{i % 7}\n" for i, m in enumerate(messages[::5])),
        encoding="utf-8")
    return Inputs(root=root, messages=messages, n_files=ASN_MESSAGES,
                  n_unparseable=0,
                  ip2asn_rows={"v4": ASN_V4_ROWS, "v6": ASN_V6_ROWS})
