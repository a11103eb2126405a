"""Authentication lineage: SPF/DKIM verdicts, sender IPs, provenance labels.

Verdicts are read from stored Authentication-Results headers written by
the trusted receiving host; no live DNS. Provenance ties each message to
its alias's service: internal (service's own network), atp (authorized
third party sending on its behalf), or utp (sender the auth context
cannot tie to the service). The spam layer marks authenticated-but-
unsolicited mail (sos) apart from unauthenticated senders (uuss).
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .formats import read_table

# verdict enums
PASS, FAIL, NONE, ABSENT = "pass", "fail", "none", "absent"
VERDICTS = (PASS, FAIL, NONE, ABSENT)
# provenance enums
INTERNAL, ATP, UTP = "internal", "atp", "utp"
# spam enums
SOS, UUSS, NOT_SPAM = "sos", "uuss", "not_spam"

UNKNOWN_IP = "UNKNOWN"

_MECH_RE = re.compile(r"\b(spf|dkim)\s*=\s*([a-z0-9]+)", re.IGNORECASE)
_DKIM_DOMAIN_RE = re.compile(r"\bheader\.d\s*=\s*([^\s;]+)", re.IGNORECASE)
_SPF_FROM_RE = re.compile(r"\bsmtp\.mailfrom\s*=\s*([^\s;]+)", re.IGNORECASE)
_BRACKET_IP_RE = re.compile(r"\[(?:ipv6:)?([0-9A-Fa-f:.]+)\]", re.IGNORECASE)
_BY_RE = re.compile(r"\bby\b", re.IGNORECASE)

# spf/dkim result token → verdict enum; unknown tokens mean "no usable verdict"
_RESULT_MAP = {
    "pass": PASS,
    "fail": FAIL,
    "softfail": FAIL,
    "hardfail": FAIL,
    "permerror": FAIL,
    "none": NONE,
    "neutral": NONE,
    "policy": NONE,
    "temperror": NONE,
}


@dataclass(frozen=True)
class AuthVerdict:
    spf: str = ABSENT
    dkim: str = ABSENT
    authenticated_domain: str | None = None

    @property
    def passes(self) -> bool:
        return self.spf == PASS or self.dkim == PASS

    @property
    def double_fail(self) -> bool:
        return self.spf == FAIL and self.dkim == FAIL


@dataclass(frozen=True)
class ProvenanceLabel:
    provenance: str
    spam: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.provenance not in (INTERNAL, ATP, UTP):
            raise ValueError(f"bad provenance: {self.provenance!r}")
        if self.spam not in (SOS, UUSS, NOT_SPAM):
            raise ValueError(f"bad spam label: {self.spam!r}")


def _authserv_id(value: str) -> str:
    head = value.split(";", 1)[0].strip()
    # the authserv-id may carry a version suffix ("mx.audit 1")
    return head.split()[0].lower() if head else ""


def parse_auth_results(values: Sequence[str], trusted_mx: str) -> AuthVerdict:
    """Verdicts from the first Authentication-Results header of the trusted host.

    ``values`` are the message's Authentication-Results values, topmost
    first, as `parse_eml` collects them in its one pass over the headers.
    A header whose authserv-id is another host's can be forged by the
    sender, so without one from ``trusted_mx`` every verdict is `absent`.
    Mechanism tokens are matched case-insensitively; a mechanism that
    never appears is `absent`. Soft and permanent failures collapse to
    `fail`; neutral-ish results collapse to `none`.
    """
    trusted = trusted_mx.lower()
    chosen = next((v for v in values if _authserv_id(v) == trusted), None)
    if chosen is None:
        return AuthVerdict()

    spf = dkim = ABSENT
    for mech, token in _MECH_RE.findall(chosen):
        verdict = _RESULT_MAP.get(token.lower())
        if verdict is None:
            continue
        if mech.lower() == "spf" and spf == ABSENT:
            spf = verdict
        elif mech.lower() == "dkim" and dkim == ABSENT:
            dkim = verdict

    auth_domain: str | None = None
    m = _DKIM_DOMAIN_RE.search(chosen)
    if m:
        auth_domain = m.group(1).strip().strip('"').lower()
    else:
        m = _SPF_FROM_RE.search(chosen)
        if m:
            raw = m.group(1).strip().strip('"').lower()
            auth_domain = raw.rsplit("@", 1)[-1] if raw else None
    return AuthVerdict(spf=spf, dkim=dkim, authenticated_domain=auth_domain)


# a few ESP addresses send most of a service's mail, so the literals repeat
_IP_CACHE_SIZE = 1024
# the longest text the cache keeps; an IP address's text has at most 45
# characters before a scope id
_MAX_CACHED_LITERAL = 64


@lru_cache(maxsize=_IP_CACHE_SIZE)
def _canonical_ip(text: str) -> str | None:
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return None


def canonical_ip(text: str) -> str | None:
    """``str(ipaddress.ip_address(text))``; None when ``text`` is not an
    IP address. Cached, except for text too long to keep."""
    if len(text) <= _MAX_CACHED_LITERAL:
        return _canonical_ip(text)
    return _canonical_ip.__wrapped__(text)


def _first_ip_in(text: str) -> str | None:
    for m in _BRACKET_IP_RE.finditer(text):
        ip = canonical_ip(m.group(1))
        if ip is not None:
            return ip
    return None


@lru_cache(maxsize=8)
def _by_host_re(trusted_mx: str) -> re.Pattern:
    return re.compile(r"\bby\s+" + re.escape(trusted_mx), re.IGNORECASE)


def extract_sender_ip(received: Sequence[str], trusted_mx: str) -> str:
    """Connecting IP from the topmost Received header written by the trusted host.

    ``received`` are the message's Received values, topmost first. Only
    the from-clause (text before ` by `) is searched so the receiver's
    own address is never mistaken for the sender. Returns UNKNOWN when no
    trusted hop carries a parsable bracketed literal.
    """
    by_token = _by_host_re(trusted_mx)
    for value in received:
        flat = " ".join(value.split())
        if not by_token.search(flat):
            continue
        split = _BY_RE.split(flat, maxsplit=1)
        from_clause = split[0] if len(split) > 1 else flat
        ip = _first_ip_in(from_clause)
        if ip is not None:
            return ip
    return UNKNOWN_IP


def normalize_service_token(service_name: str) -> str:
    return "".join(ch for ch in service_name.lower() if ch.isalnum())


_ORG_MAP_COLUMNS = ("service_name", "accepted_domains",
                    "accepted_asn_org_substrings")


class ServiceOrgMap:
    """service → accepted from-domains and accepted ASN organization substrings.

    The corpus resolves "the service's own organization" through this
    editable mapping rather than by hand.
    """

    def __init__(self,
                 domains: dict[str, set[str]] | None = None,
                 org_substrings: dict[str, list[str]] | None = None):
        self._domains = {k.lower(): {d.lower() for d in v}
                         for k, v in (domains or {}).items()}
        self._orgs = {k.lower(): [s.lower() for s in v]
                      for k, v in (org_substrings or {}).items()}

    @classmethod
    def load(cls, path: str | Path) -> "ServiceOrgMap":
        """From a CSV table with one row per service; the domains and the
        organization substrings are ';'-separated lists."""
        domains: dict[str, set[str]] = {}
        orgs: dict[str, list[str]] = {}
        for _, row in read_table(path, _ORG_MAP_COLUMNS, unique="service_name"):
            name = row["service_name"]
            domains[name] = {d.strip() for d in row["accepted_domains"].split(";")
                             if d.strip()}
            orgs[name] = [s.strip()
                          for s in row["accepted_asn_org_substrings"].split(";")
                          if s.strip()]
        return cls(domains, orgs)

    def domains_for(self, service_name: str) -> set[str] | None:
        """Accepted domains for a service; None when the map has no entry."""
        return self._domains.get(service_name.lower())

    def org_substrings_for(self, service_name: str) -> list[str]:
        return self._orgs.get(service_name.lower(), [])


def org_matches(organization: str | None, substrings: Iterable[str]) -> bool:
    """Does the ASN organization contain one of the lowercased
    ``substrings``, case-insensitively?"""
    if not organization:
        return False
    org = organization.lower()
    return any(sub in org for sub in substrings)


def domain_matches_service(from_root_domain: str, service_name: str,
                           org_map: ServiceOrgMap) -> bool:
    """Does the from-domain correspond to the alias's service?

    Prefers the explicit org map; otherwise the registrable domain's
    leftmost label must equal the normalized service name.
    """
    if not from_root_domain:
        return False
    domain = from_root_domain.lower()
    accepted = org_map.domains_for(service_name)
    if accepted is not None:
        return domain in accepted
    token = normalize_service_token(service_name)
    return bool(token) and domain.split(".")[0] == token


def asn_is_own_org(asn_organization: str | None, service_name: str,
                   org_map: ServiceOrgMap) -> bool:
    return org_matches(asn_organization, org_map.org_substrings_for(service_name))


def classify_provenance(record, *, org_map: ServiceOrgMap, asn=None,
                        marketing_flag: bool = False,
                        cloud_flag: bool = False,
                        content_label: str | None = None) -> ProvenanceLabel:
    """Provenance + spam label for one record.

    The registry binding already lives on the record (record.alias).
    Content class only influences the sos/not_spam split, never uuss.
    """
    verdict = AuthVerdict(spf=record.spf, dkim=record.dkim)
    alias = record.alias
    flags: list[str] = []

    if isinstance(alias, str):      # UNMATCHED
        provenance = UTP
    else:
        service = alias.service_name
        matched = domain_matches_service(record.from_root_domain, service, org_map)
        own_org = asn_is_own_org(
            getattr(asn, "organization", None), service, org_map)
        if not matched:
            provenance = UTP
        elif own_org:
            provenance = INTERNAL
        elif verdict.passes:
            provenance = ATP
            if cloud_flag and not marketing_flag:
                # application-layer operator behind a cloud ASN is opaque
                flags.append("operator_unknown")
        else:
            provenance = UTP

    if verdict.double_fail:
        flags.append("needs_review")

    if provenance == UTP or verdict.double_fail:
        spam = UUSS
    elif (provenance in (INTERNAL, ATP) and verdict.passes
          and content_label in ("promotional", "crm")):
        spam = SOS
    else:
        spam = NOT_SPAM

    return ProvenanceLabel(provenance=provenance, spam=spam, flags=tuple(flags))
