"""EML parsing: one raw byte stream in, one EmailRecord out, never an exception.

A record is `ok` when the bytes decode to a message with recognizable
headers and a parseable date; anything else becomes an `unparseable`
record that still counts toward volume totals.

The message is parsed with an `email.policy.compat32` policy, which keeps
every header as its raw string and builds no header objects. `parse_eml`
then makes one pass over the header list into a map from each lowercased
name to its raw values, in order. That map answers whether any
recognised header is present, gives the first value of each header the
record reads (From, To, Delivered-To, X-Original-To, Subject, Date,
Message-ID), and gives the Received and Authentication-Results value
lists handed to `authlineage`. A value is decoded only when it is read:
those values, and the MIME headers the parser and the body extraction
read through the policy. Reading a value gives the string
`policy.default`'s header registry gives for it. A plain ASCII value
already in that string's form is returned unfolded (CR and LF removed,
as `policy.default` does). Only a value that is non-ASCII, holds an
encoded word (`=?`) or is not in that form, such as a malformed address,
goes through `policy.default`'s header registry. The Date is not decoded
but parsed once from its unfolded value, which gives the date its
DateHeader would. So the record is the one a full `policy.default` parse
gives, at a fraction of its cost.

An alias mailbox repeats a few values many times over: one alias per
service and a few sending addresses per service. So the steps that read
those values are cached process-wide: decoding the From, To,
Delivered-To and X-Original-To values, a From value to its address and
root domain, and a recipient value to its local part. Each cache holds
at most `_VALUE_CACHE_SIZE` entries, and a value longer than
`_MAX_CACHED_VALUE` characters is worked out afresh and never kept, so
a huge header is freed with its message. Received,
Authentication-Results, Date, Message-ID and Subject are unique per
message in real mail and are not cached. A cached step is pure and its
result immutable; an exception is never cached, so it is raised again
on every call, as without the cache.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from email import policy
from email.message import Message
from email.parser import BytesParser
from email.policy import Compat32
from email.utils import (format_datetime, getaddresses, parseaddr,
                         parsedate_to_datetime)
from functools import lru_cache
from html.parser import HTMLParser

from ..authlineage import (ABSENT, UNKNOWN_IP, VERDICTS, canonical_ip,
                           extract_sender_ip, parse_auth_results)
from .aliases import AliasEntry, AliasRegistry
from .suffix import root_domain

UNMATCHED = "UNMATCHED"

PARSE_OK = "ok"
PARSE_UNPARSEABLE = "unparseable"

# at least one of these must surface for the bytes to count as a message
_RECOGNIZED_HEADERS = frozenset({
    "from", "to", "date", "received", "subject", "message-id",
    "delivered-to", "x-original-to",
})

_RECIPIENT_PRIORITY = ("delivered-to", "x-original-to", "to")

# entries per cache of a value step; a mailbox of a few hundred services
# repeats far fewer distinct values than this
_VALUE_CACHE_SIZE = 1024
# the longest value a cache keeps; the repeating alias and sender values
# are far shorter, a To with many recipients is not
_MAX_CACHED_VALUE = 256
# the headers whose decoded values are cached
_REPEATING_HEADERS = frozenset({"from", "to", "delivered-to", "x-original-to"})

# the record fields a corpus line holds as strings
_TEXT_FIELDS = ("message_id", "from_address", "from_root_domain", "sender_ip",
                "spf", "dkim", "subject", "body_text", "parse_status")


@dataclass
class EmailRecord:
    message_id: str
    alias: AliasEntry | str  # AliasEntry or UNMATCHED
    from_address: str
    from_root_domain: str
    received_utc: datetime | None
    sender_ip: str
    spf: str
    dkim: str
    subject: str
    body_text: str
    parse_status: str

    @property
    def service_name(self) -> str:
        if isinstance(self.alias, AliasEntry):
            return self.alias.service_name
        return UNMATCHED

    @classmethod
    def from_dict(cls, entry: dict) -> "EmailRecord":
        """A record as `formats.write_jsonl` encodes it. An unknown or
        missing key raises, and so does a value of the wrong type: a text
        field that is not a string, a parse status or SPF/DKIM verdict
        outside its enum, a sender IP that is neither UNKNOWN nor an IP
        address's canonical text, an alias that is neither an object nor
        UNMATCHED, a date that does not fit the parse status or is not in
        UTC (``+00:00``)."""
        wrong = [name for name in _TEXT_FIELDS if not isinstance(entry[name], str)]
        if wrong:
            raise TypeError(f"not a string: {', '.join(wrong)}")
        sender_ip = entry["sender_ip"]
        if sender_ip != UNKNOWN_IP and canonical_ip(sender_ip) != sender_ip:
            raise ValueError(f"sender_ip {sender_ip!r} is neither {UNKNOWN_IP} "
                             "nor an IP address in canonical form")
        if entry["parse_status"] not in (PARSE_OK, PARSE_UNPARSEABLE):
            raise ValueError(f"unknown parse_status {entry['parse_status']!r}")
        for name in ("spf", "dkim"):
            if entry[name] not in VERDICTS:
                raise ValueError(f"unknown {name} verdict {entry[name]!r}")
        alias = entry["alias"]
        if isinstance(alias, dict):
            alias = AliasEntry.from_dict(alias)
        elif alias != UNMATCHED:
            raise ValueError(f"alias {alias!r} is neither an object nor {UNMATCHED}")
        dated = entry["parse_status"] == PARSE_OK
        received = entry["received_utc"]
        if (received is None) == dated:
            raise ValueError(f"{entry['parse_status']} record "
                             f"{'without' if dated else 'with'} a date")
        if dated:
            received = datetime.fromisoformat(received)
            if received.tzinfo != timezone.utc:
                raise ValueError(f"received_utc {entry['received_utc']!r} "
                                 "is not in UTC (+00:00)")
        return cls(**{**entry, "received_utc": received, "alias": alias})


class _TextExtractor(HTMLParser):
    _SKIP = {"script", "style", "head"}

    def __init__(self):
        super().__init__()
        self.chunks: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self.chunks.append(data.strip())


def html_to_text(markup: str) -> str:
    extractor = _TextExtractor()
    try:
        extractor.feed(markup)
        extractor.close()
    except Exception:  # malformed markup: keep whatever was extracted
        pass
    return "\n".join(extractor.chunks)


# For each typed header in policy.default's registry, the plain ASCII
# values it returns unchanged. The MIME parameter headers are the one
# exception: they quote, de-duplicate and re-space their parameters, which
# get_content_type and get_param read alike. Headers outside the registry
# are unstructured and return every plain value unchanged; date headers
# are normalised by _date_header_value.
_ATOM = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~-]+"
_DOT_ATOM = rf"{_ATOM}(?:\.{_ATOM})*"
_ADDR_SPEC = rf"{_DOT_ATOM}@{_DOT_ATOM}"
_ADDRESS = re.compile(rf"{_ADDR_SPEC}|{_ATOM}(?: {_ATOM})* <{_ADDR_SPEC}>")
_MIME_TOKEN = r"[A-Za-z0-9!#$%&'*+.^_`{|}~-]+"
# parameter names and unquoted values: RFC 2231 attribute-chars, which
# leave out the `*`, `'` and `%` of extended parameters
_MIME_ATTRIBUTE = r"[A-Za-z0-9!#$&+.^_`{|}~-]+"
_MIME_PARAMS = re.compile(
    rf"{_MIME_TOKEN}(?:/{_MIME_TOKEN})?"
    rf"(?:; ?{_MIME_ATTRIBUTE}=(?:{_MIME_ATTRIBUTE}|\"[^\"\\]*\"))*")
_PLAIN_FORMS: dict[str, re.Pattern] = {
    **dict.fromkeys(("from", "to", "cc", "bcc", "reply-to", "sender",
                     "resent-from", "resent-to", "resent-cc", "resent-bcc",
                     "resent-sender"), _ADDRESS),
    "message-id": re.compile(rf"<{_ADDR_SPEC}>"),
    "content-type": _MIME_PARAMS,
    "content-disposition": _MIME_PARAMS,
    "content-transfer-encoding": re.compile(_MIME_TOKEN),
    "mime-version": re.compile(r"[0-9]+\.[0-9]+"),
}
_DATE_HEADERS = frozenset({"date", "resent-date", "orig-date"})


def _date_header_value(value: str) -> str:
    """str() of policy.default's DateHeader, without building its parse tree."""
    if not value:
        return value
    try:
        return format_datetime(parsedate_to_datetime(value))
    except ValueError:
        return value


def _decoded(name: str, value: str) -> str:
    """The string policy.default's header_fetch_parse(name, value) gives.

    (For Content-Type and Content-Disposition, one with the same type and
    parameters.) Raises what policy.default raises. A typed header object
    is built only for a value that is non-ASCII, holds an encoded word or
    is not in the plain form its header takes.
    """
    unfolded = value.replace("\r", "").replace("\n", "")  # policy.default's unfolding
    if unfolded.isascii() and "=?" not in unfolded:
        key = name.lower()
        if key in _DATE_HEADERS:
            return _date_header_value(unfolded)
        form = _PLAIN_FORMS.get(key)
        if form is None or form.fullmatch(unfolded):
            return unfolded
    return str(policy.default.header_fetch_parse(name, value))


_repeating_decoded = lru_cache(maxsize=_VALUE_CACHE_SIZE)(_decoded)


def _read(name: str, value: str) -> str:
    """_decoded(name, value), cached for short _REPEATING_HEADERS values."""
    key = name.lower()
    if key in _REPEATING_HEADERS and len(value) <= _MAX_CACHED_VALUE:
        return _repeating_decoded(key, value)
    return _decoded(name, value)


def _cached_if_short(step, value: str):
    """``step(value)`` for an lru_cache'd ``step``; a value too long to
    keep goes to the uncached function."""
    if len(value) <= _MAX_CACHED_VALUE:
        return step(value)
    return step.__wrapped__(value)


class _DecodingCompat32(Compat32):
    """compat32 parsing whose header values read as policy.default's would.

    The parser and Message keep raw header strings and build no header
    objects; a value is decoded when it is read.
    """

    def header_fetch_parse(self, name, value):
        return _read(name, value)


_PARSE_POLICY = _DecodingCompat32()


def _first(headers: dict[str, list[str]], name: str) -> str:
    """The first ``name`` value, decoded; "" when missing or undecodable."""
    values = headers.get(name)
    if not values:
        return ""
    try:
        return _read(name, values[0])
    except Exception:
        return ""


def _trace(headers: dict[str, list[str]], name: str) -> list[str]:
    """Every ``name`` value in order, decoded; raw when undecodable."""
    decoded: list[str] = []
    for value in headers.get(name, ()):
        try:
            decoded.append(_read(name, value))
        except Exception:
            decoded.append(value)
    return decoded


def _parse_date(value: str) -> datetime | None:
    """The date of an RFC 5322 date-time value (unfolded first); None when
    it does not parse. A date without a zone is taken as UTC."""
    try:
        dt = parsedate_to_datetime(value.replace("\r", "").replace("\n", ""))
    except Exception:  # ValueError mostly, OverflowError for huge numbers
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def _message_datetime(date: list[str], received: list[str]) -> datetime | None:
    dt = _parse_date(date[0]) if date else None
    if dt is not None:
        return dt
    # fall back to the stamp the receiving host wrote into Received
    for value in received:
        if ";" in value:
            dt = _parse_date(value.rsplit(";", 1)[1].strip())
            if dt is not None:
                return dt
    return None


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def _from_fields(value: str) -> tuple[str, str]:
    """A decoded From value's address and its root domain ("" when it
    has none)."""
    address = parseaddr(value)[1].strip()
    if "@" not in address:
        return address, ""
    try:
        return address, root_domain(address)
    except ValueError:
        return address, ""


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def _local_part(value: str) -> str | None:
    """The lowercased local part of the first address in a decoded
    recipient value, "" when that part is empty; None when the value
    holds no address."""
    addresses = [addr for _, addr in getaddresses([value]) if "@" in addr]
    if addresses:
        return addresses[0].rsplit("@", 1)[0].strip().lower()
    return None


def _recipient_local_part(headers: dict[str, list[str]]) -> str:
    for name in _RECIPIENT_PRIORITY:
        raw = _first(headers, name)
        if not raw:
            continue
        # an address with an empty local part still ends the search
        local = _cached_if_short(_local_part, raw)
        if local is not None:
            return local
    return ""


def _body_text(msg: Message) -> str:
    plain: list[str] = []
    html: list[str] = []
    try:
        parts = list(msg.walk())
    except Exception:
        return ""
    for part in parts:
        if part.is_multipart():
            continue
        try:
            ctype = part.get_content_type()
        except Exception:
            continue
        if ctype not in ("text/plain", "text/html"):
            continue
        try:
            # what policy.default's get_content() does for text parts
            content = part.get_payload(decode=True).decode(
                part.get_param("charset", "ASCII"), errors="replace")
        except Exception:
            try:
                payload = part.get_payload(decode=True)
                content = payload.decode("utf-8", errors="replace") if payload else ""
            except Exception:
                continue
        if not isinstance(content, str):
            continue
        (plain if ctype == "text/plain" else html).append(content.strip())
    if plain:
        return "\n".join(plain)
    if html:
        return "\n".join(html_to_text(h) for h in html)
    return ""


def _content_hash_id(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _unparseable(raw: bytes, subject: str = "", from_address: str = "") -> EmailRecord:
    return EmailRecord(
        message_id=_content_hash_id(raw),
        alias=UNMATCHED,
        from_address=from_address,
        from_root_domain="",
        received_utc=None,
        sender_ip=UNKNOWN_IP,
        spf=ABSENT,
        dkim=ABSENT,
        subject=subject,
        body_text="",
        parse_status=PARSE_UNPARSEABLE,
    )


def parse_eml(raw: bytes, registry: AliasRegistry, *,
              trusted_mx: str) -> EmailRecord:
    """Parse one EML byte stream into an EmailRecord (total function).

    ``trusted_mx`` is the receiving host whose Received and
    Authentication-Results headers are read. The record's one clock is
    ``received_utc``; ``pipeline.enrich`` puts it into the audit timezone.
    """
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError("parse_eml expects bytes")
    raw = bytes(raw)
    try:
        msg = BytesParser(policy=_PARSE_POLICY).parsebytes(raw)
    except Exception:
        return _unparseable(raw)

    headers: dict[str, list[str]] = {}
    for name, value in msg.raw_items():
        headers.setdefault(name.lower(), []).append(value)
    if _RECOGNIZED_HEADERS.isdisjoint(headers):
        return _unparseable(raw)

    subject = re.sub(r"\s+", " ", _first(headers, "subject")).strip()
    from_address, from_root = _cached_if_short(_from_fields,
                                               _first(headers, "from"))

    received_values = _trace(headers, "received")
    received = _message_datetime(headers.get("date", []), received_values)
    if received is None:
        return _unparseable(raw, subject=subject, from_address=from_address)

    message_id = _first(headers, "message-id").strip().strip("<>").strip()
    if not message_id:
        message_id = _content_hash_id(raw)

    alias = registry.match(_recipient_local_part(headers)) or UNMATCHED

    verdict = parse_auth_results(_trace(headers, "authentication-results"),
                                 trusted_mx)

    return EmailRecord(
        message_id=message_id,
        alias=alias,
        from_address=from_address,
        from_root_domain=from_root,
        received_utc=received.astimezone(timezone.utc),
        sender_ip=extract_sender_ip(received_values, trusted_mx),
        spf=verdict.spf,
        dkim=verdict.dkim,
        subject=subject,
        body_text=_body_text(msg),
        parse_status=PARSE_OK,
    )
