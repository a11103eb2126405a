"""EML parsing: header precedence, dates, bodies, total-function behavior."""

import base64
import ipaddress
import json
from datetime import date, datetime, timezone
from email import policy
from email.message import Message
from email.utils import parsedate_to_datetime

import pytest
from gen import TRUSTED_MX as TRUSTED
from gen import render_eml
from hypothesis import example, given
from hypothesis import strategies as st

from inboxaudit import authlineage
from inboxaudit.authlineage import (ServiceOrgMap, canonical_ip,
                                    classify_provenance)
from inboxaudit.classify.rules import SOURCE_EXTERNAL, Classification
from inboxaudit.corpus import eml as eml_module
from inboxaudit.corpus.aliases import (AliasEntry, AliasRegistry,
                                       load_alias_registry)
from inboxaudit.corpus.eml import (_DATE_HEADERS, _PLAIN_FORMS, PARSE_OK,
                                   PARSE_UNPARSEABLE, UNMATCHED, EmailRecord,
                                   _decoded, _parse_date, html_to_text,
                                   parse_eml)
from inboxaudit.formats import json_default

def encoded(obj):
    """``obj`` as a JSONL artifact line holds it."""
    return json.loads(json.dumps(obj, default=json_default))


@pytest.fixture()
def registry():
    return AliasRegistry([
        AliasEntry(local_part="maple007", index=7, service_name="shopzilla",
                   service_kind="online_service",
                   registration_date=date(2024, 1, 1)),
    ])


def build(**kwargs):
    defaults = dict(
        to_addr="maple007@audit.example",
        from_addr="deals@mail.shopzilla.com",
        date=datetime(2024, 3, 4, 10, 30, tzinfo=timezone.utc),
        subject="Flash sale: 20% off",
        body="Save big today: https://shopzilla.com/deals",
        message_id="msg-1@shopzilla.com",
        sender_ip="167.89.1.1",
        sender_host="out.sender.example",
        spf="pass", dkim="pass",
    )
    defaults.update(kwargs)
    return render_eml(**defaults)


def test_basic_parse(registry):
    rec = parse_eml(build(), registry, trusted_mx=TRUSTED)
    assert rec.parse_status == PARSE_OK
    assert rec.alias.service_name == "shopzilla"
    assert rec.from_address == "deals@mail.shopzilla.com"
    assert rec.from_root_domain == "shopzilla.com"
    assert rec.sender_ip == "167.89.1.1"
    assert rec.spf == "pass" and rec.dkim == "pass"
    assert rec.received_utc == datetime(2024, 3, 4, 10, 30,
                                        tzinfo=timezone.utc)
    assert rec.subject.startswith("Flash sale")
    assert "Save big" in rec.body_text


def test_unmatched_recipient(registry):
    rec = parse_eml(build(to_addr="stray999@audit.example"), registry,
                    trusted_mx=TRUSTED)
    assert rec.parse_status == PARSE_OK
    assert rec.alias == UNMATCHED
    assert rec.service_name == UNMATCHED


def test_recipient_priority_delivered_to_first(registry):
    raw = build().replace(b"Delivered-To: maple007@audit.example",
                          b"Delivered-To: maple007@audit.example\n"
                          b"X-Original-To: other000@audit.example")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.alias.local_part == "maple007"


def test_recipient_fallback_to_x_original_to(registry):
    raw = build(to_addr="list@elsewhere.example").replace(
        b"Delivered-To: list@elsewhere.example",
        b"X-Original-To: maple007@audit.example")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.alias.local_part == "maple007"


def test_recipient_fallback_to_to_header(registry):
    raw = build(to_addr="maple007@audit.example").replace(
        b"Delivered-To: maple007@audit.example\n", b"")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.alias.local_part == "maple007"


def test_verdict_token_collapse(registry):
    for token, expected in [("softfail", "fail"), ("permerror", "fail"),
                            ("neutral", "none"), ("temperror", "none"),
                            ("policy", "none"), ("pass", "pass"),
                            ("fail", "fail"), ("none", "none")]:
        rec = parse_eml(build(spf=token), registry, trusted_mx=TRUSTED)
        assert rec.spf == expected, token


def test_absent_mechanisms(registry):
    rec = parse_eml(build(spf=None, dkim=None), registry, trusted_mx=TRUSTED)
    assert rec.spf == "absent" and rec.dkim == "absent"
    rec = parse_eml(build(dkim=None), registry, trusted_mx=TRUSTED)
    assert rec.spf == "pass" and rec.dkim == "absent"


def test_untrusted_authserv_id_falls_back_to_first(registry):
    raw = build(spf="fail", dkim="fail")
    # prepend an AR header from a foreign host claiming a pass
    raw = raw.replace(
        b"Authentication-Results: mx.audit.example;",
        b"Authentication-Results: other.host; spf=pass smtp.mailfrom=x@y.com\n"
        b"Authentication-Results: mx.audit.example;")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.spf == "fail" and rec.dkim == "fail"


def test_sender_ip_requires_trusted_hop(registry):
    rec = parse_eml(build(), registry, trusted_mx="mx.other.example")
    assert rec.sender_ip == "UNKNOWN"


def test_sender_ip_ignores_by_clause(registry):
    raw = build()
    raw = raw.replace(b" (Postfix)", b" (Postfix) [198.51.100.9]")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.sender_ip == "167.89.1.1"


def test_sender_ip_ipv6(registry):
    rec = parse_eml(build(sender_ip="2001:db8::25"), registry,
                    trusted_mx=TRUSTED)
    assert rec.sender_ip == "2001:db8::25"


def test_unparseable_noise(registry):
    rec = parse_eml(b"\x00\xff binary soup, no headers", registry,
                    trusted_mx=TRUSTED)
    assert rec.parse_status == PARSE_UNPARSEABLE
    assert rec.alias == UNMATCHED
    assert rec.message_id.startswith("sha256:")
    assert rec.received_utc is None


def test_missing_date_is_unparseable(registry):
    raw = build()
    raw = raw.replace(b"Date:", b"X-Was-Date:")
    # Received still carries a date, so this parses via the fallback
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.parse_status == PARSE_OK
    assert rec.received_utc is not None


def test_message_id_fallback_is_stable(registry):
    raw = build().replace(b"Message-ID:", b"X-No-ID:")
    rec1 = parse_eml(raw, registry, trusted_mx=TRUSTED)
    rec2 = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec1.message_id == rec2.message_id
    assert rec1.message_id.startswith("sha256:")


def test_naive_date_becomes_utc(registry):
    raw = build()
    raw = raw.replace(b"Date: Mon, 04 Mar 2024 10:30:00 +0000",
                      b"Date: Mon, 04 Mar 2024 10:30:00 -0000")
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.received_utc is not None
    assert rec.received_utc.tzinfo is not None


def test_html_to_text_strips_script_and_style():
    text = html_to_text("<head><title>t</title></head><body>keep "
                        "<script>drop()</script><style>drop{}</style>"
                        "<p>this</p></body>")
    assert "keep" in text and "this" in text
    assert "drop" not in text


def test_round_trip_record_dict(registry):
    rec = parse_eml(build(), registry, trusted_mx=TRUSTED)
    again = EmailRecord.from_dict(encoded(rec))
    assert again == rec


def test_round_trip_classification_dict():
    cls = Classification(label="crm", confidence=4, rationale="order update",
                         source=SOURCE_EXTERNAL, retries=2,
                         flags=("adapter_fallback",))
    assert Classification.from_dict(encoded(cls)) == cls
    # retries and flags keep their defaults when the line lacks them
    plain = {"label": "crm", "confidence": 4, "rationale": "order update",
             "source": SOURCE_EXTERNAL}
    assert Classification.from_dict(plain) == Classification(**plain)
    with pytest.raises(TypeError):
        Classification.from_dict({**plain, "message_id": "m@x"})


# --- decoding matches a full policy.default parse -------------------------
#
# Each case's expected record is what parse_eml gave when it parsed the
# whole message with email.policy.default and decoded every header through
# its header registry. Only the fields that differ from BASE_RECORD are
# listed.

RECEIVED = (b"from out.sender.example (out.sender.example [167.89.1.1]) "
            b"by mx.audit.example (Postfix) with ESMTPS id 000000001; "
            b"Mon, 04 Mar 2024 10:30:00 +0000")

BASE_HEADERS = {
    b"Delivered-To": b"maple007@audit.example",
    b"Received": RECEIVED,
    b"Authentication-Results": (b"mx.audit.example; spf=pass "
                                b"smtp.mailfrom=deals@mail.shopzilla.com; "
                                b"dkim=pass header.d=shopzilla.com"),
    b"From": b"Shopzilla <deals@mail.shopzilla.com>",
    b"To": b"maple007@audit.example",
    b"Subject": b"Flash sale",
    b"Date": b"Tue, 05 Mar 2024 09:00:00 +0100",
    b"Message-ID": b"<msg-1@shopzilla.com>",
    b"MIME-Version": b"1.0",
    b"Content-Type": b'text/plain; charset="utf-8"',
    b"Content-Transfer-Encoding": b"7bit",
}

BASE_RECORD = {
    "alias": {"index": 7, "local_part": "maple007",
              "registration_date": "2024-01-01",
              "service_kind": "online_service", "service_name": "shopzilla"},
    "body_text": "Save big today",
    "dkim": "pass",
    "from_address": "deals@mail.shopzilla.com",
    "from_root_domain": "shopzilla.com",
    "message_id": "msg-1@shopzilla.com",
    "parse_status": "ok",
    "received_utc": "2024-03-05T08:00:00+00:00",
    "sender_ip": "167.89.1.1",
    "spf": "pass",
    "subject": "Flash sale",
}

# the Received stamp, used when Date does not parse
FROM_RECEIVED = {"received_utc": "2024-03-04T10:30:00+00:00"}

ALTERNATIVE = (b"--b1\nContent-Type: text/plain; charset=utf-8\n\nplain part\n"
               b"--b1\nContent-Type: text/html; charset=utf-8\n\n"
               b"<p>html part</p>\n--b1--")


def eml(headers=None, body=b"Save big today", crlf=False) -> bytes:
    """BASE_HEADERS with ``headers`` replacing them (None drops one)."""
    merged = {**BASE_HEADERS, **(headers or {})}
    lines = [name + b": " + value for name, value in merged.items()
             if value is not None]
    raw = b"\n".join(lines) + b"\n\n" + body + b"\n"
    return raw.replace(b"\n", b"\r\n") if crlf else raw


DECODING_CASES = [
    ("encoded_subject",
     eml({b"Subject": b"=?utf-8?q?Caf=C3=A9_deals?="}),
     {"subject": "Café deals"}),
    ("encoded_from",
     eml({b"From": b"=?utf-8?b?Q2Fmw6k=?= <deals@mail.shopzilla.com>"}),
     {}),
    ("adjacent_encoded_words",
     eml({b"Subject": b"=?utf-8?q?Caf=C3=A9?= =?utf-8?q?_deals?="}),
     {"subject": "Café deals"}),
    ("unknown_encoded_word_charset",
     eml({b"Subject": b"=?x-unknown?q?abc?= sale"}),
     {"subject": "abc sale"}),
    ("raw_utf8_subject",
     eml({b"Subject": "Café été".encode("utf-8")}),
     {"subject": "Café été"}),
    ("raw_latin1_subject",
     eml({b"Subject": "Café été".encode("latin-1")}),
     {"subject": "Caf\ufffd \ufffdt\ufffd"}),
    ("raw_utf8_from_name",
     eml({b"From": "Café <deals@mail.shopzilla.com>".encode("utf-8")}),
     {}),
    ("received_folded_before_by",
     eml({b"Received": RECEIVED.replace(b" by ", b"\n by ")}),
     {}),
    ("malformed_from",
     eml({b"From": b"Shop <deals@mail.shopzilla.com"}),
     {}),
    ("from_without_domain",
     eml({b"From": b"deals at shopzilla"}),
     {"from_address": "deals at shopzilla", "from_root_domain": ""}),
    ("group_syntax_to",
     eml({b"Delivered-To": None,
          b"To": b"friends: maple007@audit.example, other@x.example;"}),
     {}),
    ("to_with_comment",
     eml({b"Delivered-To": None, b"To": b"maple007@audit.example (me)"}),
     {}),
    # an address with an empty local part ends the recipient search
    ("delivered_to_empty_local_part",
     eml({b"Delivered-To": b"@example.com"}),
     {"alias": UNMATCHED}),
    ("message_id_trailing_text",
     eml({b"Message-ID": b"<msg-1@shopzilla.com> extra"}),
     {}),
    ("invalid_date",
     eml({b"Date": b"not a date"}),
     FROM_RECEIVED),
    ("empty_date",
     eml({b"Date": b""}),
     FROM_RECEIVED),
    ("unknown_body_charset",
     eml({b"Content-Type": b"text/plain; charset=x-unknown"},
         body="Café".encode("utf-8")),
     {"body_text": "Café"}),
    ("quoted_printable_latin1_body",
     eml({b"Content-Type": b"text/plain; charset=iso-8859-1",
          b"Content-Transfer-Encoding": b"quoted-printable"},
         body=b"Caf=E9 =E9t=E9"),
     {"body_text": "Café été"}),
    ("bad_base64_body",
     eml({b"Content-Transfer-Encoding": b"base64"},
         body=base64.b64encode(b"Save big today")[:-3] + b"!!"),
     {"body_text": "U2F2ZSBiaWcgdG9kY!!"}),
    ("html_only",
     eml({b"Content-Type": b"text/html; charset=utf-8"},
         body=b"<html><head><style>x{}</style></head><body><p>Hello "
              b"<b>world</b></p><script>alert(1)</script></body></html>"),
     {"body_text": "Hello\nworld"}),
    ("multipart_alternative",
     eml({b"Content-Type": b'multipart/alternative; boundary="b1"',
          b"Content-Transfer-Encoding": None},
         body=ALTERNATIVE),
     {"body_text": "plain part"}),
    ("crlf_line_endings",
     eml({b"Received": RECEIVED.replace(b" by ", b"\n\tby ")}, crlf=True),
     {}),
    # the first value of a repeated header is the one read
    ("repeated_headers",
     eml().replace(b"\n\n", b"\nSubject: Second subject\n"
                   b"From: other@elsewhere.example\n"
                   b"Date: Wed, 06 Mar 2024 12:00:00 +0000\n"
                   b"Message-ID: <msg-2@elsewhere.example>\n"
                   b"Delivered-To: other000@audit.example\n\n", 1),
     {}),
    # Date forms that DateHeader's normalisation rewrites
    ("date_two_digit_year",
     eml({b"Date": b"Tue, 05 Mar 24 09:00:00 +0100"}),
     {}),
    ("date_named_zone",
     eml({b"Date": b"Tue, 05 Mar 2024 03:00:00 EST"}),
     {}),
    ("date_unknown_zone",
     eml({b"Date": b"Tue, 05 Mar 2024 08:00:00 -0000"}),
     {}),
    ("date_without_seconds",
     eml({b"Date": b"Tue, 05 Mar 2024 09:00 +0100"}),
     {}),
    ("date_zone_out_of_range",
     eml({b"Date": b"Tue, 05 Mar 2024 09:00:00 +9999"}),
     FROM_RECEIVED),
    ("date_folded",
     eml({b"Date": b"Tue, 05 Mar 2024\n 09:00:00 +0100"}),
     {}),
    ("date_non_ascii_comment",
     eml({b"Date": "Tue, 05 Mar 2024 09:00:00 +0100 (é)".encode("utf-8")}),
     {}),
    ("date_encoded_word_comment",
     eml({b"Date": b"Tue, 05 Mar 2024 09:00:00 +0100 (=?utf-8?q?CET?=)"}),
     {}),
]


@pytest.mark.parametrize("raw,changed", [c[1:] for c in DECODING_CASES],
                         ids=[c[0] for c in DECODING_CASES])
def test_decoding_matches_policy_default(registry, raw, changed):
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert encoded(rec) == {**BASE_RECORD, **changed}


# pieces that exercise folding, encoded words, 8-bit bytes (as the parser's
# surrogate escapes), address, msg-id, date and MIME parameter syntax
_VALUE_PIECES = st.sampled_from([
    "a", "Z", "0", "-", ".", " ", "\t", "@", "<", ">", ",", ";", ":", '"', "(",
    ")", "\\", "[", "]", "=", "?", "*", "'", "%", "/", "\x0b", "\x0c", "\r\n ",
    "\n\t", "é", "\udce9", "=?utf-8?q?Caf=C3=A9?=", "=?x-unknown?q?a?=",
    "deals@shop.example", "Shop Team <deals@shop.example>", "<id.1@host>",
    "Mon, 04 Mar 2024 10:30:00 +0000", "4 Mar 24 10:30 EST", "+0099",
    "text/plain", "; charset=utf-8", '; charset="utf-8"', "; name*=utf-8''a",
    "; boundary=b1", "1.0", "base64",
])
_HEADER_NAMES = ["Subject", "Received", "Authentication-Results",
                 "Delivered-To", "X-Original-To", "From", "To", "Cc", "Sender",
                 "Date", "Message-ID", "MIME-Version", "Content-Type",
                 "Content-Disposition", "Content-Transfer-Encoding"]


def test_every_typed_header_has_a_plain_form():
    # a header missing here would be taken as unstructured
    typed = set(policy.default.header_factory.registry)
    assert typed == set(_PLAIN_FORMS) | _DATE_HEADERS | {"subject"}


def _mime_reading(value: str) -> tuple:
    msg = Message()
    msg["Content-Type"] = value
    return (msg.get_content_type(), msg.get_param("charset"),
            msg.get_boundary(), msg.get_param("name"))


@given(name=st.sampled_from(_HEADER_NAMES),
       value=st.lists(_VALUE_PIECES, max_size=8).map("".join))
def test_decoded_header_reads_as_policy_default(name, value):
    value = value.lstrip(" \t")  # as the parser stores a header value
    try:
        expected = str(policy.default.header_fetch_parse(name, value))
    except Exception as exc:
        with pytest.raises(type(exc)):
            _decoded(name, value)
        return
    got = _decoded(name, value)
    if name in ("Content-Type", "Content-Disposition"):
        # parameters may stay unquoted or repeated; they read the same
        assert _mime_reading(got) == _mime_reading(expected)
    else:
        assert got == expected


_HEADER_SHAPED = st.builds(
    lambda headers, body: b"".join(n + b": " + v + b"\n" for n, v in headers)
    + b"\n" + body,
    st.lists(st.tuples(st.sampled_from([n.encode() for n in _HEADER_NAMES]),
                       st.binary(max_size=60)), max_size=8),
    st.binary(max_size=80))


@given(st.one_of(st.binary(max_size=300), _HEADER_SHAPED))
def test_parse_eml_is_total(raw):
    rec = parse_eml(raw, AliasRegistry([]), trusted_mx=TRUSTED)
    assert rec.parse_status in (PARSE_OK, PARSE_UNPARSEABLE)
    assert EmailRecord.from_dict(encoded(rec)) == rec


def test_foreign_auth_results_is_not_trusted(registry):
    # the sender can write an Authentication-Results header naming any host
    raw = eml({b"Authentication-Results":
               b"forged.example; spf=pass smtp.mailfrom=deals@mail.shopzilla.com;"
               b" dkim=pass header.d=shopzilla.com"})
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert (rec.spf, rec.dkim) == ("absent", "absent")
    assert classify_provenance(
        rec, org_map=ServiceOrgMap()).provenance == "utp"


def test_received_stamp_that_overflows_is_unparseable(registry):
    raw = eml({b"Date": None,
               b"Received": RECEIVED.replace(b"10:30:00",
                                             b"99999999999999999999:30:00")})
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert rec.parse_status == PARSE_UNPARSEABLE


def _date_through_decoded(value: str) -> datetime | None:
    """The two-step Date path: the value decoded as DateHeader reads it
    (a value that fails to decode reads as ""), then parsed again."""
    try:
        decoded = _decoded("Date", value)
    except Exception:
        decoded = ""
    try:
        dt = parsedate_to_datetime(decoded)
    except (TypeError, ValueError):
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


_DATE_PIECES = st.sampled_from([
    " ", "\t", "\r\n ", "\n\t", ",", ":", ".", "-", "+", "(", ")", "=?", "?=",
    "0", "1", "9", "00", "05", "24", "59", "60", "99", "1999", "2024", "0999",
    "99999999999999999999", "Tue", "Mar", "mAR", "Sept", "EST", "PDT", "UT",
    "GMT", "Z", "XYZ", "+0100", "-0000", "+0000", "+0099", "-0130", "+9999",
    "é", "\udce9", "Tue, 05 Mar 2024 09:00:00 +0100", "05 Mar 24 09:00",
])
_ZONES = st.sampled_from(["", " +0100", " -0000", " +0000", " EST", " UT",
                          " XYZ", " +0099", " -2359", " +9999", " +2400"])


@given(st.one_of(
    st.lists(_DATE_PIECES, max_size=10).map("".join),
    st.builds("{}{:02d} {} {}{} {:02d}:{:02d}{}{}".format,
              st.sampled_from(["", "Tue, "]), st.integers(0, 32),
              st.sampled_from(["Jan", "Mar", "Dec", "Foo"]),
              st.sampled_from(["", "19", "20", "0"]), st.integers(0, 99),
              st.integers(0, 25), st.integers(0, 61),
              st.sampled_from(["", ":00", ":59", ":61"]), _ZONES)))
def test_one_date_parse_matches_decoded_then_parsed(value):
    value = value.lstrip(" \t")  # as the parser stores a header value
    got, expected = _parse_date(value), _date_through_decoded(value)
    # equal instants are not enough: the offsets must agree too
    assert (got and got.isoformat()) == (expected and expected.isoformat())


# --- the value caches change no record -------------------------------------

VALUE_CACHES = (eml_module._repeating_decoded, eml_module._from_fields,
                eml_module._local_part, authlineage._canonical_ip)


def _clear_value_caches():
    for cache in VALUE_CACHES:
        cache.cache_clear()


def _records_three_ways(raws: list[bytes], registry) -> list:
    """The records of ``raws`` parsed with every cache cleared before each
    message, then in reverse order, then again with warm caches."""
    def parse(raw):
        return encoded(parse_eml(raw, registry, trusted_mx=TRUSTED))
    cold = []
    for raw in raws:
        _clear_value_caches()
        cold.append(parse(raw))
    _clear_value_caches()
    reverse = [parse(raw) for raw in reversed(raws)][::-1]
    warm = [parse(raw) for raw in raws]
    return [cold, reverse, warm]


@pytest.mark.parametrize("corpus", ["synth_corpus", "grid_corpus"])
def test_value_caches_change_no_corpus_record(request, corpus):
    corpus = request.getfixturevalue(corpus)
    raws = [path.read_bytes() for path in sorted(corpus.eml_dir.iterdir())]
    cold, reverse, warm = _records_three_ways(
        raws, load_alias_registry(corpus.registry_path))
    assert cold == reverse == warm


def test_value_caches_change_no_decoding_case(registry):
    cold, reverse, warm = _records_three_ways(
        [case[1] for case in DECODING_CASES], registry)
    assert cold == reverse == warm


def _ip_or_none(text: str) -> str | None:
    try:
        return str(ipaddress.ip_address(text))
    except ValueError:
        return None


@given(st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda ip: ip.exploded.upper()),
    st.lists(st.sampled_from(["0", "1", "01", "255", "256", "ff", "FFFF",
                              "12345", ".", ":", "::", "%", "eth0", "x", ""]),
             max_size=9).map("".join)))
@example("not-an-ip")
@example("010.1.1.1")
@example("::FFFF:1.2.3.4")
def test_canonical_ip_matches_ipaddress(text):
    assert canonical_ip(text) == _ip_or_none(text)


def test_long_header_values_are_not_cached(registry):
    recipients = ", ".join(f"r{i}@audit.example" for i in range(500))
    raw = eml({b"Delivered-To": None, b"Received": None,
               b"From": b"Shopzilla " + b"x" * 500 + b" <deals@shopzilla.com>",
               b"To": f"maple007@audit.example, {recipients}".encode()})
    _clear_value_caches()
    rec = parse_eml(raw, registry, trusted_mx=TRUSTED)
    assert (rec.alias.local_part, rec.from_address) == (
        "maple007", "deals@shopzilla.com")
    assert canonical_ip("1." * 40 + "1") is None
    assert [cache.cache_info().currsize for cache in VALUE_CACHES] == [0] * 4
