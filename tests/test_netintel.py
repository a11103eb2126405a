"""Offline IP-to-ASN mapping, abuse enrichment, and flow aggregation."""

import csv
import heapq
import ipaddress
import random
import tracemalloc
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inboxaudit import netintel
from inboxaudit.authlineage import ServiceOrgMap
from inboxaudit.classify.adapter import classify_records
from inboxaudit.corpus.aliases import load_alias_registry
from inboxaudit.corpus.eml import PARSE_OK, UNMATCHED, EmailRecord
from inboxaudit.corpus.store import CorpusStore, ingest_corpus
from inboxaudit.netintel import (AsnRecord, SnapshotParseError,
                                 asn_volume_concentration,
                                 build_sender_profiles, flag_marketing_asn,
                                 ip_hopping_correlation, is_internal_hop,
                                 load_abuse_reports, load_ip2asn,
                                 load_provider_list, rows_by_service)
from inboxaudit.netintel import SenderProfile, UNROUTED
from inboxaudit.pipeline import _bundled, enrich


def write_snapshot(tmp_path, text, name="ip2asn.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_cidr_rows_tab_and_comma(tmp_path):
    path = write_snapshot(tmp_path, (
        "# comment\n"
        "\n"
        "167.89.0.0/17\tAS11377\tSENDGRID\n"
        "13.110.208.0/21,14340,SALESFORCE\n"))
    table = load_ip2asn(path)
    rec = table.lookup("167.89.1.1")
    assert rec is not None and rec.asn == 11377
    assert rec.organization == "SENDGRID"
    assert table.lookup("13.110.210.9").asn == 14340
    assert table.lookup("9.9.9.9") is None


def test_load_range_rows(tmp_path):
    path = write_snapshot(tmp_path,
                          "104.30.0.0\t104.30.3.255\t13335\tCLOUDFLARENET\n")
    table = load_ip2asn(path)
    assert table.lookup("104.30.0.1").organization == "CLOUDFLARENET"
    assert table.lookup("104.30.3.254").asn == 13335
    assert table.lookup("104.30.4.1") is None


def test_load_ipv6_rows(tmp_path):
    path = write_snapshot(tmp_path, "2a06:98c0::/29\tAS202623\tCLOUDY V6\n")
    table = load_ip2asn(path)
    assert table.lookup("2a06:98c0::1").asn == 202623
    assert table.lookup("2a07::1") is None


def test_org_names_keep_embedded_commas(tmp_path):
    path = write_snapshot(tmp_path, "5.6.0.0/16,99,ACME, INC.\n")
    table = load_ip2asn(path)
    assert table.lookup("5.6.7.8").organization == "ACME,INC."


def test_rows_with_equal_cells_share_one_record(tmp_path):
    path = write_snapshot(tmp_path, ("1.0.0.0/24\tAS7\tORG\n"
                                     "2.0.0.0/24\tAS7\tORG\n"
                                     "3.0.0.0/24\t7\tORG\n"))
    table = load_ip2asn(path)
    first, second, third = (table.lookup(f"{n}.0.0.1") for n in (1, 2, 3))
    assert first is second
    assert first == third == AsnRecord(7, "ORG")


def test_quoted_cells_keep_csv_quoting(tmp_path):
    path = write_snapshot(tmp_path, '5.6.0.0/16,99,"ACME, INC."\n')
    assert load_ip2asn(path).lookup("5.6.7.8").organization == "ACME, INC."


_LINE_CHARS = st.sampled_from('ab1. ,\t"\x00\u00e9')


@settings(max_examples=300)
@given(line=st.text(_LINE_CHARS, min_size=1, max_size=20))
@example(line="a,,b,")
@example(line='8.8.8.0/24\t15169\t"GOOGLE\tLLC"')       # a quoted tab
@example(line='8.8.8.0/24\t15169\tTHE "BEST", LLC')     # quotes in a cell
@example(line='"8.8.8.0/24"\t"15169"\t"A ""B"" C"')      # doubled quotes
def test_snapshot_rows_match_csv_reader(tmp_path_factory, line):
    # splitting is only a fast path: every row reads as csv.reader reads it
    path = tmp_path_factory.mktemp("rows") / "snapshot.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        assert list(netintel._snapshot_rows(path)) == []
        return
    delim = "\t" if "\t" in stripped else ","
    expected = [cell.strip()
                for cell in next(csv.reader([stripped], delimiter=delim))]
    assert list(netintel._snapshot_rows(path)) == [(1, expected)]


def _whole_text_rows(path):
    """``_snapshot_rows`` as it read before the line-at-a-time reader: the
    whole text decoded, then ``str.splitlines``; a csv.Error as its text."""
    rows = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            delim = "\t" if "\t" in line else ","
            try:
                cells = (next(csv.reader([line], delimiter=delim))
                         if '"' in line else line.split(delim))
            except csv.Error as exc:
                return rows, str(exc)
            rows.append((lineno, [cell.strip() for cell in cells]))
    return rows, None


# every line boundary str.splitlines knows, "\r\n" among them
_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
_CHUNK = 8192   # bytes the text reader decodes at a time


@settings(max_examples=300)
@given(pad=st.sampled_from([0, _CHUNK - 3, _CHUNK - 2, _CHUNK - 1, _CHUNK]),
       lines=st.lists(st.tuples(st.text(_LINE_CHARS | st.just("#"),
                                        max_size=12),
                                st.sampled_from(_SEPARATORS)), max_size=30),
       tail=st.text(_LINE_CHARS, max_size=6))
@example(pad=_CHUNK - 1, lines=[("1.2.3.0/24\t1\tA", "\r\n")], tail="")
@example(pad=_CHUNK - 3, lines=[("\u00e9", "\u2028")], tail="")
def test_streamed_rows_match_whole_text_reading(tmp_path_factory, pad, lines,
                                                tail):
    # a padding comment ends with "\r" as the last byte of the first chunk
    # (pad = _CHUNK - 1) or around it, so its "\r\n" straddles the chunks;
    # with pad = _CHUNK - 3 a two-byte character after it does
    head = "#" * pad + "\r\n" if pad else ""
    text = head + "".join(line + sep for line, sep in lines) + tail
    path = tmp_path_factory.mktemp("rows") / "snapshot.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected, error = _whole_text_rows(path)
    got = []
    try:
        got.extend(netintel._snapshot_rows(path))
    except SnapshotParseError as exc:
        assert error is not None and str(exc).endswith(error)
    else:
        assert error is None
    assert got == expected


def test_non_utf8_byte_is_reported_where_the_reader_reaches_it(tmp_path):
    rows = "".join(f"10.{i // 256}.{i % 256}.0/24\t{i}\tORG\n"
                   for i in range(1000))          # about 22 KB
    late = tmp_path / "late.tsv"
    late.write_bytes(b"1.2.3.0/24\tASX\torg\n" + rows.encode() + b"caf\xe9\n")
    with pytest.raises(SnapshotParseError, match="row 1: asn"):
        load_ip2asn(late)
    early = tmp_path / "early.tsv"
    early.write_bytes(b"caf\xe9\n" + rows.encode())
    with pytest.raises(SnapshotParseError, match="early.tsv: not UTF-8"):
        load_ip2asn(early)
    with pytest.raises(SnapshotParseError, match="early.tsv: not UTF-8"):
        load_abuse_reports(early)
    # the offset counts from the file's start, not from the decoded chunk
    tail = tmp_path / "tail.tsv"
    tail.write_bytes(rows.encode() + b"caf\xe9\n")
    with pytest.raises(SnapshotParseError, match=(
            f"tail.tsv: not UTF-8: invalid continuation byte at byte "
            f"{len(rows) + 3}$")):
        load_ip2asn(tail)
    # a bad sequence that starts in one chunk and ends in the next
    straddle = tmp_path / "straddle.tsv"
    straddle.write_bytes(b"#" * (_CHUNK - 1) + b"\xc3(\n" + rows.encode())
    with pytest.raises(SnapshotParseError, match=(
            f"straddle.tsv: not UTF-8: invalid continuation byte at byte "
            f"{_CHUNK - 1}$")):
        load_ip2asn(straddle)


def test_disjoint_range_load_peak_memory_per_row(tmp_path):
    # published ip2asn files are disjoint ranges with far fewer ASNs than
    # rows; holding the file's lines and a tuple per row took ~300 B a row
    n = 20_000
    path = write_snapshot(tmp_path, "".join(
        f"{ipaddress.IPv4Address((16 << 24) + 512 * i)}"
        f"\t{ipaddress.IPv4Address((16 << 24) + 512 * i + 255)}"
        f"\t{64512 + i % 1700}\tNET-{i % 1700} HOSTING\n" for i in range(n)))
    tracemalloc.start()
    try:
        table = load_ip2asn(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert table.lookup("16.0.2.7") == AsnRecord(64513, "NET-1 HOSTING")
    assert peak / n <= 200, f"{peak / n:.0f} B per row"


def test_abuse_reports_keep_csv_quoting(tmp_path):
    path = tmp_path / "abuse.csv"
    path.write_text('"167.89.1.1",5\n"167.89.1.1"\t"7"\n', encoding="utf-8")
    assert load_abuse_reports(path) == {"167.89.1.1": 12}


@pytest.mark.parametrize("bad", [
    "167.89.0.0/17\tAS11377\n",            # missing org
    "not-an-ip\t1.2.3.4\t1\torg\n",        # bad range start
    "1.2.3.0/24\tASX\torg\n",              # unparseable asn
    "1.2.3.0/24\t-5\torg\n",               # negative asn
    "1.2.3.0/24\t99999999999999999999\torg\n",  # asn beyond 32 bits
    "1.2.3.0\t2001:db8::1\t64500\tX\n",    # range of mixed families
    "1.2.3.9\t1.2.3.0\t64500\tX\n",        # reversed range
    "1.2.3.0/24\t1_000\torg\n",            # int() would read 1000
    "1.2.3.0/24\t+5\torg\n",               # int() would read 5
    "1.2.3.0/24\t\u0661\u0662\u0663\torg\n",  # Arabic-Indic 123
    "1.2.3.0/24\tAS+5\torg\n",             # a sign after the prefix
    "1.2.3.0/24\tASX\torg\n4.5.6.0/24\tASX\torg\n",  # a repeated bad cell
])
def test_load_rejects_bad_rows_with_lineno(tmp_path, bad):
    path = write_snapshot(tmp_path, "# header\n" + bad)
    with pytest.raises(SnapshotParseError, match="row 2"):
        load_ip2asn(path)


def test_longest_prefix_wins(tmp_path):
    path = write_snapshot(tmp_path, (
        "10.0.0.0/8\t100\tCOARSE\n"
        "10.20.0.0/16\t200\tMEDIUM\n"
        "10.20.30.0/24\t300\tFINE\n"))
    table = load_ip2asn(path)
    assert table.lookup("10.20.30.40").organization == "FINE"
    assert table.lookup("10.20.99.1").organization == "MEDIUM"
    assert table.lookup("10.99.1.1").organization == "COARSE"
    assert len(table) == 3


def test_nested_and_duplicate_cidr_rows_resolve_longest_prefix(tmp_path):
    # nested networks at many lengths plus duplicates, in random order:
    # the longest covering prefix wins, the later row between duplicates
    rng = np.random.default_rng(3)
    networks = []
    for _ in range(40):
        plen = int(rng.choice([0, 4, 9, 12, 16, 20, 24, 28, 32]))
        networks.append(ipaddress.ip_network(
            (int(rng.integers(0, 2**32)), plen), strict=False))
    for _ in range(60):
        outer = networks[int(rng.integers(len(networks)))]
        if rng.random() < 0.3 or outer.prefixlen == 32:
            networks.append(outer)                       # a duplicate row
        else:
            plen = int(rng.integers(outer.prefixlen + 1, 33))
            offset = int(rng.integers(0, outer.num_addresses))
            networks.append(ipaddress.ip_network(
                (int(outer.network_address) + offset, plen), strict=False))
    networks = [networks[i] for i in rng.permutation(len(networks))]
    path = write_snapshot(tmp_path, "".join(
        f"{net}\t{row}\tROW{row}\n" for row, net in enumerate(networks)))
    table = load_ip2asn(path)
    assert len(table) == len(networks)

    probes = [int(v) for v in rng.integers(0, 2**32, 200)]
    for net in networks:
        first, last = int(net.network_address), int(net.broadcast_address)
        probes += [first, last, max(first - 1, 0), min(last + 1, 2**32 - 1)]
    for value in probes:
        ip = ipaddress.IPv4Address(value)
        covering = [(net.prefixlen, row) for row, net in enumerate(networks)
                    if ip in net]
        found = table.lookup(str(ip))
        assert (found.asn if found else None) == (
            max(covering)[1] if covering else None), ip


def test_overlapping_range_rows_resolve_smallest_row(tmp_path):
    # every address of a small space against random overlapping ranges:
    # the smallest containing row wins, the later row between equal sizes
    rng = np.random.default_rng(5)
    base = int(ipaddress.IPv4Address("10.0.0.0"))
    ranges = []
    for _ in range(30):
        first = int(rng.integers(0, 64))
        ranges.append((first, first + int(rng.integers(0, 16))))
    ranges += ranges[:5]                                # duplicate rows
    path = write_snapshot(tmp_path, "".join(
        f"{ipaddress.IPv4Address(base + a)}\t{ipaddress.IPv4Address(base + b)}"
        f"\t{row}\tROW{row}\n" for row, (a, b) in enumerate(ranges)))
    table = load_ip2asn(path)
    for offset in range(90):
        covering = [(b - a, -row) for row, (a, b) in enumerate(ranges)
                    if a <= offset <= b]
        found = table.lookup(str(ipaddress.IPv4Address(base + offset)))
        assert (found.asn if found else None) == (
            -min(covering)[1] if covering else None), offset


def test_overlapping_ranges_prefer_the_smaller_row(tmp_path):
    # split into CIDR blocks, both rows would cover 8.0.0.0/25 with one
    # block; as intervals the smaller row wins inside itself
    path = write_snapshot(tmp_path, (
        "8.0.0.0\t8.0.0.127\t1\tSMALL\n"
        "8.0.0.0\t8.0.0.191\t2\tLARGE\n"))
    table = load_ip2asn(path)
    assert table.lookup("8.0.0.5").organization == "SMALL"
    assert table.lookup("8.0.0.127").organization == "SMALL"
    assert table.lookup("8.0.0.128").organization == "LARGE"
    assert table.lookup("8.0.0.192") is None
    assert len(table) == 2


def _reference_address(text):
    """What ``ipaddress`` makes of ``text``: (version, value) or the error."""
    try:
        address = ipaddress.ip_address(text)
    except ValueError as exc:
        return str(exc)
    return address.version, int(address)


_HEX = "0123456789abcdefABCDEF"
_HEXTET = st.text(_HEX, min_size=1, max_size=4)
_BAD_HEXTET = st.sampled_from(["", "00000", "12345", "g", "\u0661"])
_OCTET = st.integers(0, 255).map(str)
_BAD_OCTET = (st.sampled_from(["", "00", "01", "256", "\u0661", "\uff11"])
              | st.text("0123456789", min_size=1, max_size=4))


def _parts(draw, part, bad, count):
    """``count`` parts, one time in three with one part too many or too
    few, and one time in four with one of them replaced by a bad part."""
    count = max(0, count + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    parts = draw(st.lists(part, min_size=count, max_size=count))
    if parts and draw(st.integers(0, 3)) == 0:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(bad)
    return parts


@st.composite
def _dotted(draw):
    return ".".join(_parts(draw, _OCTET, _BAD_OCTET, 4))


@st.composite
def _colon_address(draw):
    """IPv6 text, with or without '::', a dotted quad tail or a scope."""
    dotted = draw(st.booleans())
    width = 6 if dotted else 8
    gap = draw(st.booleans())
    groups = _parts(draw, _HEXTET, _BAD_HEXTET,
                    draw(st.integers(0, width - 1)) if gap else width)
    if dotted:
        groups.append(draw(_dotted()))
    if gap:
        cut = draw(st.integers(0, len(groups) - dotted))
        text = ":".join(groups[:cut]) + "::" + ":".join(groups[cut:])
    else:
        text = ":".join(groups)
    if draw(st.integers(0, 9)) == 0:
        text += "%" + draw(st.text("eth0", max_size=4))
    return text


_PADDING = st.sampled_from(["", "", "", "", "", " ", "\t", "\x00",
                            "\u00a0"])


@settings(max_examples=500)
@given(text=st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded),
    st.tuples(_PADDING, st.one_of(_dotted(), _colon_address()),
              _PADDING).map("".join),
    st.text(max_size=24)))
@example(text="01.2.3.4")
@example(text="1.2.3.04")
@example(text="1.2.3.00")
@example(text="00001::")
@example(text="::ffff:1.2.3.4")
@example(text="::ffff:01.2.3.4")
@example(text="1:2:3:4:5:6:1.2.3.4")
@example(text="fe80::1%eth0")
@example(text="1:2:3:4::5:6:7:8")
@example(text="1:2:3:4:5:6:7::")
@example(text="\u0661.2.3.4")                  # Arabic-Indic digit one
@example(text="1.2.3.\uff14")                  # fullwidth digit four
@example(text="\u0661::")
@example(text=" 1.2.3.4")
@example(text="1.2.3.4 ")
@example(text="::1 ")
@example(text="1.2.3.4\x00")
@example(text="::1\x00")
def test_address_agrees_with_ipaddress(text):
    # inet_pton comes from the platform's C library; ipaddress is the spec
    expected = _reference_address(text)
    try:
        got = netintel._address(text)
    except ValueError as exc:
        got = str(exc)
    assert got == expected


def _oracle_flatten(rows):
    """_flatten as it was before the disjoint shortcut: the heap sweep over
    the row boundaries, for every input."""
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


_GAPS = {"disjoint": [1, 2, 3], "adjacent": [0, 0, 3], "touching": [-1, 0, 2]}


def _intervals(rng, shape, n):
    """``n`` shuffled (first, last) intervals: disjoint with gaps, disjoint
    with adjacent rows (last + 1 == next first), rows that share their last
    address with the next row's first, or overlapping at random."""
    if shape == "overlapping":
        firsts = [rng.randrange(0, 4 * n) for _ in range(n)]
        return [(first, first + rng.randrange(0, 12)) for first in firsts]
    rows, cursor = [], rng.randrange(0, 5)
    for _ in range(n):
        last = cursor + rng.randrange(0, 6)
        rows.append((cursor, last))
        cursor = last + 1 + rng.choice(_GAPS[shape])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("shape", ["disjoint", "adjacent", "touching",
                                   "overlapping"])
@pytest.mark.parametrize("seed", range(5))
def test_flatten_matches_the_sweep(tmp_path, monkeypatch, shape, seed):
    rng = random.Random(f"{shape}:{seed}")
    v4 = _intervals(rng, shape, 60)
    v6 = _intervals(rng, shape, 20)
    orgs = [(rng.randrange(1, 5), rng.choice(["ALPHA", "BETA"]))
            for _ in range(len(v4) + len(v6))]
    lines = [f"{ipaddress.IPv4Address(first)}\t{ipaddress.IPv4Address(last)}"
             for first, last in v4]
    lines += [f"{ipaddress.IPv6Address(2**64 + first)}"
              f"\t{ipaddress.IPv6Address(2**64 + last)}" for first, last in v6]
    path = write_snapshot(tmp_path, "".join(
        f"{ends}\tAS{asn}\t{org}\n" for ends, (asn, org) in zip(lines, orgs)))

    if shape in ("disjoint", "adjacent"):   # these never reach the sweep
        monkeypatch.setattr(netintel, "_sweep", None)
    table = load_ip2asn(path)
    assert len(table) == len(v4) + len(v6)

    def expected(intervals, offset, records):
        return _oracle_flatten([(offset + first, offset + last,
                                 AsnRecord(*record))
                                for (first, last), record
                                in zip(intervals, records)])

    assert table.intervals(4) == expected(v4, 0, orgs)
    assert table.intervals(6) == expected(v6, 2**64, orgs[len(v4):])

    # rows of one (asn, org) share one record
    records = [record for family in (4, 6)
               for _, _, record in table.intervals(family)]
    assert len({id(record) for record in records}) == len(set(records))

    # each row's ends and the addresses just outside them get the record
    # the oracle's intervals give
    for intervals, offset, records, make in (
            (v4, 0, orgs, ipaddress.IPv4Address),
            (v6, 2**64, orgs[len(v4):], ipaddress.IPv6Address)):
        oracle = expected(intervals, offset, records)
        for first, last in intervals:
            for value in (offset + first - 1, offset + first,
                          offset + last, offset + last + 1):
                if value < 0:
                    continue
                want = next((record for lo, hi, record in oracle
                             if lo <= value <= hi), None)
                assert table.lookup(str(make(value))) == want, value


@pytest.mark.parametrize("ip,expected", [
    ("10.1.2.3", True), ("192.168.0.1", True), ("127.0.0.1", True),
    ("169.254.1.1", True), ("fe80::1", True), ("::1", True),
    ("192.0.2.7", True), ("198.51.100.9", True), ("203.0.113.1", True),
    ("8.8.8.8", False), ("167.89.1.2", False), ("2a06:98c0::1", False),
    ("garbage", True),
])
def test_is_internal_hop(ip, expected):
    assert is_internal_hop(ip) is expected


def unmatched_record(message_id, sender_ip):
    stamp = datetime(2024, 1, 1, tzinfo=timezone.utc)
    return EmailRecord(
        message_id=message_id, alias=UNMATCHED, from_address="",
        from_root_domain="", received_utc=stamp,
        sender_ip=sender_ip, spf="none", dkim="none", subject="",
        body_text="", parse_status=PARSE_OK)


def test_enrich_skips_internal_even_if_covered(tmp_path):
    path = write_snapshot(tmp_path, "0.0.0.0/0\t1\tEVERYTHING\n")
    table = load_ip2asn(path)
    assert table.lookup("10.0.0.1") is not None
    store = CorpusStore.from_records([unmatched_record("a", "10.0.0.1"),
                                      unmatched_record("b", "8.8.8.8")])
    internal, routed = enrich(store, table, [], [], ServiceOrgMap(),
                              classify_records(store.records, "rules"),
                              audit_timezone="UTC")
    assert internal.ip is None and internal.asn is None
    assert routed.ip == "8.8.8.8"
    assert routed.asn.organization == "EVERYTHING"


def test_rows_by_service_and_content_counts():
    def row(service, content):
        return SimpleNamespace(
            record=SimpleNamespace(service_name=service, from_root_domain=""),
            ip=None, asn=None, marketing=False, content=content)

    rows = [row("beta", "crm"), row(UNMATCHED, "alert"),
            row("alpha", "promotional"), row("beta", "crm"), row("beta", "alert")]
    by_service = rows_by_service(rows)
    assert list(by_service) == ["alpha", "beta"]      # sorted, unmatched out
    profiles, _ = build_sender_profiles(by_service, {})
    assert [p.service_name for p in profiles] == ["alpha", "beta"]
    assert profiles[0].content_counts == {"promotional": 1}
    assert profiles[1].content_counts == {"crm": 2, "alert": 1}
    assert profiles[1].emails_total == 3


def test_flag_marketing_asn():
    rec = AsnRecord(asn=11377, organization="SENDGRID")
    assert flag_marketing_asn(rec, ["sendgrid", "mailchimp"])
    assert not flag_marketing_asn(rec, ["mailchimp"])
    assert not flag_marketing_asn(None, ["sendgrid"])
    assert not flag_marketing_asn(rec, [])


def test_load_provider_list(tmp_path):
    path = tmp_path / "providers.txt"
    path.write_text("SendGrid  # the big one\n\n# all of it\nmailgun\n")
    providers = load_provider_list(path)
    assert providers == ["sendgrid", "mailgun"]
    assert flag_marketing_asn(AsnRecord(11377, "SENDGRID"), providers)


def test_abuse_reports_sum_duplicates(tmp_path):
    path = tmp_path / "abuse.csv"
    path.write_text("167.89.1.1,5\n167.89.1.1\t7\n198.51.100.9,0\n")
    reports = load_abuse_reports(path)
    assert reports == {"167.89.1.1": 12, "198.51.100.9": 0}


@pytest.mark.parametrize("bad", ["167.89.1.1,-3\n", "nope,5\n", "167.89.1.1\n",
                                 "167.89.1.1,1_000\n", "167.89.1.1,+5\n",
                                 "167.89.1.1,\u0661\u0662\u0663\n"])
def test_abuse_reports_reject_bad_rows(tmp_path, bad):
    path = tmp_path / "abuse.csv"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(SnapshotParseError, match="row 1"):
        load_abuse_reports(path)


@pytest.fixture(scope="module")
def synth_profiles(synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    store, report = ingest_corpus(synth_corpus.eml_dir, registry,
                                  trusted_mx=synth_corpus.expected["trusted_mx"])
    table = load_ip2asn(synth_corpus.ip2asn_path)
    abuse = load_abuse_reports(synth_corpus.abuse_path)
    providers = load_provider_list(_bundled("marketing_providers.txt"))
    rows = enrich(store, table, providers, [], ServiceOrgMap(),
                  classify_records(store.records, "rules"),
                  audit_timezone="UTC")
    profiles, flows = build_sender_profiles(rows_by_service(rows), abuse)
    return store, report, profiles, flows, abuse


def test_profiles_partition_matched_corpus(synth_corpus, synth_profiles):
    store, report, profiles, _, _ = synth_profiles
    matched = sum(p.emails_total for p in profiles)
    services = [r.service_name for r in store.records]
    assert matched + services.count(UNMATCHED) == len(store)
    names = {p.service_name for p in profiles}
    assert UNMATCHED not in names
    assert names == set(services) - {UNMATCHED}


def test_profile_network_facts(synth_corpus, synth_profiles):
    _, _, profiles, _, abuse = synth_profiles
    by_name = {p.service_name: p for p in profiles}
    shop = by_name["shopzilla"]
    assert len(shop.ips) == 8
    assert shop.uses_marketing_provider
    assert shop.spam_reports_total == sum(abuse.get(ip, 0) for ip in shop.ips)
    assert shop.root_domain == "shopzilla.com"
    # craftyard's block is absent from the snapshot: IPs but no route
    craft = by_name["craftyard"]
    assert craft.ips
    assert not craft.uses_marketing_provider
    # every profile IP is globally routable
    for profile in profiles:
        for ip in profile.ips:
            assert ipaddress.ip_address(ip).is_global


def test_treemap_totals_match_profiles(synth_profiles):
    _, _, profiles, flows, _ = synth_profiles
    treemap_total = sum(v for domains in flows.treemap.values()
                        for v in domains.values())
    assert treemap_total == sum(p.spam_reports_total for p in profiles)
    assert UNROUTED in flows.treemap  # craftyard block has abuse but no route


def test_sankey_edges_exclude_unrouted(synth_profiles):
    _, _, profiles, flows, _ = synth_profiles
    sources = {e["source"] for e in flows.sankey}
    assert "craftyard" not in sources
    assert all(e["weight"] >= 1 for e in flows.sankey)
    assert all(e["target"].startswith("AS") for e in flows.sankey)


def test_concentration_shape(synth_profiles):
    _, _, _, flows, _ = synth_profiles
    rows = asn_volume_concentration(flows)
    volumes = [v for _, v, _ in rows]
    shares = [s for _, _, s in rows]
    assert volumes == sorted(volumes, reverse=True)
    assert all(b >= a for a, b in zip(shares, shares[1:]))
    assert shares[-1] == pytest.approx(1.0)
    assert sum(volumes) == sum(e["weight"] for e in flows.sankey)


def test_concentration_empty():
    from inboxaudit.netintel import FlowEdges
    assert asn_volume_concentration(FlowEdges(sankey=[], treemap={})) == []


def _profile(name, n_ips, reports):
    p = SenderProfile(service_name=name)
    p.ips = {f"203.0.113.{i}" for i in range(1, n_ips + 1)}
    p.spam_reports_total = reports
    return p


def test_ip_hopping_perfect_linear():
    profiles = [_profile(f"s{i}", i, 10 * i) for i in range(1, 6)]
    stats = ip_hopping_correlation(profiles)
    assert stats["pearson"][0] == pytest.approx(1.0)
    assert stats["spearman"][0] == pytest.approx(1.0)
    assert stats["n"] == 5


def test_ip_hopping_monotone_nonlinear():
    # cubic growth: rank correlation saturates, linear does not
    profiles = [_profile(f"s{i}", i, i ** 3) for i in range(1, 9)]
    stats = ip_hopping_correlation(profiles)
    assert stats["spearman"][0] == pytest.approx(1.0)
    assert stats["pearson"][0] < 0.999


def test_ip_hopping_needs_three_points():
    profiles = [_profile("a", 1, 5), _profile("b", 2, 9),
                SenderProfile(service_name="no-ips")]
    with pytest.raises(ValueError):
        ip_hopping_correlation(profiles)


def test_ip_hopping_on_synth(synth_profiles):
    _, _, profiles, _, _ = synth_profiles
    stats = ip_hopping_correlation(profiles)
    assert stats["n"] >= 10
    assert stats["pearson"][0] > 0.5  # more IPs, more abuse, by construction
