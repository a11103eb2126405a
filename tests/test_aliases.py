"""Alias scheme and registry behavior."""

import json
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inboxaudit.corpus.aliases import (AliasEntry, AliasRegistry,
                                       RegistryIntegrityError,
                                       RegistryParseError, generate_alias,
                                       load_alias_registry)
from inboxaudit.formats import json_default

REG_DATE = date(2024, 1, 1)


def entry(local, index, name="svc", kind=None):
    if kind is None:
        kind = "online_service" if index < 100 else "mobile_app"
    return AliasEntry(local_part=local, index=index, service_name=name,
                      service_kind=kind, registration_date=REG_DATE)


def test_generate_and_parse_round_trip():
    address = generate_alias("maple", 7, "audit.example")
    assert address == "maple007@audit.example"
    reg = AliasRegistry([entry(address.split("@")[0], 7)])
    assert reg.match("maple007").index == 7


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12),
       st.integers(0, 149))
def test_alias_round_trip_property(seed, index):
    address = generate_alias(seed, index, "audit.example")
    local = address.split("@")[0]
    reg = AliasRegistry([entry(local, index)])
    assert reg.match(local.upper()) == reg.entries[0]
    assert reg.entries[0].index == index


def test_generate_rejects_bad_seeds():
    for bad in ("", "Maple", "ma ple", "maple1", "日本"):
        with pytest.raises(ValueError):
            generate_alias(bad, 3, "audit.example")
    with pytest.raises(ValueError):
        generate_alias("maple", 150, "audit.example")
    with pytest.raises(ValueError):
        generate_alias("maple", -1, "audit.example")


def test_kind_boundary():
    assert entry("alpha099", 99).service_kind == "online_service"
    assert entry("alpha100", 100).service_kind == "mobile_app"
    with pytest.raises(RegistryIntegrityError):
        entry("alpha099", 99, kind="mobile_app")
    with pytest.raises(RegistryIntegrityError):
        entry("alpha100", 100, kind="online_service")


def test_entry_validates_local_part():
    with pytest.raises(RegistryIntegrityError):
        entry("alpha42", 42)        # two digits only
    with pytest.raises(RegistryIntegrityError):
        entry("alpha043", 42)       # encoded index disagrees
    with pytest.raises(RegistryIntegrityError):
        entry("ALPHA042", 42)


def test_registry_match_and_case():
    reg = AliasRegistry([entry("maple007", 7), entry("cedar101", 101)])
    assert reg.match("maple007").index == 7
    assert reg.match("MAPLE007").index == 7
    assert reg.match("unknown000") is None


def test_registry_duplicate_detection():
    with pytest.raises(RegistryIntegrityError):
        AliasRegistry([entry("maple007", 7), entry("other007", 7)])
    with pytest.raises(RegistryIntegrityError):
        AliasRegistry([entry("maple007", 7),
                       AliasEntry(local_part="maple007", index=7,
                                  service_name="other",
                                  service_kind="online_service",
                                  registration_date=REG_DATE)])


def test_registry_sorted_by_index():
    reg = AliasRegistry([entry("cedar101", 101), entry("maple007", 7)])
    assert [e.index for e in reg.entries] == [7, 101]


def test_load_registry_csv(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text(
        "local_part,index,service_name,service_kind,registration_date\n"
        "maple007,7,shopzilla,online_service,2024-01-01\n"
        "cedar101,101,fitpulse,mobile_app,2024-01-05\n")
    reg = load_alias_registry(path)
    assert len(reg.entries) == 2
    assert reg.match("cedar101").service_name == "fitpulse"


def test_load_registry_errors(tmp_path):
    missing_col = tmp_path / "bad1.csv"
    missing_col.write_text("local_part,index\nmaple007,7\n")
    with pytest.raises(RegistryParseError):
        load_alias_registry(missing_col)

    # the index cell must be ASCII decimal digits, as snapshot numbers are
    for index in ("seven", "0_07", "+7", " 7e0", "\u0667"):
        bad_row = tmp_path / "bad2.csv"
        bad_row.write_text(
            "local_part,index,service_name,service_kind,registration_date\n"
            f"maple007,{index},shopzilla,online_service,2024-01-01\n",
            encoding="utf-8")
        with pytest.raises(RegistryParseError) as err:
            load_alias_registry(bad_row)
        assert f"{bad_row}: row 2: index" in str(err.value)


def test_load_registry_errors_name_file_and_row(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text(
        "local_part,index,service_name,service_kind,registration_date\n"
        "maple007,107,shopzilla,mobile_app,2024-01-01\n")
    with pytest.raises(RegistryIntegrityError) as err:
        load_alias_registry(path)
    assert str(err.value) == (f"{path}: row 2: local part 'maple007' encodes "
                              "index 007, registry says 107")


def test_load_registry_without_header_is_parse_error(tmp_path):
    # a zero-byte registry used to load as empty, leaving all mail unmatched
    path = tmp_path / "reg.csv"
    path.write_bytes(b"")
    with pytest.raises(RegistryParseError, match="missing columns"):
        load_alias_registry(path)


def test_load_registry_empty_warns(tmp_path, caplog):
    path = tmp_path / "empty.csv"
    path.write_text(
        "local_part,index,service_name,service_kind,registration_date\n")
    with caplog.at_level("WARNING"):
        reg = load_alias_registry(path)
    assert reg.entries == []
    assert any("empty" in m for m in caplog.messages)


def test_round_trip_dict():
    e = entry("maple007", 7, name="shopzilla")
    line = json.dumps(e, default=json_default)
    assert AliasEntry.from_dict(json.loads(line)) == e
