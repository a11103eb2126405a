"""Auth verdict parsing and the provenance/spam taxonomy."""

from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inboxaudit.authlineage import (AuthVerdict, ProvenanceLabel,
                                    ServiceOrgMap, asn_is_own_org,
                                    classify_provenance,
                                    domain_matches_service,
                                    extract_sender_ip, parse_auth_results)
from inboxaudit.corpus.aliases import AliasEntry
from inboxaudit.corpus.eml import UNMATCHED, EmailRecord
from inboxaudit.netintel import AsnRecord

ALIAS = AliasEntry(local_part="maple007", index=7, service_name="shopzilla",
                   service_kind="online_service",
                   registration_date=date(2024, 1, 1))
NO_MAP = ServiceOrgMap()


def record(alias=ALIAS, domain="shopzilla.com", spf="pass", dkim="pass"):
    return EmailRecord(
        message_id="m@x", alias=alias, from_address=f"a@{domain}",
        from_root_domain=domain, received_utc=None, sender_ip="167.89.1.1", spf=spf, dkim=dkim, subject="s",
        body_text="b", parse_status="ok")


# ------------------------------------------------------------ verdict parsing

def test_parse_auth_results_basic():
    values = ["mx.audit.example; spf=pass smtp.mailfrom=a@shopzilla.com; "
              "dkim=pass header.d=shopzilla.com"]
    v = parse_auth_results(values, "mx.audit.example")
    assert (v.spf, v.dkim) == ("pass", "pass")
    assert v.authenticated_domain == "shopzilla.com"
    assert v.passes and not v.double_fail


def test_parse_auth_results_no_header():
    v = parse_auth_results([], "mx.audit.example")
    assert (v.spf, v.dkim) == ("absent", "absent")
    assert not v.passes


def test_parse_auth_results_trusted_selection():
    values = [
        "evil.example; spf=pass smtp.mailfrom=a@b",
        "mx.audit.example; spf=fail smtp.mailfrom=a@b; dkim=fail header.d=b",
    ]
    v = parse_auth_results(values, "mx.audit.example")
    assert (v.spf, v.dkim) == ("fail", "fail")
    assert v.double_fail


def test_parse_auth_results_first_occurrence_wins():
    values = ["mx.audit.example; spf=fail smtp.mailfrom=a@b; "
              "spf=pass smtp.mailfrom=c@d"]
    v = parse_auth_results(values, "mx.audit.example")
    assert v.spf == "fail"


def test_parse_auth_results_mailfrom_domain_fallback():
    values = ["mx.audit.example; spf=pass smtp.mailfrom=bounce@mail.x.com"]
    v = parse_auth_results(values, "mx.audit.example")
    assert v.authenticated_domain == "mail.x.com"


def test_extract_sender_ip_scans_in_order():
    received = [
        "from a (a [10.0.0.1]) by internal.example; date",
        "from b (b [198.51.100.7]) by mx.audit.example; date",
    ]
    assert extract_sender_ip(received, "mx.audit.example") == "198.51.100.7"


def test_extract_sender_ip_unknown():
    received = ["from a (a) by mx.audit.example; date"]
    assert extract_sender_ip(received, "mx.audit.example") == "UNKNOWN"
    assert extract_sender_ip([], "mx.audit.example") == "UNKNOWN"


# ----------------------------------------------------------------- org map

def test_org_map_load_and_lookup(tmp_path):
    path = tmp_path / "org.csv"
    path.write_text(
        "service_name,accepted_domains,accepted_asn_org_substrings\n"
        "shopzilla,shopzilla.com;shopzillamail.com,shopzilla networks\n")
    org = ServiceOrgMap.load(path)
    assert org.domains_for("shopzilla") == {"shopzilla.com",
                                            "shopzillamail.com"}
    assert org.domains_for("unknown") is None
    assert org.org_substrings_for("shopzilla") == ["shopzilla networks"]


def test_domain_matching_fallback_is_leftmost_label():
    assert domain_matches_service("shopzilla.com", "shopzilla", NO_MAP)
    assert not domain_matches_service("other.com", "shopzilla", NO_MAP)
    # normalization strips spaces and punctuation from the service name
    assert domain_matches_service("dealdepot.com", "Deal Depot", NO_MAP)


def test_domain_matching_org_map_wins(tmp_path):
    path = tmp_path / "org.csv"
    path.write_text(
        "service_name,accepted_domains,accepted_asn_org_substrings\n"
        "shopzilla,zillamail.com,\n")
    org = ServiceOrgMap.load(path)
    assert domain_matches_service("zillamail.com", "shopzilla", org)
    # the map entry replaces the fallback rather than extending it
    assert not domain_matches_service("shopzilla.com", "shopzilla", org)


def test_asn_own_org(tmp_path):
    path = tmp_path / "org.csv"
    path.write_text(
        "service_name,accepted_domains,accepted_asn_org_substrings\n"
        "wishmart,wishmart.com,wishmart networks\n")
    org = ServiceOrgMap.load(path)
    assert asn_is_own_org("WISHMART NETWORKS INC", "wishmart", org)
    assert not asn_is_own_org("SENDGRID", "wishmart", org)
    assert not asn_is_own_org(None, "wishmart", org)
    assert not asn_is_own_org("WISHMART NETWORKS INC", "wishmart", NO_MAP)


# ------------------------------------------------------------------ taxonomy

def test_unmatched_is_utp_uuss():
    label = classify_provenance(record(alias=UNMATCHED), org_map=NO_MAP)
    assert (label.provenance, label.spam) == ("utp", "uuss")


def test_domain_mismatch_is_utp_even_when_authenticated():
    label = classify_provenance(record(domain="bulkblast.biz"), org_map=NO_MAP)
    assert (label.provenance, label.spam) == ("utp", "uuss")


def test_own_asn_is_internal_suppresses_sos_for_alerts():
    asn = AsnRecord(64496, "SHOPZILLA BACKBONE")
    org = ServiceOrgMap(domains={"shopzilla": {"shopzilla.com"}},
                        org_substrings={"shopzilla": ["shopzilla backbone"]})
    label = classify_provenance(record(), asn=asn, org_map=org,
                                content_label="alert")
    assert (label.provenance, label.spam) == ("internal", "not_spam")
    label = classify_provenance(record(), asn=asn, org_map=org,
                                content_label="promotional")
    assert (label.provenance, label.spam) == ("internal", "sos")


def test_auth_pass_third_party_is_atp():
    asn = AsnRecord(11377, "SENDGRID")
    label = classify_provenance(record(), asn=asn, org_map=NO_MAP,
                                marketing_flag=True,
                                content_label="promotional")
    assert (label.provenance, label.spam) == ("atp", "sos")
    assert "operator_unknown" not in label.flags


def test_cloud_atp_gets_operator_unknown():
    asn = AsnRecord(16509, "AMAZON-02")
    label = classify_provenance(record(), asn=asn, org_map=NO_MAP,
                                cloud_flag=True,
                                content_label="crm")
    assert label.provenance == "atp"
    assert "operator_unknown" in label.flags


def test_auth_fail_matched_domain_is_utp():
    label = classify_provenance(record(spf="none", dkim="none"), org_map=NO_MAP)
    assert (label.provenance, label.spam) == ("utp", "uuss")


def test_double_fail_flags_needs_review():
    label = classify_provenance(record(spf="fail", dkim="fail"), org_map=NO_MAP)
    assert label.spam == "uuss"
    assert "needs_review" in label.flags


def test_internal_double_fail_is_uuss():
    asn = AsnRecord(64496, "SHOPZILLA BACKBONE")
    org = ServiceOrgMap(domains={"shopzilla": {"shopzilla.com"}},
                        org_substrings={"shopzilla": ["shopzilla backbone"]})
    label = classify_provenance(record(spf="fail", dkim="fail"), asn=asn,
                                org_map=org, content_label="promotional")
    assert label.provenance == "internal"
    assert label.spam == "uuss"


def test_alert_content_is_never_sos():
    label = classify_provenance(record(), org_map=NO_MAP,
                                content_label="alert")
    assert label.spam == "not_spam"


def test_provenance_label_validation():
    with pytest.raises(ValueError):
        ProvenanceLabel(provenance="martian", spam="sos")
    with pytest.raises(ValueError):
        ProvenanceLabel(provenance="atp", spam="maybe")


VERDICTS = st.sampled_from(["pass", "fail", "none", "absent"])


@given(spf=VERDICTS, dkim=VERDICTS,
       matched=st.booleans(), unmatched_alias=st.booleans(),
       own=st.booleans(), cloud=st.booleans(), marketing=st.booleans(),
       content=st.sampled_from(["promotional", "crm", "alert", None]))
def test_taxonomy_totality(spf, dkim, matched, unmatched_alias, own, cloud,
                           marketing, content):
    rec = record(alias=UNMATCHED if unmatched_alias else ALIAS,
                 domain="shopzilla.com" if matched else "other.biz",
                 spf=spf, dkim=dkim)
    asn = AsnRecord(64496, "SHOPZILLA BACKBONE" if own else "SENDGRID")
    org = ServiceOrgMap(domains={"shopzilla": {"shopzilla.com"}},
                        org_substrings={"shopzilla": ["shopzilla backbone"]})
    label = classify_provenance(rec, asn=asn, marketing_flag=marketing,
                                org_map=org, cloud_flag=cloud,
                                content_label=content)
    assert label.provenance in ("internal", "atp", "utp")
    assert label.spam in ("sos", "uuss", "not_spam")
    verdict = AuthVerdict(spf=spf, dkim=dkim)
    # uuss exactly on unknown/unauthorized or hard double failure
    assert (label.spam == "uuss") == (label.provenance == "utp"
                                      or verdict.double_fail)
    if label.spam == "sos":
        assert label.provenance in ("internal", "atp")
        assert verdict.passes
        assert content in ("promotional", "crm")
