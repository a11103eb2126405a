"""Rule-based content classification."""

import json
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inboxaudit.classify import rules
from inboxaudit.classify.rules import (LABELS, RuleTable, classify_rule_based,
                                       classify_text, default_rule_table)


@pytest.fixture(scope="module")
def table():
    return default_rule_table()


def test_promotional_subject(table):
    cls = classify_text("Flash sale: 40% off everything",
                        "Shop now: https://x.com/deals", table)
    assert cls.label == "promotional"
    assert cls.source == "rules"
    assert 1 <= cls.confidence <= 5


def test_alert_subject(table):
    cls = classify_text("Your verification code is 482913", "", table)
    assert cls.label == "alert"


def test_crm_subject(table):
    cls = classify_text("Here's what's new in your community this week",
                        "A roundup of stories from the community.", table)
    assert cls.label == "crm"


def test_empty_text_low_signal(table):
    cls = classify_text("", "", table)
    assert cls.label == "crm"
    assert cls.confidence == 1
    assert "low_signal" in cls.flags


def test_no_hits_low_signal(table):
    cls = classify_text("xyzzy", "plugh", table)
    assert cls.label == "crm"
    assert cls.confidence == 1
    assert "low_signal" in cls.flags


def test_alert_outranks_promo_on_tie():
    table = RuleTable.from_json({
        "version": 1,
        "subject_multiplier": 1.0,
        "link_bonus": 0.0,
        "classes": {
            "promotional": {"tokens": {"deal": 2.0}},
            "alert": {"tokens": {"receipt": 2.0}},
            "crm": {"tokens": {"digest": 1.0}},
        },
    })
    cls = classify_text("deal receipt", "", table)
    assert cls.label == "alert"
    assert "tie" in cls.rationale


def test_subject_weighting_beats_body(table):
    in_subject = classify_text("Flash sale today", "nothing here", table)
    in_body = classify_text("nothing here", "Flash sale today", table)
    assert in_subject.label == in_body.label == "promotional"
    assert in_subject.confidence >= in_body.confidence


def test_confidence_monotone_in_margin(table):
    weak = classify_text("sale", "", table)
    strong = classify_text("Flash sale: 70% off clearance sale deal",
                           "sale sale https://x.com", table)
    assert strong.label == weak.label == "promotional"
    assert strong.confidence >= weak.confidence


def test_word_boundaries(table):
    # "sale" must not fire inside "wholesaler"
    cls = classify_text("wholesaler catalog", "", table)
    assert cls.label == "crm"
    assert "low_signal" in cls.flags


def test_determinism(table):
    a = classify_text("Order #1234 has shipped", "track it", table)
    b = classify_text("Order #1234 has shipped", "track it", table)
    assert a == b


def test_classify_record_rejects_unparseable(table, synth_corpus):
    from inboxaudit.corpus.eml import EmailRecord
    rec = EmailRecord(message_id="x", alias="UNMATCHED", from_address="",
                      from_root_domain="", received_utc=None,
                      sender_ip="UNKNOWN", spf="absent", dkim="absent",
                      subject="", body_text="",
                      parse_status="unparseable")
    with pytest.raises(ValueError):
        classify_rule_based(rec, table)


def test_rationale_names_hits(table):
    cls = classify_text("Your verification code is 482913", "", table)
    assert "verification" in cls.rationale.lower()


def test_rule_table_rejects_bad_label():
    with pytest.raises(ValueError):
        RuleTable.from_json({"version": 1, "subject_multiplier": 1.0,
                             "link_bonus": 0.0,
                             "classes": {"spam": {"tokens": {}}}})


def _oracle_score(label, subject, body, table):
    """_score as it was before gating: every rule's regex runs on both texts."""
    total = 0.0
    hits = []
    for token, pattern, weight, _gate in table.rules[label]:
        n_subject = len(pattern.findall(subject))
        n_body = len(pattern.findall(body))
        if n_subject or n_body:
            total += weight * (n_subject * table.subject_multiplier + n_body)
            hits.append(token)
    return total, hits


# every spelling re.IGNORECASE accepts for these letters, non-ASCII ones too
_SPELLINGS = {"i": "iI\u0131\u0130", "k": "kK\u212a", "s": "sS\u017f"}
_GAPS = (" ", "\t", "\n", " \t\n ")


def _spelled(token):
    chars = [st.sampled_from(_GAPS) if ch == " "
             else st.sampled_from(_SPELLINGS.get(ch.lower(),
                                                 ch.lower() + ch.upper()))
             for ch in token]
    return st.tuples(*chars).map("".join)


_TOKENS = sorted(rule[0] for rule_list in default_rule_table().rules.values()
                 for rule in rule_list if rule[3] is not None)
_FILLERS = st.one_of(
    st.sampled_from(["", " ", ".", ", ", "!", "-", "'", "\n", "\t", "%",
                     "$", "#", "40", "7 ", "% off", "$15 off", "up to 30%",
                     "code is 482913", "Order #88", "https://x.com/a"]),
    st.text(alphabet="abeikos0123456789 %$#.,!'-\t\n\u0130\u0131\u017f\u212a",
            max_size=8))
_TEXTS = st.lists(st.one_of(st.sampled_from(_TOKENS).flatmap(_spelled),
                            _FILLERS), max_size=10).map("".join)


@settings(max_examples=400)
@given(subject=_TEXTS, body=_TEXTS)
@example(subject="\u017fale", body="")
@example(subject="", body="Ver\u0130fy your pa\u017f\u017fword")
@example(subject="\u212aeep \u0131t", body="promo\t\ncode: 20% off")
def test_gated_score_matches_ungated_oracle(subject, body):
    table = default_rule_table()
    folded = rules._fold(subject + "\n" + body)
    for label in LABELS:
        assert (rules._score(label, subject, body, folded, table)
                == _oracle_score(label, subject, body, table))
    with mock.patch.object(
            rules, "_score",
            lambda label, s, b, _folded, t: _oracle_score(label, s, b, t)):
        expected = classify_text(subject, body, table)
    assert classify_text(subject, body, table) == expected


def test_fold_covers_every_ignorecase_match_of_ascii():
    # gates are sound only if every non-ASCII code point that an
    # IGNORECASE regex equates with an ASCII character folds to it;
    # checked against this interpreter's own Unicode tables
    text = "".join(map(chr, range(128, sys.maxunicode + 1)))
    matched = {}
    for code in range(128):
        pattern = re.compile(re.escape(chr(code)), re.IGNORECASE)
        for ch in pattern.findall(text):
            matched[ch] = chr(code).lower()
    assert set(matched) == {"\u0130", "\u0131", "\u017f", "\u212a"}
    assert {ch: rules._fold(ch) for ch in matched} == matched


@pytest.mark.parametrize("spelling", ["a\u017fK", "a\u017f\u212a"])
def test_custom_table_gets_gates(tmp_path, spelling):
    path = tmp_path / "rule_table.json"
    path.write_text(json.dumps({
        "version": 2,
        "subject_multiplier": 1.0,
        "link_bonus": 0.0,
        "classes": {
            "promotional": {"tokens": {"caf\u00e9": 2.0}},
            "alert": {"tokens": {"ask": 3.0, "Reset Now": 1.0}},
            "crm": {"patterns": [{"pattern": r"\bhi\b", "weight": 1.0}]},
        },
    }), encoding="utf-8")
    table = RuleTable.load(path)
    gates = {rule[0]: rule[3]
             for rule_list in table.rules.values() for rule in rule_list}
    # non-ASCII tokens and free-form patterns always run
    assert gates == {"caf\u00e9": None, "ask": "ask", "Reset Now": "reset",
                     r"\bhi\b": None}

    # the only occurrence of "ask" is spelled with non-ASCII letters
    cls = classify_text(f"please {spelling} us", "", table)
    assert (cls.label, cls.rationale) == ("alert", "matched alert cues: ask")
    assert classify_text("RESET\tnow", "", table).label == "alert"
    assert classify_text("CAF\u00c9", "", table).label == "promotional"
    assert "low_signal" in classify_text("basket", "", table).flags


def test_classification_is_frozen(table):
    import dataclasses
    cls = classify_text("Flash sale", "", table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.label = "alert"


def test_classify_records_rules_once_per_text(synth_run, monkeypatch):
    from inboxaudit.classify import adapter
    from inboxaudit.corpus.store import read_corpus_jsonl
    from inboxaudit.pipeline import CORPUS_FILE
    _cfg, out, _report = synth_run
    records = read_corpus_jsonl(out / CORPUS_FILE).records
    ok = [r for r in records if r.parse_status == "ok"]
    texts = {(r.subject, r.body_text) for r in ok}
    assert len(texts) < len(ok)  # the corpus repeats templated mail
    calls = []

    def counting(record, table=None):
        calls.append(record.message_id)
        return classify_rule_based(record, table)

    monkeypatch.setattr(adapter, "classify_rule_based", counting)
    results = adapter.classify_records(records, "rules")
    assert len(calls) == len(texts)
    assert results == {r.message_id: classify_rule_based(r) for r in ok}
