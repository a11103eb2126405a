"""Corpus store: ingest bookkeeping, dedupe, serialization round-trips."""

from collections import Counter
from datetime import datetime, timezone

import pytest
from gen import TRUSTED_MX, render_eml

from inboxaudit.corpus.aliases import load_alias_registry
from inboxaudit.corpus.eml import UNMATCHED
from inboxaudit.corpus.store import (CorpusStore, ingest_corpus,
                                     read_corpus_jsonl, write_corpus_jsonl)


def test_ingest_counts_on_synthetic_corpus(synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    store, report = ingest_corpus(synth_corpus.eml_dir, registry,
                                  trusted_mx=TRUSTED_MX)
    expected = synth_corpus.expected
    assert report.files == expected["files"]
    assert report.unparseable == expected["unparseable"]
    assert report.unmatched == expected["unmatched_ok"]
    assert report.duplicates == expected["duplicates"]
    assert report.ok == report.files - report.unparseable - report.duplicates

    # per-service bookkeeping matches the generator, bulk mail included
    per_service = Counter(r.service_name for r in store.records)
    for service, sent in expected["per_service"].items():
        got = per_service[service]
        if service == "craftyard":
            assert got == sent + expected["bulk_to_craftyard"]
        else:
            assert got == sent

    # silent services exist in the registry but own no mail
    assert "dormantshop" not in per_service
    assert len(store) == report.ok + report.unparseable


def test_store_partition_and_order(synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    store, _ = ingest_corpus(synth_corpus.eml_dir, registry,
                             trusted_mx=TRUSTED_MX)
    stamps = [r.received_utc for r in store.records if r.received_utc]
    assert stamps == sorted(stamps)
    assert UNMATCHED in {r.service_name for r in store.records}


def test_ingest_missing_directory(tmp_path, synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    with pytest.raises(OSError):
        ingest_corpus(tmp_path / "nope", registry, trusted_mx=TRUSTED_MX)


def test_ingest_empty_directory_warns(tmp_path, synth_corpus, caplog):
    registry = load_alias_registry(synth_corpus.registry_path)
    with caplog.at_level("WARNING"):
        store, report = ingest_corpus(tmp_path, registry,
                                      trusted_mx=TRUSTED_MX)
    assert report.files == 0 and len(store) == 0
    assert any("no .eml" in m for m in caplog.messages)


def test_duplicate_message_id_first_wins(tmp_path, synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    common = dict(to_addr="maple000@audit.example",
                  from_addr="a@shopzilla.com",
                  message_id="dup@x", sender_ip="167.89.1.1",
                  sender_host="out.shopzilla.com", spf="pass", dkim="pass")
    first = render_eml(date=datetime(2024, 1, 1, tzinfo=timezone.utc),
                       subject="first copy", body="b", **common)
    second = render_eml(date=datetime(2024, 1, 2, tzinfo=timezone.utc),
                        subject="second copy", body="b", **common)
    (tmp_path / "a.eml").write_bytes(first)
    (tmp_path / "b.eml").write_bytes(second)
    store, report = ingest_corpus(tmp_path, registry, trusted_mx=TRUSTED_MX)
    assert report.duplicates == 1
    assert len(store) == 1
    assert store.records[0].subject == "first copy"


def test_jsonl_round_trip(tmp_path, synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    store, _ = ingest_corpus(synth_corpus.eml_dir, registry,
                             trusted_mx=TRUSTED_MX)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(store, path)
    again = read_corpus_jsonl(path)
    assert len(again) == len(store)
    assert again.records == store.records


def test_jsonl_write_is_deterministic(tmp_path, synth_corpus):
    registry = load_alias_registry(synth_corpus.registry_path)
    store, _ = ingest_corpus(synth_corpus.eml_dir, registry,
                             trusted_mx=TRUSTED_MX)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus_jsonl(store, p1)
    write_corpus_jsonl(CorpusStore.from_records(list(reversed(store.records))),
                       p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_corpus_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"not": "a record"}\n')
    with pytest.raises(ValueError) as err:
        read_corpus_jsonl(path)
    assert ":1:" in str(err.value)
