"""Corpus store: deterministic ingestion of an EML directory plus JSONL I/O."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from ..formats import read_jsonl, write_jsonl
from .aliases import AliasRegistry
from .eml import PARSE_OK, PARSE_UNPARSEABLE, UNMATCHED, EmailRecord, parse_eml

log = logging.getLogger(__name__)

_EPOCH = datetime.fromtimestamp(0, tz=timezone.utc)


@dataclass
class IngestReport:
    files: int = 0
    ok: int = 0
    unparseable: int = 0
    unmatched: int = 0
    duplicates: int = 0


@dataclass
class CorpusStore:
    records: list[EmailRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Iterable[EmailRecord]) -> "CorpusStore":
        return cls(records=sorted(records, key=_sort_key))

    def __len__(self) -> int:
        return len(self.records)

    def ok_records(self) -> list[EmailRecord]:
        return [r for r in self.records if r.parse_status == PARSE_OK]


def _sort_key(rec: EmailRecord) -> tuple[datetime, str]:
    return (rec.received_utc or _EPOCH, rec.message_id)


def ingest_corpus(directory: str | Path,
                  registry: AliasRegistry, *,
                  trusted_mx: str) -> tuple[CorpusStore, IngestReport]:
    """Parse every *.eml under ``directory`` and bind records to the registry.

    Deterministic regardless of filesystem order: files are visited
    sorted, duplicates resolve first-writer-wins on message_id, and the
    final store is sorted by (received_utc, message_id).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise OSError(f"not a readable directory: {directory}")

    report = IngestReport()
    seen: dict[str, EmailRecord] = {}
    for path in sorted(directory.rglob("*.eml")):
        report.files += 1
        raw = path.read_bytes()
        rec = parse_eml(raw, registry=registry, trusted_mx=trusted_mx)
        if rec.message_id in seen:
            report.duplicates += 1
            continue
        seen[rec.message_id] = rec
        if rec.parse_status == PARSE_UNPARSEABLE:
            report.unparseable += 1
        else:
            report.ok += 1
            # unparseable records have no recipient to match, so the
            # unmatched count covers parsed mail only
            if rec.alias == UNMATCHED:
                report.unmatched += 1

    if report.files == 0:
        log.warning("no .eml files under %s", directory)
    store = CorpusStore.from_records(seen.values())
    return store, report


def write_corpus_jsonl(store: CorpusStore, path: str | Path) -> None:
    write_jsonl(path, store.records)


def read_corpus_jsonl(path: str | Path) -> CorpusStore:
    return CorpusStore.from_records(read_jsonl(
        path, "corpus", EmailRecord.from_dict, unique="message_id"))
