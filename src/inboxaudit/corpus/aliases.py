"""Alias registry: the per-service `<name><index>@domain` assignment scheme.

Indices 000-099 are online services, 100-149 mobile apps; each audited
service gets exactly one alias, so the recipient local-part is the
provenance anchor for every message in the corpus.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Iterator

from ..formats import ascii_decimal, read_table

log = logging.getLogger(__name__)

ONLINE_SERVICE = "online_service"
MOBILE_APP = "mobile_app"

_LOCAL_RE = re.compile(r"^([a-z]+)(\d{3})$")
_MIN_INDEX, _MAX_INDEX = 0, 149
_KIND_SPLIT = 100  # 0-99 online services, 100-149 mobile apps


class RegistryIntegrityError(ValueError):
    """Registry violates an invariant (duplicate index, kind mismatch)."""


class RegistryParseError(ValueError):
    """Registry file row cannot be parsed."""


def expected_kind(index: int) -> str:
    return ONLINE_SERVICE if index < _KIND_SPLIT else MOBILE_APP


@dataclass(frozen=True)
class AliasEntry:
    local_part: str
    index: int
    service_name: str
    service_kind: str
    registration_date: date

    def __post_init__(self):
        if not (_MIN_INDEX <= self.index <= _MAX_INDEX):
            raise RegistryIntegrityError(f"index out of range: {self.index}")
        m = _LOCAL_RE.match(self.local_part)
        if not m:
            raise RegistryIntegrityError(
                f"local part {self.local_part!r} does not match <letters><3 digits>"
            )
        if int(m.group(2)) != self.index:
            raise RegistryIntegrityError(
                f"local part {self.local_part!r} encodes index {m.group(2)}, "
                f"registry says {self.index}"
            )
        if self.service_kind != expected_kind(self.index):
            raise RegistryIntegrityError(
                f"index {self.index} must be {expected_kind(self.index)}, "
                f"got {self.service_kind}"
            )

    @classmethod
    def from_dict(cls, entry: dict) -> "AliasEntry":
        """An entry as JSON encodes it. The checks of ``__post_init__`` and
        ``date.fromisoformat`` reject the other fields' wrong types."""
        if not isinstance(entry["service_name"], str) or type(entry["index"]) is not int:
            raise TypeError("alias service_name must be a string and index an integer")
        return cls(**{**entry, "registration_date":
                      date.fromisoformat(entry["registration_date"])})


def generate_alias(name_seed: str, index: int, domain: str) -> str:
    """Format the deterministic alias address for one service slot."""
    if not name_seed or not name_seed.isascii() or not name_seed.islower() \
            or not name_seed.isalpha():
        raise ValueError(f"name seed must be nonempty lowercase letters: {name_seed!r}")
    if not (_MIN_INDEX <= index <= _MAX_INDEX):
        raise ValueError(f"alias index out of range 0-149: {index}")
    return f"{name_seed}{index:03d}@{domain}"


class AliasRegistry:
    """Validated set of alias entries with local-part lookup."""

    def __init__(self, entries: Iterable[AliasEntry]):
        self.entries: list[AliasEntry] = sorted(entries, key=lambda e: e.index)
        seen_idx: dict[int, AliasEntry] = {}
        seen_local: dict[str, AliasEntry] = {}
        for e in self.entries:
            if e.index in seen_idx:
                raise RegistryIntegrityError(f"duplicate index {e.index:03d}")
            if e.local_part in seen_local:
                raise RegistryIntegrityError(f"duplicate local part {e.local_part!r}")
            seen_idx[e.index] = e
            seen_local[e.local_part] = e
        self._by_local = seen_local

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[AliasEntry]:
        return iter(self.entries)

    def match(self, local_part: str) -> AliasEntry | None:
        return self._by_local.get(local_part.lower())


_REQUIRED_COLUMNS = ("local_part", "index", "service_name", "service_kind",
                     "registration_date")


def load_alias_registry(path: str | Path) -> AliasRegistry:
    """Load the registry from a CSV table (see ``formats.read_table``)."""
    entries: list[AliasEntry] = []
    for rownum, row in read_table(path, _REQUIRED_COLUMNS,
                                  error=RegistryParseError):
        where = f"{path}: row {rownum}"
        try:
            entries.append(AliasEntry(
                local_part=row["local_part"].lower(),
                index=ascii_decimal(row["index"], "index"),
                service_name=row["service_name"],
                service_kind=row["service_kind"],
                registration_date=date.fromisoformat(row["registration_date"])))
        except RegistryIntegrityError as exc:
            raise RegistryIntegrityError(f"{where}: {exc}") from exc
        except ValueError as exc:
            raise RegistryParseError(f"{where}: {exc}") from exc
    if not entries:
        log.warning("alias registry has no rows: %s", path)
    try:
        return AliasRegistry(entries)
    except RegistryIntegrityError as exc:
        raise RegistryIntegrityError(f"{path}: {exc}") from exc
