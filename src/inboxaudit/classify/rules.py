"""Deterministic rule-based content classifier.

Weighted token/pattern scores per class, subject hits counted double,
call-to-action links nudging the promotional score. The token table
ships as a versioned data file so classification changes are diffable.
Exact score ties resolve by fixed priority alert > promotional > crm.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

PROMOTIONAL = "promotional"
CRM = "crm"
ALERT = "alert"
LABELS = (PROMOTIONAL, CRM, ALERT)

SOURCE_RULES = "rules"
SOURCE_EXTERNAL = "external"

# tie resolution order, strongest claim first
_PRIORITY = (ALERT, PROMOTIONAL, CRM)

_LINK_RE = re.compile(r"https?://", re.IGNORECASE)
# The only non-ASCII code points re.IGNORECASE matches to an ASCII letter
# are these three and the Kelvin sign, which lower() already maps to "k".
# Mapped before lower(), since "İ".lower() is two code points.
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s"})
# margin thresholds for confidence 2..5; any hit at all clears 1
_CONFIDENCE_STEPS = (1.0, 3.0, 6.0, 10.0)


@dataclass(frozen=True)
class Classification:
    label: str
    confidence: int
    rationale: str
    source: str = SOURCE_RULES
    retries: int = 0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"bad label: {self.label!r}")
        # type(), not isinstance: a bool is an int
        if type(self.confidence) is not int or not 1 <= self.confidence <= 5:
            raise ValueError(f"confidence must be an int 1-5: {self.confidence!r}")
        if self.source not in (SOURCE_RULES, SOURCE_EXTERNAL):
            raise ValueError(f"bad source: {self.source!r}")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError(f"retries must be an int >= 0: {self.retries!r}")

    @classmethod
    def from_dict(cls, entry: dict) -> "Classification":
        """A record as JSON encodes it; ``retries`` and ``flags`` may be
        missing, and an unknown key raises, as does a ``flags`` that is
        not a list of strings."""
        flags = entry.get("flags", [])
        if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
            raise ValueError(f"flags must be a list of strings: {flags!r}")
        return cls(**{**entry, "flags": tuple(flags)})


Rule = tuple[str, re.Pattern, float, str | None]


def _gate(token: str) -> str | None:
    """The token's first word, lowercased; None for a non-ASCII token."""
    words = token.split()
    if not words or not token.isascii():
        return None
    return words[0].lower()


def _fold(text: str) -> str:
    """Lowercased text in which every ASCII word a token regex matches
    (case-insensitively) occurs verbatim, so gates are plain substrings."""
    if not text.isascii():
        text = text.translate(_FOLD)
    return text.lower()


@dataclass
class RuleTable:
    version: int
    subject_multiplier: float
    link_bonus: float
    # class → list of (display_token, compiled_regex, weight, gate); the
    # regex can match only where its gate is a substring of the folded
    # text (see _fold), and a rule with gate None always runs
    rules: dict[str, list[Rule]] = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "RuleTable":
        rules: dict[str, list[Rule]] = {}
        for label, spec in data["classes"].items():
            if label not in LABELS:
                raise ValueError(f"rule table has unknown class {label!r}")
            compiled: list[Rule] = []
            for token, weight in spec.get("tokens", {}).items():
                pattern = re.compile(
                    r"\b" + re.escape(token).replace(r"\ ", r"\s+") + r"\b",
                    re.IGNORECASE)
                compiled.append((token, pattern, float(weight), _gate(token)))
            for entry in spec.get("patterns", []):
                pattern = re.compile(entry["pattern"], re.IGNORECASE)
                compiled.append(
                    (entry["pattern"], pattern, float(entry["weight"]), None))
            rules[label] = compiled
        for label in LABELS:
            rules.setdefault(label, [])
        return cls(
            version=int(data.get("version", 0)),
            subject_multiplier=float(data.get("subject_multiplier", 2.0)),
            link_bonus=float(data.get("link_bonus", 0.0)),
            rules=rules,
        )

    @classmethod
    def load(cls, path: str | Path) -> "RuleTable":
        """A custom table; any malformed content is a ValueError naming
        ``path``."""
        try:
            return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
        except (KeyError, TypeError, AttributeError, re.error,
                ValueError) as exc:
            raise ValueError(f"{path}: bad rule table "
                             f"({type(exc).__name__}: {exc})") from exc


@lru_cache(maxsize=1)
def default_rule_table() -> RuleTable:
    text = resources.files("inboxaudit").joinpath(
        "data/rule_table.json").read_text(encoding="utf-8")
    return RuleTable.from_json(json.loads(text))


def _score(label: str, subject: str, body: str, folded: str,
           table: RuleTable) -> tuple[float, list[str]]:
    total = 0.0
    hits: list[str] = []
    for token, pattern, weight, gate in table.rules[label]:
        if gate is not None and gate not in folded:
            continue
        n_subject = len(pattern.findall(subject))
        n_body = len(pattern.findall(body))
        if n_subject or n_body:
            total += weight * (n_subject * table.subject_multiplier + n_body)
            hits.append(token)
    return total, hits


def classify_text(subject: str, body: str,
                  table: RuleTable | None = None) -> Classification:
    """Pure rule classification of (subject, body)."""
    table = table or default_rule_table()
    subject = subject or ""
    body = body or ""
    if not subject.strip() and not body.strip():
        return Classification(label=CRM, confidence=1,
                              rationale="no text content; weakest prior",
                              flags=("low_signal",))

    folded = _fold(subject + "\n" + body)
    scores: dict[str, float] = {}
    hits: dict[str, list[str]] = {}
    for label in LABELS:
        scores[label], hits[label] = _score(label, subject, body, folded, table)
    if scores[PROMOTIONAL] > 0 and _LINK_RE.search(body):
        scores[PROMOTIONAL] += table.link_bonus
        hits[PROMOTIONAL].append("call-to-action link")

    best = max(scores.values())
    tied = [label for label in _PRIORITY if scores[label] == best]
    label = tied[0]

    if best == 0.0:
        return Classification(label=CRM, confidence=1,
                              rationale="no rule hits; default prior",
                              flags=("low_signal",))

    margin = best - max(scores[l] for l in LABELS if l != label)
    confidence = 1 + sum(margin >= step for step in _CONFIDENCE_STEPS)
    rationale = f"matched {label} cues: " + ", ".join(sorted(hits[label])[:5])
    if len(tied) > 1:
        rationale += " (tie broken by class priority)"
    return Classification(label=label, confidence=confidence, rationale=rationale)


def classify_rule_based(record, table: RuleTable | None = None) -> Classification:
    """Rule classification of a parsed record; requires parse_status=ok."""
    if record.parse_status != "ok":
        raise ValueError("cannot classify an unparseable record")
    return classify_text(record.subject, record.body_text, table)
