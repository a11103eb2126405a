"""External classifier adapter speaking the structured-output protocol.

The request carries a fixed prompt template (schema + email text slots)
and demands strict JSON back. Responses are validated hard; one
automatic re-prompt appends "Respond with JSON only", after which the
record falls back to the rule engine with a flag. The adapter is
optional: nothing in the acceptance path requires a live endpoint.

``classify_records`` classifies each distinct (subject, body) pair of a
run once, in rules and external mode alike, so a templated message
repeated across an inbox costs one request; its copies share the whole
result, and a fallback warning names the first message of the text.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..config import AdapterConfig
from .rules import (
    ALERT,
    CRM,
    PROMOTIONAL,
    SOURCE_EXTERNAL,
    Classification,
    RuleTable,
    classify_rule_based,
)

log = logging.getLogger(__name__)

PROTOCOL_TEMPLATE = """
You are an email classifier system. Your task is to classify the following email message as either promotional, CRM, or alert. Respond only with the JSON formatted classification based on the provided schema below, containing only the classification results and not the schema itself. Do NOT output the schema or any definitions-only provide the classification response.

Here is the JSON schema of the response you must strictly follow:

{schema}

Here are the classification definitions (these are for your reference only, do not include them in the output):

promotional: Emails offering price discounts intended to induce short-term actions such as purchasing. These are overt selling attempts with a call to action.

CRM: Emails that engage, inform, or enhance the company's relationship with the customer. These emails are not overtly sales-focused but aim for longer-term goals, like brand building or engagement.

alert: Emails containing various notifications, updates, or alerts based on consumer preferences. These are informational and do not directly attempt to sell.

Classify the following email strictly based on these definitions:

Email:
{input}
"""

RESPONSE_SCHEMA = {
    "type": "object",
    "properties": {
        "sentiment": {"type": "string", "enum": ["promotional", "CRM", "alert"]},
        "confidence": {
            "type": "integer",
            "description": ("describes how confident the classification is, "
                            "the higher the number the more confident in the "
                            "classification"),
            "enum": [1, 2, 3, 4, 5],
        },
        "rationale": {
            "type": "string",
            "description": ("The primary driver of the classification based "
                            "on the definitions"),
        },
    },
    "required": ["sentiment", "confidence", "rationale"],
}

_SCHEMA_TEXT = json.dumps(RESPONSE_SCHEMA, indent=2)

_SENTIMENT_TO_LABEL = {"promotional": PROMOTIONAL, "crm": CRM, "alert": ALERT}


class AdapterTransportError(RuntimeError):
    """Endpoint unreachable or persistently timing out."""


class AdapterProtocolError(RuntimeError):
    """Endpoint reachable but responses never conformed to the schema."""


def build_prompt(subject: str, body: str) -> str:
    email_text = f"Subject: {subject}\n\n{body}".strip()
    return PROTOCOL_TEMPLATE.format(
        schema=_SCHEMA_TEXT, input=email_text)


def extract_json_objects(text: str) -> list[dict]:
    """All decodable top-level JSON objects embedded in ``text``, in order."""
    decoder = json.JSONDecoder()
    objects: list[dict] = []
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            break
        try:
            obj, end = decoder.raw_decode(text, start)
        except json.JSONDecodeError:
            pos = start + 1
            continue
        if isinstance(obj, dict):
            objects.append(obj)
        pos = end
    return objects


def parse_adapter_response(text: str) -> tuple[str, int, str]:
    """Validate a response body; returns (label, confidence, rationale).

    Accepts a bare JSON object or prose containing exactly one
    recoverable classification object; anything else raises.
    """
    candidates = [o for o in extract_json_objects(text) if "sentiment" in o]
    if len(candidates) != 1:
        raise AdapterProtocolError(
            f"expected exactly one classification object, found {len(candidates)}")
    obj = candidates[0]
    sentiment = obj.get("sentiment")
    if not isinstance(sentiment, str) or sentiment.lower() not in _SENTIMENT_TO_LABEL:
        raise AdapterProtocolError(f"bad sentiment: {sentiment!r}")
    confidence = obj.get("confidence")
    if not isinstance(confidence, int) or isinstance(confidence, bool) \
            or confidence not in (1, 2, 3, 4, 5):
        raise AdapterProtocolError(f"bad confidence: {confidence!r}")
    rationale = obj.get("rationale")
    if not isinstance(rationale, str):
        raise AdapterProtocolError(f"bad rationale: {rationale!r}")
    return _SENTIMENT_TO_LABEL[sentiment.lower()], confidence, rationale


def _default_session():
    """A keep-alive ``requests.Session``; the HTTP client stack is
    imported here, on first use, so rules mode and callers that bring
    their own session never load it."""
    import requests
    return requests.Session()


def _post_once(session, cfg: AdapterConfig, prompt: str) -> str:
    payload = {"model": cfg.model, "prompt": prompt, "schema": RESPONSE_SCHEMA}
    try:
        response = session.post(cfg.endpoint, json=payload, timeout=cfg.timeout_s)
    except OSError as exc:  # requests.RequestException is an OSError
        raise AdapterTransportError(str(exc)) from exc
    status = getattr(response, "status_code", 0)
    if status != 200:
        raise AdapterTransportError(f"endpoint returned HTTP {status}")
    return response.text


def _post_with_retries(session, cfg: AdapterConfig, prompt: str) -> tuple[str, int]:
    """The reply and the retries it took, or the last transport error;
    `AuditConfig.validate` keeps ``retries`` >= 0, so one attempt runs."""
    for attempt in range(cfg.retries + 1):
        try:
            return _post_once(session, cfg, prompt), attempt
        except AdapterTransportError as exc:
            last_error = exc
    raise last_error


def classify_external(record, cfg: AdapterConfig, session=None) -> Classification:
    """Classify one record through the endpoint; raises on failure."""
    if record.parse_status != "ok":
        raise ValueError("cannot classify an unparseable record")
    if session is None:
        session = _default_session()
    prompt = build_prompt(record.subject, record.body_text)
    text, retries = _post_with_retries(session, cfg, prompt)
    try:
        label, confidence, rationale = parse_adapter_response(text)
    except AdapterProtocolError:
        # one corrective re-prompt, then give up
        text, extra = _post_with_retries(
            session, cfg, prompt + "\n\nRespond with JSON only.")
        retries += 1 + extra
        label, confidence, rationale = parse_adapter_response(text)
    return Classification(label=label, confidence=confidence, rationale=rationale,
                          source=SOURCE_EXTERNAL, retries=retries)


def classify_with_fallback(record, cfg: AdapterConfig,
                           table: RuleTable | None = None,
                           session=None) -> Classification:
    """External classification, falling back to rules on any adapter failure."""
    try:
        return classify_external(record, cfg, session=session)
    except (AdapterTransportError, AdapterProtocolError) as exc:
        log.warning("adapter fallback for %s: %s", record.message_id, exc)
        base = classify_rule_based(record, table)
        return replace(base, flags=base.flags + ("adapter_fallback",))


def classify_records(records, mode: str, cfg: AdapterConfig | None = None,
                     table: RuleTable | None = None,
                     session=None) -> dict[str, Classification]:
    """Classify every ok record; returns {message_id: Classification}.

    Records are grouped by their exact (subject, body_text) pair, and
    the first record of each group is classified once, by the rules or
    the endpoint; every message of the group maps to that one result,
    retries and flags included. External mode runs a bounded in-flight
    pool; the merge in record order keeps results deterministic
    regardless of completion order.
    """
    if mode not in ("rules", "external"):
        raise ValueError(f"unknown classifier mode: {mode!r}")
    if mode == "external" and (cfg is None or not cfg.endpoint):
        raise ValueError("external mode requires an adapter endpoint")
    ok_records = [r for r in records if r.parse_status == "ok"]
    firsts = {}  # (subject, body_text) -> first ok record with that text
    for r in ok_records:
        firsts.setdefault((r.subject, r.body_text), r)
    log.info("classifying %d messages as %d distinct texts",
             len(ok_records), len(firsts))
    if mode == "rules":
        by_text = {text: classify_rule_based(r, table)
                   for text, r in firsts.items()}
    else:
        if session is None:
            session = _default_session()
        with ThreadPoolExecutor(max_workers=cfg.pool_size) as pool:
            futures = {text: pool.submit(
                classify_with_fallback, r, cfg, table, session)
                for text, r in firsts.items()}
            by_text = {text: future.result() for text, future in futures.items()}
    return {r.message_id: by_text[(r.subject, r.body_text)] for r in ok_records}
