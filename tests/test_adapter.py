"""External classifier adapter against a local mock endpoint."""

import json
import threading
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from inboxaudit.classify.adapter import (PROTOCOL_TEMPLATE, RESPONSE_SCHEMA,
                                         AdapterProtocolError,
                                         AdapterTransportError, build_prompt,
                                         classify_external, classify_records,
                                         classify_with_fallback,
                                         extract_json_objects,
                                         parse_adapter_response)
from inboxaudit.config import AdapterConfig
from inboxaudit.corpus.aliases import AliasEntry
from inboxaudit.corpus.eml import EmailRecord

ALIAS = AliasEntry(local_part="maple007", index=7, service_name="shopzilla",
                   service_kind="online_service",
                   registration_date=date(2024, 1, 1))


def record(message_id="m1@x", subject="Flash sale: 30% off",
           body="Shop now", status="ok"):
    return EmailRecord(message_id=message_id, alias=ALIAS,
                       from_address="a@shopzilla.com",
                       from_root_domain="shopzilla.com", received_utc=None,
                       sender_ip="167.89.1.1", spf="pass", dkim="pass",
                       subject=subject,
                       body_text=body, parse_status=status)


class MockHandler(BaseHTTPRequestHandler):
    """Scripted endpoint: pops the next canned response per request."""

    script: list[tuple[int, str]] = []
    requests_seen: list[dict] = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        with self.lock:
            self.requests_seen.append(payload)
            status, body = (self.script.pop(0) if self.script
                            else (200, json.dumps(GOOD)))
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


GOOD = {"sentiment": "promotional", "confidence": 4,
        "rationale": "discount call to action"}


@pytest.fixture()
def endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    MockHandler.script = []
    MockHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/classify"
    server.shutdown()
    thread.join(timeout=5)


def cfg_for(endpoint, retries=2):
    return AdapterConfig(endpoint=endpoint, retries=retries, timeout_s=5,
                         pool_size=2)


# -------------------------------------------------------------------- prompt

def test_protocol_template_slots():
    assert "{schema}" in PROTOCOL_TEMPLATE and "{input}" in PROTOCOL_TEMPLATE
    prompt = build_prompt("Subject line", "Body text")
    assert "Subject line" in prompt and "Body text" in prompt
    assert json.dumps(RESPONSE_SCHEMA, indent=2) in prompt
    assert "{schema}" not in prompt


def test_response_schema_shape():
    props = RESPONSE_SCHEMA["properties"]
    assert set(RESPONSE_SCHEMA["required"]) == {"sentiment", "confidence",
                                                "rationale"}
    assert props["sentiment"]["enum"] == ["promotional", "CRM", "alert"]
    assert props["confidence"]["enum"] == [1, 2, 3, 4, 5]


# ------------------------------------------------------------------- parsing

def test_parse_valid_response():
    label, conf, _rationale = parse_adapter_response(json.dumps(GOOD))
    assert (label, conf) == ("promotional", 4)


def test_parse_sentiment_case_insensitive():
    text = json.dumps({"sentiment": "CRM", "confidence": 3, "rationale": "r"})
    assert parse_adapter_response(text)[0] == "crm"
    text = json.dumps({"sentiment": "Alert", "confidence": 3, "rationale": "r"})
    assert parse_adapter_response(text)[0] == "alert"


def test_parse_json_embedded_in_prose():
    text = "Sure! Here is the answer:\n" + json.dumps(GOOD) + "\nHope it helps."
    assert parse_adapter_response(text)[0] == "promotional"


def test_parse_rejects_garbage():
    for bad in ("", "no json here",
                json.dumps({"sentiment": "spam", "confidence": 3,
                            "rationale": "r"}),
                json.dumps({"sentiment": "alert", "confidence": 7,
                            "rationale": "r"}),
                json.dumps({"sentiment": "alert", "confidence": True,
                            "rationale": "r"}),
                json.dumps({"sentiment": "alert", "confidence": 3,
                            "rationale": 5}),
                json.dumps(GOOD) + json.dumps(GOOD)):
        with pytest.raises(AdapterProtocolError):
            parse_adapter_response(bad)


def test_extract_json_objects_scans():
    text = 'noise {"a": 1} and {"b": {"nested": true}} done'
    objs = extract_json_objects(text)
    assert objs == [{"a": 1}, {"b": {"nested": True}}]


# ------------------------------------------------------------------ transport

def test_external_happy_path(endpoint):
    cls = classify_external(record(), cfg_for(endpoint))
    assert cls.label == "promotional"
    assert cls.source == "external"
    assert cls.retries == 0
    sent = MockHandler.requests_seen[0]
    assert sent["model"] == "llama3.1-8b-instruct"
    assert "Flash sale" in sent["prompt"]
    assert sent["schema"] == RESPONSE_SCHEMA


def test_external_retries_on_http_error(endpoint):
    MockHandler.script = [(500, "oops"), (200, json.dumps(GOOD))]
    cls = classify_external(record(), cfg_for(endpoint))
    assert cls.label == "promotional"
    assert cls.retries == 1


def test_external_reprompts_on_protocol_error(endpoint):
    MockHandler.script = [(200, "not json"), (200, json.dumps(GOOD))]
    cls = classify_external(record(), cfg_for(endpoint))
    assert cls.label == "promotional"
    assert cls.retries == 1
    assert "Respond with JSON only." in MockHandler.requests_seen[-1]["prompt"]


def test_external_gives_up_after_reprompt(endpoint):
    MockHandler.script = [(200, "still not json"), (200, "nope")]
    with pytest.raises(AdapterProtocolError):
        classify_external(record(), cfg_for(endpoint))


def test_external_transport_exhaustion(endpoint):
    MockHandler.script = [(500, "a"), (502, "b"), (503, "c")]
    with pytest.raises(AdapterTransportError):
        classify_external(record(), cfg_for(endpoint, retries=2))


def test_external_unreachable_endpoint():
    cfg = AdapterConfig(endpoint="http://127.0.0.1:9/nope", retries=0,
                        timeout_s=0.5)
    with pytest.raises(AdapterTransportError):
        classify_external(record(), cfg)


def test_fallback_to_rules(endpoint):
    MockHandler.script = [(500, "a"), (500, "b"), (500, "c")]
    cls = classify_with_fallback(record(), cfg_for(endpoint, retries=2))
    assert cls.source == "rules"
    assert "adapter_fallback" in cls.flags
    assert cls.label == "promotional"  # the rules agree on this subject


class _RaisingSession:
    def __init__(self, exc):
        self.exc = exc
        self.posts = 0

    def post(self, url, json, timeout):
        self.posts += 1
        raise self.exc


@pytest.mark.parametrize("exc", [requests.ConnectionError("refused"),
                                 OSError("network is unreachable")],
                         ids=["requests_error", "bare_oserror"])
def test_session_transport_error_falls_back(exc):
    session = _RaisingSession(exc)
    cfg = AdapterConfig(endpoint="http://classifier.invalid/v1", retries=1)
    cls = classify_with_fallback(record(), cfg, session=session)
    assert session.posts == 2
    assert cls.source == "rules"
    assert "adapter_fallback" in cls.flags


def test_classify_records_external_mode(endpoint):
    records = [record(message_id=f"m{i}@x") for i in range(5)]
    results = classify_records(records, "external", cfg=cfg_for(endpoint))
    assert set(results) == {f"m{i}@x" for i in range(5)}
    assert all(c.source == "external" for c in results.values())


def test_classify_records_skips_unparseable(endpoint):
    records = [record(), record(message_id="bad@x", status="unparseable")]
    results = classify_records(records, "external", cfg=cfg_for(endpoint))
    assert set(results) == {"m1@x"}


def test_classify_records_requires_endpoint():
    with pytest.raises(ValueError):
        classify_records([record()], "external", cfg=AdapterConfig())
    with pytest.raises(ValueError):
        classify_records([record()], "divination")


# ------------------------------------------------------------- text grouping

ALERT_REPLY = {"sentiment": "alert", "confidence": 2,
               "rationale": "sign-in notice"}


def test_classify_records_sends_each_text_once(endpoint):
    records = ([record(message_id=f"a{i}@x") for i in range(5)]
               + [record(message_id=f"b{i}@x", subject="New sign-in",
                         body="Was this you?") for i in range(2)])
    MockHandler.script = [(200, json.dumps(GOOD)),
                          (200, json.dumps(ALERT_REPLY))]
    cfg = AdapterConfig(endpoint=endpoint, timeout_s=5, pool_size=1)
    results = classify_records(records, "external", cfg=cfg)
    assert len(MockHandler.requests_seen) == 2
    assert set(results) == {r.message_id for r in records}
    assert {results[f"a{i}@x"].label for i in range(5)} == {"promotional"}
    assert {results[f"b{i}@x"].label for i in range(2)} == {"alert"}
    assert all(results[f"b{i}@x"].confidence == 2 for i in range(2))


def test_classify_records_fallback_reaches_every_copy(endpoint):
    records = [record(message_id=f"m{i}@x") for i in range(3)]
    MockHandler.script = [(500, "a"), (500, "b"), (500, "c")]
    cfg = AdapterConfig(endpoint=endpoint, timeout_s=5, retries=2,
                        pool_size=1)
    results = classify_records(records, "external", cfg=cfg)
    assert len(MockHandler.requests_seen) == 3
    for cls in results.values():
        assert cls.source == "rules"
        assert "adapter_fallback" in cls.flags


def test_classify_records_copies_share_reprompt_retries(endpoint):
    records = [record(message_id=f"m{i}@x") for i in range(4)]
    MockHandler.script = [(200, "not json"), (200, json.dumps(GOOD))]
    cfg = AdapterConfig(endpoint=endpoint, timeout_s=5, pool_size=1)
    results = classify_records(records, "external", cfg=cfg)
    assert len(MockHandler.requests_seen) == 2
    assert all(c.retries == 1 and c.source == "external"
               for c in results.values())


def test_classify_records_unparseable_copy_left_out(endpoint):
    records = [record(message_id="bad@x", status="unparseable"), record()]
    results = classify_records(records, "external", cfg=cfg_for(endpoint))
    assert set(results) == {"m1@x"}
    assert len(MockHandler.requests_seen) == 1
    assert set(classify_records(records, "rules")) == {"m1@x"}


def test_classify_records_keys_on_raw_text_not_prompt(endpoint):
    # both strip to the same prompt, but the pair differs
    records = [record(message_id="m1@x", body="Shop now"),
               record(message_id="m2@x", body="Shop now\n")]
    assert build_prompt("Flash sale: 30% off", "Shop now") == \
        build_prompt("Flash sale: 30% off", "Shop now\n")
    classify_records(records, "external", cfg=cfg_for(endpoint))
    assert len(MockHandler.requests_seen) == 2
