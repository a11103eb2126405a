"""In-process scripted classifier endpoint for the llm_classify workload.

It stands in for ``requests.Session``: ``post`` sleeps a fixed latency,
then answers from the generator's script. The email text of every prompt
ends in a ``Ref: <token>`` line, and the token's reply class decides the
answer, so each message's outcome is the same whatever order the
adapter's thread pool sends requests in.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass

REPROMPT_SUFFIX = "Respond with JSON only."
_REF_RE = re.compile(r"\nRef: (\S+)")
_SENTIMENT = {"promotional": "promotional", "crm": "CRM", "alert": "alert"}


@dataclass
class Response:
    status_code: int
    text: str


@dataclass(frozen=True)
class Outcome:
    """What the adapter must report for a message of a reply class."""
    source: str
    retries: int
    fallback: bool


EXPECTED = {
    "valid": Outcome("external", 0, False),
    "prose": Outcome("external", 0, False),
    "malformed": Outcome("external", 1, False),     # one re-prompt
    "transient": Outcome("external", 1, False),     # one transport retry
    "dead_http": Outcome("rules", 0, True),         # every attempt fails
    "dead_protocol": Outcome("rules", 0, True),     # re-prompt fails too
}


class ScriptedSession:
    """Thread-safe fake session; counts requests and time spent waiting."""

    def __init__(self, script: dict[str, tuple[str, str, int]],
                 latency_s: float):
        self._script = script
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._attempts: dict[str, int] = {}
            self.requests = 0
            self.reprompts = 0
            self.http_errors = 0
            self.wait_s = 0.0
            self.prompts: set[str] = set()

    def post(self, url: str, json: dict | None = None, timeout=None) -> Response:
        prompt = json["prompt"]
        with self._lock:
            attempt = self._attempts.get(prompt, 0)
            self._attempts[prompt] = attempt + 1
            self.requests += 1
            self.prompts.add(prompt)
            reprompt = prompt.endswith(REPROMPT_SUFFIX)
            self.reprompts += reprompt
        start = time.perf_counter()
        time.sleep(self._latency_s)
        waited = time.perf_counter() - start
        response = self._reply(prompt, attempt, reprompt)
        with self._lock:
            self.wait_s += waited
            self.http_errors += response.status_code != 200
        return response

    def _reply(self, prompt: str, attempt: int, reprompt: bool) -> Response:
        m = _REF_RE.search(prompt)
        if m is None or m.group(1) not in self._script:
            return Response(400, "unknown prompt")
        reply, kind, confidence = self._script[m.group(1)]
        body = json.dumps({"sentiment": _SENTIMENT[kind],
                           "confidence": confidence,
                           "rationale": f"scripted {reply} reply"})
        if reply == "valid":
            return Response(200, body)
        if reply == "prose":
            return Response(200, f"Sure! Here is the classification:\n{body}\n"
                                 "Let me know if you need anything else.")
        if reply == "malformed":
            return Response(200, body if reprompt else
                            f"I think this email is {kind}.")
        if reply == "transient":
            return Response(503, "busy") if attempt == 0 else Response(200, body)
        if reply == "dead_http":
            return Response(503, "busy")
        return Response(200, '{"sentiment": "unsure"} {"sentiment": "maybe"}')


def llm_failures(messages, script: dict[str, tuple[str, str, int]],
                 results: dict) -> int:
    """Messages whose label, source, retries or fallback flag break the script."""
    failed = 0
    for m in messages:
        cls = results.get(m.message_id)
        reply, kind, confidence = script[m.script]
        want = EXPECTED[reply]
        ok = (cls is not None and cls.label == kind
              and cls.source == want.source and cls.retries == want.retries
              and ("adapter_fallback" in cls.flags) == want.fallback
              and (want.fallback or cls.confidence == confidence))
        failed += not ok
    return failed
