"""Spans around the program's layer calls, and the per-layer metrics.

The tracer replaces each wrapped function at the name its caller looks it
up by (``pipeline.run_ingest``, ``corpus.store.parse_eml``,
``netintel.AsnTable.lookup``, ...) and restores the originals when
removed. Spans are kept in memory: name, start, end, parent span and
phase ("setup" or the round number). Nothing under ``src/`` changes.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.notes: dict[str, list] = {}   # values seen at span ends
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end,
                                         tracer.phase))
                if note is not None:
                    tracer.notes.setdefault(name, []).append(
                        (tracer.phase, note(args, result)))
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every (owner, attribute, span name, note) target."""
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, "phase": s.phase}) + "\n")


def span_cost_s(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    Median over batches. It leaves out the note callbacks some targets
    have, so it is a lower bound for those.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def targets() -> list[tuple[object, str, str, object]]:
    """The layer boundaries, wrapped where the pipeline calls them."""
    from inboxaudit import cluster, netintel, pipeline
    from inboxaudit.classify import adapter
    from inboxaudit.corpus import eml, store

    def status(args, rec):
        return getattr(rec, "parse_status", None)

    def flags(args, cls):
        return tuple(getattr(cls, "flags", ()))

    def exc_name(args, result):
        return type(result).__name__ if isinstance(result, BaseException) else None

    def table_size(args, table):
        return len(table) if isinstance(table, netintel.AsnTable) else 0

    def lookup_ip(args, result):
        return str(args[1])

    return [
        (pipeline, "run_ingest", "pipeline.ingest", None),
        (pipeline, "run_classify", "pipeline.classify", None),
        (pipeline, "run_analyze", "pipeline.analyze", None),
        (pipeline, "ingest_corpus", "store.ingest_corpus", None),
        (store, "parse_eml", "eml.parse_eml", status),
        (pipeline, "write_corpus_jsonl", "store.jsonl_write", None),
        (pipeline, "read_corpus_jsonl", "store.jsonl_read", None),
        (eml, "parse_auth_results", "authlineage.auth_results", None),
        (eml, "extract_sender_ip", "authlineage.sender_ip", None),
        (pipeline, "classify_provenance", "authlineage.provenance", None),
        (adapter, "classify_rule_based", "rules.classify", flags),
        (adapter, "classify_with_fallback", "adapter.classify", flags),
        (adapter, "classify_external", "adapter.external", exc_name),
        (pipeline, "load_ip2asn", "netintel.load_ip2asn", table_size),
        (netintel.AsnTable, "lookup", "netintel.lookup", lookup_ip),
        (pipeline, "build_sender_profiles", "netintel.profiles", None),
        (pipeline, "build_daily_series", "temporal.series", None),
        (pipeline, "spectrum_bins", "temporal.spectrum", None),
        (pipeline, "decompose_additive", "temporal.decompose", None),
        (pipeline, "hour_day_matrix", "temporal.heatmap", None),
        (pipeline, "build_features", "cluster.features", None),
        (pipeline, "select_k", "cluster.select_k", None),
        (cluster, "kmeans", "cluster.kmeans", None),
        (cluster, "silhouette", "cluster.silhouette", None),
        (pipeline, "chi_squared_independence", "stats.chi_squared", None),
        (pipeline, "one_way_anova", "stats.anova", None),
        (pipeline, "kruskal_wallis", "stats.kruskal_wallis", None),
        (pipeline, "descriptive", "stats.descriptive", None),
        (pipeline, "pareto", "stats.pareto", None),
    ]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("pipeline.ingest_s", "s", "lower"),
    ("pipeline.classify_s", "s", "lower"),
    ("pipeline.analyze_s", "s", "lower"),
    ("eml.parse_ms_per_msg", "ms", "lower"),
    ("eml.msgs", "count", "lower"),
    ("eml.unparseable", "count", "lower"),
    ("store.ingest_self_s", "s", "lower"),
    ("store.jsonl_write_s", "s", "lower"),
    ("store.jsonl_read_s", "s", "lower"),
    ("store.corpus_jsonl_mb", "MB", "lower"),
    ("authlineage.auth_results_us_per_msg", "us", "lower"),
    ("authlineage.sender_ip_us_per_msg", "us", "lower"),
    ("authlineage.provenance_us_per_msg", "us", "lower"),
    ("rules.ms_per_msg", "ms", "lower"),
    ("rules.msgs", "count", "lower"),
    ("rules.low_signal", "count", "lower"),
    ("adapter.requests", "count", "lower"),
    ("adapter.requests_per_msg", "ratio", "lower"),
    ("adapter.reprompts", "count", "lower"),
    ("adapter.transport_retries", "count", "lower"),
    ("adapter.fallbacks", "count", "lower"),
    ("adapter.endpoint_wait_s", "s", "lower"),
    ("adapter.busy_s", "s", "lower"),
    ("adapter.distinct_prompt_share", "ratio", "higher"),
    ("netintel.ip2asn_load_s", "s", "lower"),
    ("netintel.ip2asn_rows", "count", "lower"),
    ("netintel.table_entries", "count", "lower"),
    ("netintel.entries_per_row", "ratio", "lower"),
    ("netintel.lookups", "count", "lower"),
    ("netintel.lookups_per_msg", "ratio", "lower"),
    ("netintel.distinct_ip_share", "ratio", "higher"),
    ("netintel.lookup_us", "us", "lower"),
    ("netintel.profiles_s", "s", "lower"),
    ("temporal.s", "s", "lower"),
    ("cluster.features_s", "s", "lower"),
    ("cluster.select_k_s", "s", "lower"),
    ("cluster.kmeans_fits", "count", "lower"),
    ("cluster.silhouette_s", "s", "lower"),
    ("stats.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_round", "count", "lower"),
    ("trace.span_cost_us", "us", "lower"),
    ("trace.model_overhead_pct", "%", "lower"),
]


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


class LayerStats:
    """Per-layer figures for one set-up plus one round of the workload.

    A layer's set-up spans count once and its round spans are averaged
    over the traced rounds, so a layer that runs in set-up
    (llm_classify's ingest) and one that runs every round read alike.
    """

    def __init__(self, tracer: Tracer, rounds: int):
        self.rounds = max(1, rounds)
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in tracer.spans:
            self.by_name.setdefault(s.name, []).append(s)
            self.children.setdefault(s.parent, []).append(s)
        self.notes = tracer.notes

    def _weight(self, phase: str) -> float:
        return 1.0 if phase == "setup" else 1.0 / self.rounds

    def total(self, *names: str) -> float:
        return sum(s.duration * self._weight(s.phase)
                   for n in names for s in self.by_name.get(n, []))

    def count(self, name: str) -> float:
        return sum(self._weight(s.phase) for s in self.by_name.get(name, []))

    def self_total(self, name: str) -> float:
        return sum(_self_time(s, self.children.get(s.sid, []))
                   * self._weight(s.phase) for s in self.by_name.get(name, []))

    def round_spans(self) -> float:
        """Spans recorded in one traced round."""
        return sum(len([s for s in spans if s.phase != "setup"])
                   for spans in self.by_name.values()) / self.rounds

    def noted(self, name: str, test) -> float:
        return sum(self._weight(phase) for phase, value
                   in self.notes.get(name, []) if test(value))

    def values(self, name: str) -> list:
        return [value for _, value in self.notes.get(name, [])]

    def distinct_share(self, name: str) -> float:
        """Distinct noted values over noted calls, within each phase."""
        by_phase: dict[str, list] = {}
        for phase, value in self.notes.get(name, []):
            by_phase.setdefault(phase, []).append(value)
        calls = sum(len(v) for v in by_phase.values())
        return _ratio(sum(len(set(v)) for v in by_phase.values()), calls)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: LayerStats, *, session_counts: dict,
                  ip2asn_rows: int, corpus_jsonl_bytes: int,
                  overhead_s: float, untraced_s: float,
                  span_cost_s: float) -> dict[str, float]:
    """Every PER_LAYER metric; layers a workload does not run read 0."""
    parse_n = stats.count("eml.parse_eml")
    rules_n = stats.count("rules.classify")
    adapter_n = stats.count("adapter.classify")
    lookups = stats.count("netintel.lookup")
    unparseable = stats.noted("eml.parse_eml", lambda v: v == "unparseable")
    entries = max(stats.values("netintel.load_ip2asn"), default=0)
    if not stats.count("netintel.load_ip2asn"):
        ip2asn_rows = 0                 # the snapshot exists but is not read
    requests = session_counts.get("requests", 0) / stats.rounds
    exhausted = stats.noted("adapter.external",
                            lambda v: v == "AdapterTransportError")
    wait_s = session_counts.get("wait_s", 0.0) / stats.rounds
    return {
        "pipeline.ingest_s": stats.total("pipeline.ingest"),
        "pipeline.classify_s": stats.total("pipeline.classify"),
        "pipeline.analyze_s": stats.total("pipeline.analyze"),
        "eml.parse_ms_per_msg": 1e3 * _ratio(stats.total("eml.parse_eml"), parse_n),
        "eml.msgs": parse_n,
        "eml.unparseable": unparseable,
        "store.ingest_self_s": stats.self_total("store.ingest_corpus"),
        "store.jsonl_write_s": stats.total("store.jsonl_write"),
        "store.jsonl_read_s": stats.total("store.jsonl_read"),
        "store.corpus_jsonl_mb": corpus_jsonl_bytes / 2**20,
        "authlineage.auth_results_us_per_msg": 1e6 * _ratio(
            stats.total("authlineage.auth_results"),
            stats.count("authlineage.auth_results")),
        "authlineage.sender_ip_us_per_msg": 1e6 * _ratio(
            stats.total("authlineage.sender_ip"),
            stats.count("authlineage.sender_ip")),
        "authlineage.provenance_us_per_msg": 1e6 * _ratio(
            stats.total("authlineage.provenance"),
            stats.count("authlineage.provenance")),
        "rules.ms_per_msg": 1e3 * _ratio(stats.total("rules.classify"), rules_n),
        "rules.msgs": rules_n,
        "rules.low_signal": stats.noted("rules.classify",
                                        lambda v: "low_signal" in v),
        "adapter.requests": requests,
        "adapter.requests_per_msg": _ratio(requests, adapter_n),
        "adapter.reprompts": session_counts.get("reprompts", 0) / stats.rounds,
        "adapter.transport_retries": (session_counts.get("http_errors", 0)
                                      / stats.rounds - exhausted),
        "adapter.fallbacks": stats.noted("adapter.classify",
                                         lambda v: "adapter_fallback" in v),
        "adapter.endpoint_wait_s": wait_s,
        "adapter.busy_s": stats.total("adapter.classify") - wait_s,
        "adapter.distinct_prompt_share": _ratio(
            session_counts.get("distinct_prompts", 0) / stats.rounds, requests),
        "netintel.ip2asn_load_s": stats.total("netintel.load_ip2asn"),
        "netintel.ip2asn_rows": float(ip2asn_rows),
        "netintel.table_entries": float(entries),
        "netintel.entries_per_row": _ratio(entries, ip2asn_rows),
        "netintel.lookups": lookups,
        "netintel.lookups_per_msg": _ratio(lookups, parse_n - unparseable),
        "netintel.distinct_ip_share": stats.distinct_share("netintel.lookup"),
        "netintel.lookup_us": 1e6 * _ratio(stats.total("netintel.lookup"),
                                           lookups),
        "netintel.profiles_s": stats.total("netintel.profiles"),
        "temporal.s": stats.total("temporal.series", "temporal.spectrum",
                                  "temporal.decompose", "temporal.heatmap"),
        "cluster.features_s": stats.total("cluster.features"),
        "cluster.select_k_s": stats.total("cluster.select_k"),
        "cluster.kmeans_fits": stats.count("cluster.kmeans"),
        "cluster.silhouette_s": stats.total("cluster.silhouette"),
        "stats.s": stats.total("stats.chi_squared", "stats.anova",
                               "stats.kruskal_wallis", "stats.descriptive",
                               "stats.pareto"),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": 100.0 * _ratio(overhead_s, untraced_s),
        "trace.spans_per_round": stats.round_spans(),
        "trace.span_cost_us": 1e6 * span_cost_s,
        "trace.model_overhead_pct": 100.0 * _ratio(
            stats.round_spans() * span_cost_s, untraced_s),
    }
