"""The benchmark's span targets still name the layer calls of a run.

``perfbench/spans.py`` wraps each layer function at the name its caller
looks it up by. A refactor that moves a call out from under that name
would silently zero a per-layer metric; these tests fail instead.
"""

import importlib.util
import sys
from pathlib import Path

from conftest import config_for
from inboxaudit.pipeline import run_report

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# span names a rule-classifier run_report never records, and why
NOT_RECORDED = {
    "adapter.classify": "classify_with_fallback runs only for the external "
                        "classifier; these runs classify by rules",
    "adapter.external": "classify_external runs only for the external "
                        "classifier",
    "store.jsonl_read": "run_report hands the corpus to classify and "
                        "analyze in memory, so it never reads corpus.jsonl",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    for owner, attr, name, _ in load_spans().targets():
        assert callable(getattr(owner, attr, None)), name


def test_report_records_every_span(synth_corpus, tmp_path):
    spans = load_spans()
    targets = spans.targets()
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        run_report(config_for(synth_corpus, tmp_path))
    finally:
        tracer.remove()
    names = {name for _, _, name, _ in targets}
    recorded = {span.name for span in tracer.spans}
    assert set(NOT_RECORDED) <= names
    missing = names - recorded - set(NOT_RECORDED)
    assert not missing, f"spans never recorded: {sorted(missing)}"
    assert not recorded & set(NOT_RECORDED)
