"""scripts/bench_pairs.py keeps each run's round times and applies the
benchmark's no-regression rule."""

import importlib.util
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounds_line_is_kept():
    rounds = load_bench_pairs()._rounds
    stdout = ["inputs: 300 messages, 300 files",
              "rounds: 3, wall_s [1.2104, 0.9, 0.95], setup_s [0.11, 0.12, 0.1]",
              '{"correct": true}']
    assert rounds(stdout) == {"wall_s": [1.2104, 0.9, 0.95],
                              "setup_s": [0.11, 0.12, 0.1]}
    assert rounds(stdout[-1:]) is None


def _runs(metric, base, change):
    """The runs of pairs of one metric's ``base`` and ``change`` values."""
    return [{"pair": pair, "side": side,
             "result": {"attempted": 10, "failed": 0,
                        "metrics": {metric: {"value": value}}}}
            for pair, values in enumerate(zip(base, change))
            for side, value in zip(("base", "change"), values)]


def test_within_bound_compares_medians_by_the_bound():
    summarise = load_bench_pairs().summarise
    bounds = {"wall_s": 0.25, "msgs_per_s": 0.25}
    better = {"wall_s": "lower", "msgs_per_s": "higher"}
    base = [1.0, 1.0, 1.0, 1.0]
    for metric, change, within in [("wall_s", [1.2] * 4, True),
                                   ("wall_s", [1.3] * 4, False),
                                   ("wall_s", [0.5] * 4, True),
                                   ("msgs_per_s", [0.8] * 4, True),
                                   ("msgs_per_s", [0.7] * 4, False),
                                   ("msgs_per_s", [1.5] * 4, True)]:
        entry = summarise(_runs(metric, base, change), better, 4,
                          bounds)["metrics"][metric]
        assert entry["within_bound"] is within, (metric, change)
        assert entry["unresolved"] is False


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    summarise = load_bench_pairs().summarise
    better = {"wall_s": "lower", "eml.msgs": "lower"}
    runs = _runs("wall_s", [0.6, 0.8, 1.0, 1.2, 1.4], [1.0] * 5)
    entry = summarise(runs, better, 5, {"wall_s": 0.25})["metrics"]["wall_s"]
    assert (entry["base"]["q1"], entry["base"]["q3"]) == (0.8, 1.2)
    assert entry["unresolved"] is True and entry["within_bound"] is True
    entry = summarise(runs, better, 5, {"wall_s": 0.5})["metrics"]["wall_s"]
    assert entry["unresolved"] is False
    # a per-layer metric has no bound, so neither flag
    runs = _runs("eml.msgs", [5, 5], [5, 5])
    entry = summarise(runs, better, 2, {"wall_s": 0.25})["metrics"]["eml.msgs"]
    assert "within_bound" not in entry and "unresolved" not in entry
