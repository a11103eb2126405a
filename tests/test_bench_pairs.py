"""scripts/bench_pairs.py keeps each run's round times."""

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
