"""Synthetic corpus generation: byte-identical output across processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_BUILD = ("import sys\n"
          "from synth import make_synthetic_corpus\n"
          "make_synthetic_corpus(sys.argv[1], seed=7, n_days=5)\n")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synthetic_corpus_identical_under_any_hash_seed(tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), str(ROOT / "scripts"),
                                     os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", _BUILD, str(out)],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(_files(out))
    first, second = outputs
    assert any(name.endswith(".eml") for name in first)
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []
