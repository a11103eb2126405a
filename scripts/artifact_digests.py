#!/usr/bin/env python3
"""Print the sha256 of every artifact the pipeline writes on reference inputs.

    PYTHONPATH=src python3 scripts/artifact_digests.py --seed 101 > new.txt
    PYTHONPATH=<other checkout>/src python3 scripts/artifact_digests.py \\
        --seed 101 > old.txt
    diff old.txt new.txt

The inputs are perfbench's three generated workloads at ``--seed``
(``run_report``), the synthetic corpus at seed 42 (``run_report``, and
again as ``synth-staged``: ``run_ingest``, ``run_classify`` and
``run_analyze``, each reading the previous stage's files) and the grid
corpus (``run_ingest`` and ``run_classify``: its 500 messages span too
few days for the analyze stage). The generators come from this
checkout, the pipeline from whatever ``inboxaudit`` is first on the path,
so two runs that differ only in ``PYTHONPATH`` compare two pipelines on
the same bytes.

``tests/data/artifact_digests_seed101.txt`` holds this script's
``--seed 101`` output; the test suite compares ``digest_lines(101)``
with it. A change that alters an artifact on purpose rewrites the file:

    PYTHONPATH=src python3 scripts/artifact_digests.py --seed 101 \\
        > tests/data/artifact_digests_seed101.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

try:
    from inboxaudit.config import build_config
    from inboxaudit.pipeline import (run_analyze, run_classify, run_ingest,
                                     run_report)
    # synth imports inboxaudit, and puts perfbench/ (gen) on sys.path
    from synth import make_grid_corpus, make_synthetic_corpus
    import gen
except ModuleNotFoundError as exc:
    if not (exc.name or "").startswith("inboxaudit"):
        raise
    print(f"artifact_digests.py: cannot import {exc.name}; "
          "set PYTHONPATH to a checkout's src", file=sys.stderr)
    sys.exit(2)

TABLE_CSV = ROOT / "src" / "inboxaudit" / "fixtures" / "appendix_table.csv"


def _perfbench_config(inputs_root: Path, out: Path):
    return build_config(overrides={
        "corpus_dir": str(inputs_root / "eml"),
        "registry_path": str(inputs_root / "registry.csv"),
        "ip2asn_path": str(next(inputs_root.glob("ip2asn.*"))),
        "abuse_path": str(inputs_root / "abuse.csv"),
        "sector_map_path": str(inputs_root / "sector_map.csv"),
        "output_dir": str(out),
    })


def _corpus_config(corpus, out: Path):
    return build_config(overrides={
        "corpus_dir": str(corpus.eml_dir),
        "registry_path": str(corpus.registry_path),
        "ip2asn_path": str(corpus.ip2asn_path),
        "abuse_path": str(corpus.abuse_path),
        "org_map_path": str(corpus.org_map_path),
        "sector_map_path": str(corpus.sector_map_path),
        "output_dir": str(out),
        "seed": 42,
    })


def _digests(name: str, out: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}"
            for path in sorted(out.iterdir()) if path.is_file()]


def digest_lines(seed: int) -> list[str]:
    """One ``<sha256>  <run>/<artifact>`` line per artifact written, with
    the perfbench workloads generated at ``seed``."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, make in (
                ("paper_inbox", lambda r: gen.make_paper_inbox(r, seed,
                                                               TABLE_CSV)),
                ("asn_ranges", lambda r: gen.make_asn_ranges(r, seed)),
                ("llm_classify", lambda r: gen.make_llm_classify(r, seed,
                                                                 TABLE_CSV))):
            inputs = make(work / name / "inputs")
            out = work / name / "out"
            run_report(_perfbench_config(inputs.root, out))
            lines += _digests(name, out)

        synth = make_synthetic_corpus(work / "synth" / "corpus", seed=42)
        run_report(_corpus_config(synth, work / "synth" / "out"))
        lines += _digests("synth", work / "synth" / "out")

        cfg = _corpus_config(synth, work / "synth-staged" / "out")
        run_ingest(cfg)
        run_classify(cfg)
        run_analyze(cfg)
        lines += _digests("synth-staged", work / "synth-staged" / "out")

        grid = make_grid_corpus(work / "grid" / "corpus")
        cfg = _corpus_config(grid, work / "grid" / "out")
        run_ingest(cfg)
        run_classify(cfg)
        lines += _digests("grid", work / "grid" / "out")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the perfbench workloads")
    args = parser.parse_args()
    print("\n".join(digest_lines(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
