#!/usr/bin/env python3
"""Benchmark of inboxaudit's batch pipeline, run from the repository root.

    python3 perfbench/run.py --workload paper_inbox --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, sets the program up,
repeats whole rounds of the workload's public entry point until
``--seconds`` seconds have passed, checks every round's outputs and prints one JSON
line last: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
from endpoint import ScriptedSession, llm_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE_CSV = SRC / "inboxaudit" / "fixtures" / "appendix_table.csv"
WORK = HERE / "_work"
WORKLOADS = ("paper_inbox", "asn_ranges", "llm_classify")
SETUP_SAMPLES = 3          # the run's own set-up plus fresh child processes
POOL_SIZE = min(2, os.cpu_count() or 1)


def _require_program() -> None:
    """Put the checkout's src/ first on the path, or stop with exit 2."""
    if not (SRC / "inboxaudit" / "pipeline.py").is_file() or not TABLE_CSV.is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def generate(workload: str, seed: int, root: Path) -> gen.Inputs:
    if workload == "paper_inbox":
        return gen.make_paper_inbox(root, seed, TABLE_CSV)
    if workload == "asn_ranges":
        return gen.make_asn_ranges(root, seed)
    return gen.make_llm_classify(root, seed, TABLE_CSV)


def setup(workload: str, inputs_root: Path, out: Path):
    """Program start-up: imports, config and, for llm_classify, the ingest.

    Returns (seconds, config, parsed records or None).
    """
    start = time.perf_counter()
    from inboxaudit import pipeline
    from inboxaudit.config import build_config
    overrides = {
        "corpus_dir": str(inputs_root / "eml"),
        "registry_path": str(inputs_root / "registry.csv"),
        "ip2asn_path": str(next(inputs_root.glob("ip2asn.*"))),
        "abuse_path": str(inputs_root / "abuse.csv"),
        "sector_map_path": str(inputs_root / "sector_map.csv"),
        "output_dir": str(out),
    }
    if workload == "llm_classify":
        overrides.update(classifier="external",
                         adapter_endpoint="http://classifier.invalid/v1",
                         adapter_pool_size=POOL_SIZE, adapter_retries=2)
    cfg = build_config(overrides=overrides)
    records = None
    if workload == "llm_classify":
        pipeline.run_ingest(cfg)
        records = pipeline.read_corpus_jsonl(out / pipeline.CORPUS_FILE).records
    return time.perf_counter() - start, cfg, records


def _log_to(path: Path) -> None:
    logging.basicConfig(filename=str(path), level=logging.WARNING)


def setup_probe(workload: str, inputs_root: Path, out: Path) -> None:
    """Child process: one fresh set-up; prints its seconds."""
    _require_program()
    out.mkdir(parents=True)
    _log_to(out / "program.log")
    seconds, _, _ = setup(workload, inputs_root, out)
    print(repr(seconds))


def child_setup_seconds(workload: str, inputs_root: Path, out: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--inputs", str(inputs_root), "--out", str(out)],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Rounds:
    """Whole rounds of one workload's timed phase."""

    def __init__(self, workload: str, inputs: gen.Inputs, cfg, records,
                 work: Path):
        self.workload = workload
        self.inputs = inputs
        self.cfg = cfg
        self.records = records
        self.work = work
        self.session = ScriptedSession(inputs.script, gen.ENDPOINT_LATENCY_S)
        self.session_totals: dict[str, float] = {}
        self.outputs: list[Path] = []
        self.corpus_bytes = 0
        self.failed = 0

    @property
    def messages(self) -> int:
        if self.workload == "llm_classify":
            return len(self.inputs.messages)
        return self.inputs.n_files

    def run(self, index: int, traced: bool) -> float:
        """One round; returns its wall seconds. Outputs are checked later."""
        from inboxaudit import pipeline
        from inboxaudit.classify import adapter
        gc.collect()
        if self.workload == "llm_classify":
            self.session.reset()
            start = time.perf_counter()
            results = adapter.classify_records(
                self.records, "external", cfg=self.cfg.adapter,
                session=self.session)
            wall = time.perf_counter() - start
            self.failed += llm_failures(self.inputs.messages,
                                        self.inputs.script, results)
            if traced:
                s = self.session
                for key, value in (("requests", s.requests),
                                   ("reprompts", s.reprompts),
                                   ("http_errors", s.http_errors),
                                   ("wait_s", s.wait_s),
                                   ("distinct_prompts", len(s.prompts))):
                    self.session_totals[key] = self.session_totals.get(key, 0) + value
            return wall
        out = self.work / f"round-{index:03d}"
        self.cfg.output_dir = str(out)
        start = time.perf_counter()
        pipeline.run_report(self.cfg)
        wall = time.perf_counter() - start
        self.outputs.append(out)
        self.corpus_bytes = (out / pipeline.CORPUS_FILE).stat().st_size
        return wall

    def check_outputs(self) -> None:
        if not self.outputs:
            return
        import checks
        check = (checks.PaperInboxCheck(self.inputs)
                 if self.workload == "paper_inbox"
                 else checks.AsnRangesCheck(self.inputs))
        for out in self.outputs:
            self.failed += check(out)
            shutil.rmtree(out)


def measure(args, work: Path) -> dict:
    inputs = generate(args.workload, args.seed, work / "inputs")
    print(f"inputs: {len(inputs.messages)} messages, {inputs.n_files} files, "
          f"{len({m.service for m in inputs.messages})} services, "
          f"{len({m.sender_ip for m in inputs.messages})} sender IPs, "
          f"ip2asn rows {inputs.ip2asn_rows}, "
          f"(subject, body) repeat share {inputs.repeat_share:.4f}")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(spans.targets())
    samples = [] if args.trace else [
        child_setup_seconds(args.workload, inputs.root, work / f"setup-{i}")
        for i in range(SETUP_SAMPLES - 1)]
    seconds, cfg, records = setup(args.workload, inputs.root, work / "setup")
    samples.append(seconds)

    rounds = Rounds(args.workload, inputs, cfg, records, work)
    walls: list[tuple[float, bool]] = []
    attempted = 0
    start = time.perf_counter()
    try:
        while True:
            # a traced run alternates untraced and traced rounds
            traced = tracer is not None and len(walls) % 2 == 1
            if tracer is not None:
                tracer.remove()
                if traced:
                    tracer.phase = f"round-{len(walls)}"
                    tracer.install(spans.targets())
            attempted += rounds.messages
            round_start = time.perf_counter()
            walls.append((rounds.run(len(walls), traced), traced))
            if tracer is not None and not traced:
                continue
            if time.perf_counter() - start >= args.seconds:
                break
    except Exception:
        # a stage raised: every message of the run counts as failed
        traceback.print_exc()
        walls.append((time.perf_counter() - round_start, traced))
        rounds.failed = attempted
        rounds.outputs.clear()
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rounds.failed < attempted:
        rounds.check_outputs()
    failed = min(rounds.failed, attempted)

    untraced = [w for w, t in walls if not t]
    print(f"rounds: {len(walls)}, wall_s {[round(w, 4) for w, _ in walls]}, "
          f"setup_s {[round(s, 4) for s in samples]}")
    if tracer is None:
        wall_s = statistics.median(untraced)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (wall_s, "s"),
            "msgs_per_s": (rounds.messages / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_walls = [w for w, t in walls if t] or untraced
        corpus = work / "setup" / "corpus.jsonl"
        layer = spans.layer_metrics(
            spans.LayerStats(tracer, len(traced_walls)),
            session_counts=rounds.session_totals,
            ip2asn_rows=sum(inputs.ip2asn_rows.values()),
            corpus_jsonl_bytes=(corpus.stat().st_size if corpus.is_file()
                                else rounds.corpus_bytes),
            overhead_s=(statistics.median(traced_walls)
                        - statistics.median(untraced)),
            untraced_s=statistics.median(untraced),
            span_cost_s=spans.span_cost_s())
        metrics = {name: (layer[name], unit)
                   for name, unit, _ in spans.PER_LAYER}
        tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.inputs, args.out)
        return 0

    _require_program()
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        _log_to(work / "program.log")
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
