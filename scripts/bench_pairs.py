#!/usr/bin/env python3
"""Compare a base checkout with this one on one perfbench workload in
alternating pairs.

    python3 scripts/bench_pairs.py --base ../parent \\
        --workload paper_inbox --seed 707 --pairs 10 --out BENCH_6.json

Run both sides from fresh clones (``git clone``): this script from a
clone of the change, ``--base`` a clone of the parent beside it. The
same commit has read ``paper_inbox`` ``wall_s`` 13.5% slower from a
long-used working checkout than from a fresh clone, a gap that followed
the directory (its cause was not isolated), while two fresh clones tied.

Each pair runs ``perfbench/run.py`` once in each checkout, as it is in
that checkout and with its own run length; even pairs run the base
first, odd pairs this checkout (the change). The
runs' JSON lines, each side's median and quartiles of every metric, and
per metric the pairs the change won, lost and tied (by the ``better``
direction in ``BENCHMARK.json``) go to ``--out`` together with ``nproc``,
the Python version and the platform. An existing ``--out`` keeps its
other entries, so one file can hold several; an entry is keyed
``<workload>-s<seed>``, with ``+trace`` appended for ``--trace 1`` runs.
Values equal to nine significant digits count as a tie. A run still
going after ten times ``run_seconds`` from ``BENCHMARK.json`` is killed
and recorded as a run without a result.

Each run also records the host's state next to its result:
``load1_before``, the 1-minute load average just before it started, and
``child_cpu_s``, the user plus system CPU seconds its processes used.
With them a pair that ran while other work held the cores can be told
apart from a change in the code. ``rounds`` keeps the run's ``wall_s``
of every round, in order, and its ``setup_s`` samples, as ``run.py``
prints them before its result (null when it printed none), so work
that moves into the first round shows.

A metric is ``claimable`` when the change won at least nine tenths of
the pairs run (a pair with a run that gave no result is not a win), the
medians differ, in the better direction, by more than the base's
interquartile range, and the change had no more runs without a result
and no larger share of failed operations than the base.

Each end-to-end metric also gets the two flags of the no-regression rule,
both against the base median times that metric's ``bound`` in
``BENCHMARK.json``: ``within_bound`` when the change's median is worse
than the base median by no more than that, and ``unresolved`` when the
base's interquartile range is wider than it, so the runs' spread is too
wide to tell a regression of that size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 10 * SPEC["run_seconds"]
# run.py's line before its result: rounds: 3, wall_s [..], setup_s [..]
ROUNDS_LINE = re.compile(r"rounds: \d+, wall_s (\[.*\]), setup_s (\[.*\])")


def _describe(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rounds(lines: list[str]) -> dict | None:
    """The per-round ``wall_s`` and the ``setup_s`` samples of the last
    rounds line in ``lines``; None when there is none."""
    for line in reversed(lines):
        match = ROUNDS_LINE.fullmatch(line.strip())
        if match:
            return {"wall_s": json.loads(match[1]),
                    "setup_s": json.loads(match[2])}
    return None


def _run(checkout: Path, args: argparse.Namespace) -> dict:
    """One run's result and round times, with the host's load before it
    and the CPU seconds its processes used."""
    load1 = os.getloadavg()[0]
    cpu_before = _child_cpu_s()
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{checkout}: no result after {RUN_TIMEOUT_S} s\n")
        returncode, result, rounds = None, None, None
    else:
        lines = proc.stdout.strip().splitlines()
        rounds = _rounds(lines)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        returncode = proc.returncode
        if returncode != 0 or result is None:
            sys.stderr.write(proc.stderr[-2000:])
    return {"returncode": returncode, "result": result, "rounds": rounds,
            "load1_before": load1,
            "child_cpu_s": round(_child_cpu_s() - cpu_before, 3)}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _better_directions() -> dict[str, str]:
    return {m["name"]: m["better"]
            for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _bounds() -> dict[str, float]:
    """Each end-to-end metric's bound: the share of the base median by
    which the change may be worse."""
    return {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _failures(runs: list[dict], side: str) -> dict:
    results = [r["result"] for r in runs
               if r["side"] == side and r["result"] is not None]
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "runs_without_result": sum(r["side"] == side for r in runs)
            - len(results)}


def _fails_more(failures: dict) -> bool:
    """Whether the change lost more runs or a larger share of operations."""
    base, change = failures["base"], failures["change"]
    if change["runs_without_result"] > base["runs_without_result"]:
        return True
    return (change["failed"] * max(base["attempted"], 1)
            > base["failed"] * max(change["attempted"], 1))


def summarise(runs: list[dict], better: dict[str, str], n_pairs: int,
              bounds: dict[str, float]) -> dict:
    """Per side quartiles and per metric pair wins of the change over the
    ``n_pairs`` pairs run; for a metric with a bound, whether the change is
    within it and whether the base's spread leaves it unresolved."""
    failures = {side: _failures(runs, side) for side in SIDES}
    fails_more = _fails_more(failures)
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    complete = [p for p in pairs.values() if len(p) == 2]
    names = set.intersection(*(set(result["metrics"]) for p in complete
                               for result in p.values())) if complete else set()
    metrics = {}
    for name in sorted(names):
        values = {side: [p[side]["metrics"][name]["value"] for p in complete]
                  for side in SIDES}
        entry = {side: _quartiles(values[side]) for side in SIDES}
        direction = better.get(name)
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            diffs = [0.0 if math.isclose(b, c, rel_tol=1e-9) else sign * (c - b)
                     for b, c in zip(values["base"], values["change"])]
            wins = sum(d > 0 for d in diffs)
            gain = sign * (entry["change"]["median"] - entry["base"]["median"])
            iqr = entry["base"]["q3"] - entry["base"]["q1"]
            entry.update(better=direction, wins=wins,
                         losses=sum(d < 0 for d in diffs),
                         ties=sum(d == 0 for d in diffs),
                         claimable=(wins >= 0.9 * n_pairs and gain > iqr
                                    and not fails_more))
            if name in bounds:
                limit = bounds[name] * abs(entry["base"]["median"])
                entry.update(within_bound=-gain <= limit, unresolved=iqr > limit)
        metrics[name] = entry
    return {"pairs": n_pairs, "complete_pairs": len(complete),
            "failures": failures, "change_fails_more": fails_more,
            "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"base": args.base.resolve(), "change": ROOT}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = {"pair": pair, "side": side, **_run(checkouts[side], args)}
            runs.append(run)
            wall = (run["result"] or {}).get("metrics", {}).get("wall_s", {})
            print(f"pair {pair} {side}: rc={run['returncode']} "
                  f"wall_s={wall.get('value')} "
                  f"load1_before={run['load1_before']:.2f} "
                  f"child_cpu_s={run['child_cpu_s']}",
                  file=sys.stderr, flush=True)

    report = (json.loads(args.out.read_text(encoding="utf-8"))
              if args.out.exists() else {"workloads": {}})
    report["machine"] = {"nproc": os.cpu_count(),
                         "python": platform.python_version(),
                         "platform": platform.platform()}
    key = f"{args.workload}-s{args.seed}" + ("+trace" if args.trace else "")
    report["workloads"][key] = {
        "seed": args.seed,
        "trace": args.trace,
        "checkouts": {side: _describe(path) for side, path in checkouts.items()},
        "summary": summarise(runs, _better_directions(), args.pairs,
                             _bounds()),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
