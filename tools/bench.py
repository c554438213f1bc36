#!/usr/bin/env python3
"""Paired perfbench runs of two relochain checkouts, written as one BENCH JSON file.

    python3 tools/bench.py --parent PARENT_DIR --change CHANGE_DIR --pairs 10 --seconds 6 --out BENCH_<n>.json

For every workload (all of BENCHMARK.json's by default), each checkout runs
its own `perfbench/run.py --trace 0` once per pair; the side that runs first
alternates from pair to pair, so a drift of the machine's speed falls on both
sides alike. The last stdout line of each run is its JSON result. The output
file holds, per workload and end-to-end metric of the change's BENCHMARK.json,
both sides' medians and quartiles, the change's relative move of the median,
the pairs the change won, every run's value, the metric's verdict, and
whether every run's output checks held; also the machine, the interpreter
and library versions and both checkouts' `src/relochain` line counts.

A verdict reads the pairs against the metric's relative bound:

- `gain`: the change wins at least nine tenths of the pairs (ties count for
  neither side), and its median is better than the parent's by more than
  the parent's quartile spread;
- `unresolved`: the parent's own quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run, so
  the runs cannot tell a move within the bound from noise;
- `worse`: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- `no worse`: anything else. Each run writes `.perfbench_runs/`
into its checkout, so compare clean trees, for example made with
`git archive`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `checkout`: its last JSON line, or the error that stopped it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values of one metric."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], lower_wins: bool, bound: float) -> str:
    """`gain`, `unresolved`, `worse` or `no worse` for paired runs (parent[k], change[k]) of one metric, as the module docstring defines them."""
    before, after = summary(parent), summary(change)
    sign = 1.0 if lower_wins else -1.0
    better = sign * (before["median"] - after["median"])  # positive when the change's median is better
    spread = before["q3"] - before["q1"]
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and better > spread:
        return "gain"
    beats_all = max(change) < min(parent) if lower_wins else min(change) > max(parent)
    scale = abs(before["median"])
    if spread > bound * scale and not beats_all:
        return "unresolved"
    if -better > bound * scale:
        return "worse"
    return "no worse"


def src_lines(checkout: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "relochain", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's summary, the median's relative move, and the change's pair wins."""
    out = {}
    for metric in metrics:
        name, lower_wins = metric["name"], metric["better"] == "lower"
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in ((r["parent"], r["change"]) for r in runs)
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not pairs:
            continue
        parent, change = (list(side) for side in zip(*pairs))
        before, after = summary(parent), summary(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            "parent": before,
            "change": after,
            "median_rel_change": after["median"] / before["median"] - 1.0 if before["median"] else None,
            "wins": sum((c < p) if lower_wins else (c > p) for p, c in pairs),
            "pairs": len(pairs),
            "verdict": verdict(parent, change, lower_wins, metric.get("bound") or 0.0),
            "parent_values": parent,
            "change_values": change,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--workloads", nargs="+", help="default: every workload of the change's BENCHMARK.json")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    started = time.time()
    results = {}
    for workload in workloads:
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            run = {side: run_once(sides[side], workload, args.seed, args.seconds) for side in order}
            runs.append(run)
            print(f"{workload} pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{side} {run[side].get('metrics', {}).get('wall_ref_s', {}).get('value')}" for side in order
            ), file=sys.stderr)
        results[workload] = {
            "correct": {side: all(r[side].get("correct") is True for r in runs) for side in sides},
            "errors": [r[side]["error"] for r in runs for side in sides if "error" in r[side]],
            "metrics": compare(runs, benchmark["end_to_end"]),
        }

    report = {
        "command": "perfbench/run.py --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "src_relochain_lines": {side: src_lines(path) for side, path in sides.items()},
        "machine": machine(),
        "elapsed_s": round(time.time() - started, 1),
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
