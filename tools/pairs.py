"""Alternating parent/change runs of one perfbench workload.

    python tools/pairs.py PARENT CHANGE --workload verify-mc --seeds 31-40 [--seconds 20]

PARENT and CHANGE are two checkouts of the repository. For each seed, the
script runs each checkout's own ``perfbench/run.py --trace 0`` once, the side
that runs first alternating from one seed to the next, and prints the pair's
end-to-end metrics. It then prints each side's median and quartiles of every
metric, how many pairs the change wins on ``ops_per_s`` (ties count for
neither side), and two verdicts per metric, read against the ``better`` and
``bound`` of the parent's ``BENCHMARK.json``: no regression (``worse``,
``unresolved`` or ``within bound``) and a gain (``gain shown`` or ``gain not
shown``).

The two paths must have the same length: perfbench's rates can move by more
than a change's gain with the length of the checkout's path alone (heap
layout), so pairs under paths of different lengths compare nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "ops_per_s", "peak_rss_mb", "op_ok_ratio")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced perfbench run of ``checkout``: its end-to-end metrics by name."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src/
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in METRICS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> dict:
    """Each side's (q1, median, q3) per metric over (parent, change) metric
    pairs, and the change's wins and losses on ``ops_per_s``."""
    sides = {
        side: {name: quartiles([pair[i][name] for pair in pairs]) for name in METRICS}
        for i, side in enumerate(("parent", "change"))
    }
    rates = [(parent["ops_per_s"], change["ops_per_s"]) for parent, change in pairs]
    return {
        **sides,
        "pairs": len(pairs),
        "wins": sum(change > parent for parent, change in rates),
        "losses": sum(change < parent for parent, change in rates),
    }


def gates(checkout: Path) -> dict[str, tuple[str, float]]:
    """``(better, bound)`` of each end-to-end metric in ``checkout``'s BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: (metric["better"], metric["bound"]) for metric in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` if the change's median is worse than the parent's by more
    than ``bound`` times the parent's median; else ``unresolved`` if the
    parent's quartile spread exceeds that share, unless every change run beats
    every parent run; else ``within bound``."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(parent)
    share = bound * abs(median)
    if sign * (median - quartiles(change)[1]) > share:
        return "worse"
    if q3 - q1 > share and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def gain(parent: list[float], change: list[float], better: str) -> str:
    """``gain shown`` if the change wins at least 9 of every 10 (parent,
    change) pairs in the ``better`` direction, ties counting for neither side,
    and its median beats the parent's by more than the parent's quartile
    spread; else ``gain not shown``."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    q1, median, q3 = quartiles(parent)
    shown = 10 * wins >= 9 * len(parent) and sign * (quartiles(change)[1] - median) > q3 - q1
    return "gain shown" if shown else "gain not shown"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Alternating parent/change runs of one perfbench workload.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length ({len(str(parent))} and {len(str(change))} characters)")
    bounds = gates(parent)

    pairs = []
    print("seed first " + " ".join(f"{side}.{name}" for side in ("parent", "change") for name in METRICS))
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        try:
            result = {side: run(parent if side == "parent" else change, args.workload, seed, args.seconds) for side in order}
        except subprocess.CalledProcessError as error:
            print(f"error: seed {seed}: {error.cmd[1]} exited {error.returncode}\n{error.stderr}", file=sys.stderr)
            return 1
        pairs.append((result["parent"], result["change"]))
        print(f"{seed} {order[0]} " + " ".join(f"{result[side][name]:.6g}" for side in ("parent", "change") for name in METRICS), flush=True)

    summary = summarize(pairs)
    for side in ("parent", "change"):
        for name in METRICS:
            q1, median, q3 = summary[side][name]
            print(f"{side} {name}: median {median:.6g}, quartiles {q1:.6g} to {q3:.6g}")
    print(f"change wins {summary['wins']} of {summary['pairs']} pairs on ops_per_s ({summary['losses']} losses)")
    for name in METRICS:
        parent_runs, change_runs = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
        better, bound = bounds[name]
        print(f"{name}: {verdict(parent_runs, change_runs, better, bound)}; {gain(parent_runs, change_runs, better)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
