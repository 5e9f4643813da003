"""Run every workload and print its end-to-end metrics; optionally record
them, with the traced per-layer numbers and the machine, as a baseline.

    python3 perfbench/suite.py [--seeds 1,2,3] [--seconds 20] [--baseline perfbench/baseline.json]

Each workload runs once per seed untraced and once traced (first seed), each
run through ``run.py``. The table gives, per workload, the median over seeds
of ``setup_s``, ``ops_per_s``, ``peak_rss_mb`` and ``op_fail_ratio`` (failed
ops over attempted ops, summed over seeds), and whether every op's output
passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return out.stdout.strip() or None


def machine(blas: dict, numpy_version: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    all_correct = True
    for workload in WORKLOADS:
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["wrong"] == 0 for r in runs + [traced])
        all_correct &= correct
        e2e = {
            name: {"median": statistics.median(r["metrics"][name]["value"] for r in runs),
                   "values": [r["metrics"][name]["value"] for r in runs], "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()
        }
        e2e["op_fail_ratio"] = {"value": failed / attempted, "failed": failed, "attempted": attempted, "unit": "ratio"}
        report[workload] = {
            **WORKLOADS[workload],
            "correct": correct,
            "end_to_end": e2e,
            "failures": [{"run_seed": s, **f} for s, r in zip(seeds, runs) for f in r["result"]["failures"]],
            "per_layer": {name: traced["metrics"][name]["value"] for name in PER_LAYER},
        }
        print(f"{workload}: {'all outputs correct' if correct else 'WRONG OUTPUTS'}")
        for name in (*END_TO_END, "op_fail_ratio"):
            value = e2e[name].get("median", e2e[name].get("value"))
            print(f"  {name:12s} {value:12.6g} {e2e[name]['unit']}")

    if args.baseline:
        blas, numpy_version = runs[-1]["result"]["blas"], runs[-1]["result"]["numpy"]
        baseline = {
            "commit": commit(),
            "machine": machine(blas, numpy_version),
            "seeds": seeds,
            "seconds": args.seconds,
            "workloads": report,
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
