"""Parent and change side by side in one process, on one perfbench workload.

    python tools/interleave.py PARENT CHANGE --workload avka-n16 --seed 5 [--blocks 20] [--slices 5]

PARENT and CHANGE are two checkouts of the repository. The script imports each
one's ``src/anoncka`` under its own package name, so both run in this one
process, and generates the workload's slice configs from ``--seed`` with the
parent's ``perfbench/workloads.py``. Block b holds slices b * S .. b * S + S - 1
(S = ``--slices``); each side runs them through its own ``cli.main``, the side
that goes first alternating from block to block. Every slice must print the
same bytes on both sides, else the script stops with exit code 1. It then
prints each side's quartiles of the block medians (ms per slice), how many
blocks the change wins, and ``tools/pairs.py``'s gain verdict over the block
medians (lower is better), so that one-process evidence is judged by the
benchmark's rule: at least 9 of every 10 wins, and a median gain beyond the
parent's quartile spread.

Separate processes (``tools/pairs.py``) measure what the benchmark measures,
set-up and memory included; one process compares the code alone, when the
host's speed drifts between processes by more than the change moves it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from pairs import gain, quartiles  # tools/pairs.py, beside this script: one rule for the spread and gain both report

SIDES = ("parent", "change")


def load(name: str, checkout: Path):
    """``checkout``'s ``anoncka.cli``, its package imported as ``name``."""
    package = checkout / "src" / "anoncka"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_slice(cli, command: str, config: Path) -> tuple[float, str]:
    """Seconds and stdout of one ``cli.main`` call."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, "--config", str(config)])
    return perf_counter() - start, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Parent and change side by side in one process.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--slices", type=int, default=5, help="slices per block")
    args = parser.parse_args(argv)
    if args.blocks < 1 or args.slices < 1:
        parser.error(f"--blocks and --slices must be at least 1, got {args.blocks} and {args.slices}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    sys.path.insert(0, str(checkouts["parent"] / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOAD_TYPES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOAD_TYPES)}")
    workload = workloads.WORKLOAD_TYPES[args.workload](args.seed)
    clis = {side: load(f"anoncka_{side}", checkouts[side]) for side in SIDES}
    medians: dict[str, list[float]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.json"
        for block in range(args.blocks):
            slices = range(block * args.slices, (block + 1) * args.slices)
            order = SIDES if block % 2 == 0 else SIDES[::-1]
            times: dict[str, list[float]] = {side: [] for side in SIDES}
            outputs: dict[str, list[str]] = {side: [] for side in SIDES}
            for side in order:
                for index in slices:
                    config.write_text(json.dumps(workload.config(index)), encoding="utf-8")
                    seconds, stdout = run_slice(clis[side], workload.command, config)
                    times[side].append(seconds)
                    outputs[side].append(stdout)
            for index, parent, change in zip(slices, outputs["parent"], outputs["change"]):
                if parent != change:
                    print(f"error: slice {index} printed different bytes on the two sides", file=sys.stderr)
                    return 1
            for side in SIDES:
                medians[side].append(1e3 * statistics.median(times[side]))
            print(f"block {block} first {order[0]}: " + " ".join(f"{side} {medians[side][-1]:.3f} ms" for side in SIDES), flush=True)

    for side in SIDES:
        q1, median, q3 = quartiles(medians[side])
        print(f"{side} ms per slice (block medians): median {median:.4g}, quartiles {q1:.4g} to {q3:.4g}")
    wins = sum(c < p for p, c in zip(medians["parent"], medians["change"]))
    print(f"change wins {wins} of {args.blocks} blocks; every slice printed the same bytes on both sides")
    print(f"ms per slice: {gain(medians['parent'], medians['change'], 'lower')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
