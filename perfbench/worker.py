"""One benchmark workload in its own process.

``run.py`` starts this with ``src/`` on the import path and the BLAS thread
count pinned to 1. It prints ``ready`` once set-up is done (interpreter,
numpy and ``anoncka`` imports, the workload's input plan, the first config
written), then runs the job and prints one JSON line with the result:

* untraced: a fixed number of slices, ``--seconds`` times the workload's
  ``SLICES_PER_SECOND``, run back to back; that lasts about ``--seconds`` on
  the reference host. The job is fixed rather than timed so that the op tally
  (attempted and failed ops) depends only on the seed and ``--seconds``, and
  two runs of the same code agree on it exactly. Only a job slower than
  ``JOB_CAP_S`` is cut short. The result carries the rate of every slice
  that did not raise, the op tally and the process's peak resident memory.
* traced: a fixed number of slices, first untraced and then again with the
  tracer installed, so exact counts depend only on the seed. Both passes
  must print identical bytes. The result carries the per-layer metrics.

Calibration: the host this runs on is shared, and its speed drifts by tens
of percent over seconds to minutes, alike for all CPU-bound code. A fixed
kernel (a Python loop plus small numpy vector operations, about 5 ms) runs
between slices; its time over ``CAL_REFERENCE_S`` is the host's slowness at
that moment, and each slice's rate is multiplied by the mean slowness just
before and just after it. Set-up times are not scaled: they do not follow
the kernel's speed (measured: scaling them widened their spread). Rates are thus
ops per second on a host where the kernel takes ``CAL_REFERENCE_S``. The
kernel is benchmark code, so a change to the package cannot move it; the
raw rates are kept in the result too.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Slices of a traced run: a fixed job of a few seconds untraced.
TRACED_SLICES = {"verify-mc": 6, "anon-notify": 6, "avka-n16": 24}

# Slices per second of an untraced run, measured at the commit that added the
# benchmark on the reference host, calibration kernel included.
SLICES_PER_SECOND = {"verify-mc": 4.0, "anon-notify": 3.5, "avka-n16": 15.0}

# An untraced job stops early past this, so that a run ends in time even on
# code many times slower than the reference.
JOB_CAP_S = 120.0

# Calibration kernel time on the reference host (2-vCPU Xeon VM, Python 3.11).
CAL_REFERENCE_S = 0.0055


def slowness(np) -> float:
    """Calibration kernel time over ``CAL_REFERENCE_S`` (>1: slower host)."""
    vec = np.arange(256, dtype=complex)
    start = perf_counter()
    table, acc = {}, 0
    for i in range(20000):
        table[i & 255] = acc
        acc = (acc + i * i) % 1000003
    total = 0.0
    for i in range(800):
        scaled = vec * (1.0 + i * 1e-9)
        total += float(np.vdot(scaled, scaled).real)
    return (perf_counter() - start) / CAL_REFERENCE_S


class SliceRunner:
    """Writes a slice's config and runs the CLI on it, capturing stdout."""

    def __init__(self, cli, workload, config_path: Path):
        self.cli = cli
        self.workload = workload
        self.config_path = config_path

    def write(self, index: int) -> None:
        self.config_path.write_text(json.dumps(self.workload.config(index)), encoding="utf-8")

    def run(self, index: int):
        """(seconds, exit code, stdout, exception) of slice ``index``."""
        self.write(index)
        argv = [self.workload.command, "--config", str(self.config_path)]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a raising op is a failed op: counted, not retried
            error = exc
        seconds = perf_counter() - start
        return seconds, rc, out.getvalue(), error


def timed_job(runner: SliceRunner, seconds: float, np) -> dict:
    workload = runner.workload
    rates, raw_rates = [], []
    slices = max(1, round(seconds * SLICES_PER_SECOND[workload.name]))
    start = perf_counter()
    hosts = [slowness(np)]
    for index in range(slices):
        if index and perf_counter() - start > JOB_CAP_S:
            break
        before = hosts[-1]
        elapsed, rc, stdout, error = runner.run(index)
        after = slowness(np)
        hosts.append(after)
        workload.record(index, rc, stdout, error)
        if error is None:
            raw_rates.append(workload.ops_per_slice / elapsed)
            rates.append(raw_rates[-1] * (before + after) / 2.0)
        # A kept traceback holds the failed run's n=16 states alive.
        error = None
    return {
        **workload.finish(),
        "slice_rates": rates,
        "raw_slice_rates": raw_rates,
        "slowness": statistics.median(hosts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_job(runner: SliceRunner) -> dict:
    from tracer import Tracer, install

    workload = runner.workload
    slices = range(TRACED_SLICES[workload.name])
    plain = []
    for index in slices:
        elapsed, rc, stdout, error = runner.run(index)
        plain.append((elapsed, rc, stdout, repr(error)))
        error = None

    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = []
        for index in slices:
            elapsed, rc, stdout, error = runner.run(index)
            workload.record(index, rc, stdout, error)
            traced.append((elapsed, rc, stdout, repr(error)))
            error = None
    finally:
        undo()

    for index, (before, after) in enumerate(zip(plain, traced)):
        if before[1:] != after[1:]:
            cells = [(index, row) for row in range(workload.rows)]
            workload.fail(cells, "wrong", {"error": "traced run printed other bytes than the untraced run"})
    per_layer = tracer.metrics()
    per_layer["bench.trace_overhead_ratio"] = sum(t[0] for t in traced) / sum(p[0] for p in plain)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return {**workload.finish(), "per_layer": per_layer}


def blas_info(np) -> dict:
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "library": blas.get("name"),
        "version": blas.get("version"),
        "threads": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import anoncka
    from anoncka import cli

    if Path(anoncka.__file__).resolve().parent != ROOT / "src" / "anoncka":
        print(f"error: anoncka was imported from {anoncka.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1

    from workloads import WORKLOAD_TYPES

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = SliceRunner(cli, WORKLOAD_TYPES[args.workload](args.seed), work / "config.json")
        runner.write(0)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = traced_job(runner) if args.trace else timed_job(runner, args.seconds, np)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["blas"] = blas_info(np)
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
