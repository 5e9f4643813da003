"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-mc --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it needs ``src/anoncka`` next to this
directory and nothing else (no install, no build). The work runs in a
separate process (``worker.py``) with ``src/`` on its import path and the BLAS
thread count pinned to 1, so it stays single-threaded.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: process start until the first op can begin, the median over
  the job's process and ``SETUP_ONLY`` set-up-only processes, half started
  before the job and half after it, so the samples span the run;
* ``ops_per_s``: the median over the job's slices of ops per second (the
  job is a fixed number of slices sized to last about ``--seconds``, so the
  op tally depends only on the seed; see ``worker.py``), scaled
  to a reference host speed by the calibration kernel in ``worker.py``,
  which cancels the speed drift of a shared host;
* ``peak_rss_mb``: peak resident memory of the job's process;
* ``op_ok_ratio``: ops that neither raised nor failed their output check,
  over ops attempted (1 - op_fail_ratio).

``--trace 1`` runs a fixed job, untraced and then traced, and prints the
per-layer metrics; ``--seconds`` does not apply, so exact counts depend only
on the seed.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is
false when any op printed a wrong result; ops that raised count as failed.
The worker's full result goes to ``perfbench/out/``. Exits 1 without a
result when the worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY = 6
WORKER_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return out


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return the worker's result and the metrics."""
    def setup_only(count: int) -> list[float]:
        samples = []
        for _ in range(0 if args.trace else count):
            proc, ready = start_worker(args, setup_only=True)
            finish_worker(proc)
            samples.append(ready)
        return samples

    setups = setup_only(SETUP_ONLY // 2)
    proc, ready = start_worker(args, setup_only=False)
    setups.append(ready)
    result = json.loads(finish_worker(proc).strip().splitlines()[-1])
    setups += setup_only(SETUP_ONLY - SETUP_ONLY // 2)
    result["setup_samples_s"] = setups

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        return result, metrics
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(result["slice_rates"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in END_TO_END.items()}
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        result, metrics = measure(args)
    except (WorkerFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"args": vars(args), "metrics": metrics, "result": result}, indent=1), encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(op_fail_ratio {failed / attempted:.6g}), {result['wrong']} wrong; details in {detail.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
