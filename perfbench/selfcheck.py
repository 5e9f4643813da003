"""Self-check of the benchmark; exits 1 on the first broken expectation.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` lists exactly the workloads and metrics of ``spec.py``.
2. The output checks flag corrupted results as failed ops: unequal avka keys,
   an accept rate 5 sigma off its exact value, and a raised ``ValueError``
   (failed but not wrong). Untouched outputs pass.
3. Two traced runs with one seed report identical exact counts, and every
   count ``spec.py`` predicts to be zero on a workload is zero there.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spec import END_TO_END, PER_LAYER, WORKLOADS, exact_metrics, predicted_zeros  # noqa: E402

SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match spec.py")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    expect(e2e == END_TO_END, "BENCHMARK.json end_to_end metrics match spec.py")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layers == {name: unit for name, (unit, _) in PER_LAYER.items()}, "BENCHMARK.json per_layer metrics match spec.py")


def run_slice(workload, index: int):
    from anoncka import cli
    from worker import SliceRunner

    runner = SliceRunner(cli, workload, HERE / "out" / "selfcheck-config.json")
    (HERE / "out").mkdir(exist_ok=True)
    try:
        return runner.run(index)
    finally:
        runner.config_path.unlink(missing_ok=True)


def check_corruption() -> None:
    from workloads import AvkaN16, VerifyMc

    avka = AvkaN16(SEED)
    _, rc, stdout, error = run_slice(avka, 0)
    expect(error is None and rc == 0, "avka-n16 slice 0 runs")
    avka.record(0, rc, stdout, None)
    expect(avka.finish()["failed"] == 0, "an untouched avka-n16 output passes")

    out = json.loads(stdout)
    key = out["key_bits"]["1"]
    out["key_bits"]["1"] = ("1" if key[:1] == "0" else "0") + key[1:]
    bad = AvkaN16(SEED)
    bad.record(0, rc, json.dumps(out), None)
    tally = bad.finish()
    expect(tally["failed"] == 1 and tally["wrong"] == 1, "unequal avka keys fail the op as wrong")

    raised = AvkaN16(SEED)
    raised.record(0, None, "", ValueError("state norm 0.9999999999989024 is not 1 within 1e-12"))
    tally = raised.finish()
    expect(tally["failed"] == 1 and tally["wrong"] == 0, "a raised ValueError fails the op without marking it wrong")

    verify = VerifyMc(SEED)
    _, rc, stdout, error = run_slice(verify, 0)
    expect(error is None and rc == 0, "verify-mc slice 0 runs")
    clean = VerifyMc(SEED)
    clean.record(0, rc, stdout, None)
    expect(clean.finish()["failed"] == 0, "an untouched verify-mc output passes")

    # Move the accept rate of the last Werner row (exact rate above 3/4) 5 sigma down.
    row = len(verify.thetas) + len(verify.fidelities) - 1
    exact = verify.exact_accept[row]
    sigma = math.sqrt(exact * (1.0 - exact) / verify.TRIALS)
    shifted = math.floor((exact - 5.0 * sigma) * verify.TRIALS) / verify.TRIALS
    lines = stdout.splitlines()
    fields = lines[row + 1].split(",")
    fields[1] = repr(shifted)
    lines[row + 1] = ",".join(fields)
    verify.record(0, rc, "\n".join(lines) + "\n", None)
    tally = verify.finish()
    expect(tally["wrong"] == verify.TRIALS, f"an accept rate 5 sigma off ({shifted} vs {exact:.4f}) fails its row's ops")


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout
    result = json.loads(out.strip().splitlines()[-1])
    expect(result["correct"], f"{workload}: traced run is correct")
    return {name: result["metrics"][name]["value"] for name in exact_metrics()}


def check_traced_counts() -> None:
    zeros = predicted_zeros()
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(name for name in first if first[name] != second[name])
        expect(not differ, f"{workload}: exact counts repeat across two traced runs {differ or ''}")
        nonzero = sorted(name for name in zeros[workload] if first[name] != 0)
        expect(not nonzero, f"{workload}: predicted zero counts are zero {nonzero or ''}")


def main() -> int:
    check_benchmark_json()
    check_corruption()
    check_traced_counts()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
