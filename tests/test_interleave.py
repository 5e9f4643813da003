"""``tools/interleave.py`` runs two checkouts side by side in one process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_the_repository_against_itself_prints_the_same_bytes_on_both_sides():
    cmd = [
        sys.executable, str(ROOT / "tools" / "interleave.py"), str(ROOT), str(ROOT),
        "--workload", "avka-n16", "--seed", "1", "--blocks", "2", "--slices", "2",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src/
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["block 0 first parent", "block 1 first change"]
    assert out[2].startswith("parent ms per slice (block medians): median ")
    assert out[3].startswith("change ms per slice (block medians): median ")
    assert out[4].startswith("change wins ") and out[4].endswith("of 2 blocks; every slice printed the same bytes on both sides")
    assert out[5:] == ["ms per slice: gain shown"] or out[5:] == ["ms per slice: gain not shown"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--workload", "no-such-workload"], "unknown workload 'no-such-workload'; choose from verify-mc, anon-notify, avka-n16"),
        (["--workload", "avka-n16", "--blocks", "0"], "--blocks and --slices must be at least 1, got 0 and 5"),
        (["--workload", "avka-n16", "--slices", "0"], "--blocks and --slices must be at least 1, got 20 and 0"),
    ],
)
def test_bad_arguments_are_usage_errors_without_traceback(args, message):
    cmd = [sys.executable, str(ROOT / "tools" / "interleave.py"), str(ROOT), str(ROOT), "--seed", "1", *args]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"interleave.py: error: {message}"
