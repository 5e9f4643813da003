"""The benchmark's tracer (``perfbench/tracer.py``) looks the functions it
times up by name; a rename in the package would break the benchmark."""

from __future__ import annotations

from pathlib import Path

import anoncka
from anoncka import protocols, qsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced():
    return protocols.ame, protocols.verification, qsim.measure, anoncka.ame


def test_benchmark_tracer_wraps_and_restores_the_traced_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = traced()
    # install raises AttributeError when a traced name is missing.
    undo = tracer.install(tracer.Tracer())
    try:
        for wrapped, original in zip(traced(), originals):
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        undo()
    assert traced() == originals
