"""The benchmark's tracer (``perfbench/tracer.py``) looks the functions it
times up by name, and its failure records read the round number from
``avka``'s frame; a rename in the package would break the benchmark."""

from __future__ import annotations

from pathlib import Path

import pytest

import anoncka
from anoncka import protocols, qsim
from anoncka.netmodel import Network, RoleAssignment
from anoncka.rng import RngBundle

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


@pytest.mark.parametrize("rows", [1, 3])
def test_failure_records_name_the_avka_round(rows, monkeypatch):
    """A failure while a queue is carved or broadcast names the queue's first
    round; the broadcast's error text names the failing round's phase."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import describe_exception

    monkeypatch.setattr(protocols, "_BATCH_BYTES", rows * 16 * 2**4)  # ``rows`` rounds per batch at n=4
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))

    def failing_run(fail):
        bundle = RngBundle.from_seed(5, 4)
        net = Network(4, bundle.network)
        with monkeypatch.context() as patch:
            fail(patch)
            with pytest.raises(ValueError, match="injected") as info:
                protocols.avka(roles, 10, 2, qsim.ghz_state(4), net, bundle)
        return describe_exception(info.value)

    carve, carves = protocols.carve, []

    def third_carve_fails(*args, **kwargs):
        carves.append(None)
        if len(carves) == 3:
            raise ValueError("injected")
        return carve(*args, **kwargs)

    assert failing_run(lambda patch: patch.setattr(protocols, "carve", third_carve_fails))["round"] == 2 * rows

    broadcast = Network.broadcast_rounds

    def round_5_fails(self, phases, *args, **kwargs):
        failing = [phase for phase in phases if phase.startswith("round[5]")]
        if failing:
            raise ValueError(f"injected in {failing[0]}")
        return broadcast(self, phases, *args, **kwargs)

    record = failing_run(lambda patch: patch.setattr(Network, "broadcast_rounds", round_5_fails))
    assert record["round"] == 5 // rows * rows  # the queue's first round: 5 at rows=1, 3 at rows=3
    assert "round[5]:ame:announce" in record["error"]


@pytest.mark.parametrize("rows", [1, 3])
def test_failure_records_name_the_queue_whose_draws_fail(rows, monkeypatch):
    """A failure in a batch's draws, which ``avka`` makes at the top of its
    loop over ``_queued``'s queues, names that queue's first round, not the
    last round broadcast."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import describe_exception

    monkeypatch.setattr(protocols, "_BATCH_BYTES", rows * 16 * 2**4)  # one batch of ``rows`` rounds per queue at n=4
    carve_draws, calls = protocols.carve_draws, []

    def third_draw_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("injected")
        return carve_draws(*args, **kwargs)

    monkeypatch.setattr(protocols, "carve_draws", third_draw_fails)
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    bundle = RngBundle.from_seed(5, 4)
    with pytest.raises(ValueError, match="injected") as info:
        protocols.avka(roles, 10, 2, qsim.ghz_state(4), Network(4, bundle.network), bundle)
    assert describe_exception(info.value)["round"] == 2 * rows
