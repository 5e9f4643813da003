"""Tests for the dishonest behaviours and their detection statistics."""

from __future__ import annotations

import numpy as np
import pytest

from anoncka import qsim
from anoncka.adversary import (
    AdversaryRun,
    ConfigurationError,
    DishonestSource,
    HonestCurious,
    WithholdingAgent,
    run_with_adversary,
)
from anoncka.netmodel import Network, RoleAssignment
from anoncka.protocols import KEYGEN_ROUND, VERIFICATION_ROUND, avka
from anoncka.qsim import Basis, ghz_state
from anoncka.rng import RngBundle

from oracles import density_from_pure

ROLES = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))


def run(strategy, seed=0, num_states=40, denom=2, roles=ROLES, source=None) -> AdversaryRun:
    bundle = RngBundle.from_seed(seed, roles.n)
    net = Network(roles.n, bundle.network)
    return run_with_adversary(roles, num_states, denom, strategy, net, bundle, source=source)


def test_strategy_validation():
    with pytest.raises(ConfigurationError, match="Alice"):
        run(HonestCurious(coalition=frozenset({0, 3})))
    with pytest.raises(ConfigurationError, match="corruption"):
        run(HonestCurious(coalition=frozenset({1, 2, 3})))
    with pytest.raises(ConfigurationError, match="non-participant"):
        run(WithholdingAgent(party=1))
    with pytest.raises(ConfigurationError, match="4"):
        run(DishonestSource(generator=ghz_state(3)))
    with pytest.raises(ConfigurationError, match="unknown"):
        run("not a strategy")


@pytest.mark.parametrize(
    "roles, strategy",
    [
        # a withholder is a coalition of one, over the bound n - 2 = 0
        (RoleAssignment(n=2, alice=0, receivers=frozenset()), WithholdingAgent(party=1)),
        # a dishonest source corrupts no party, but n - 2 = -1
        (RoleAssignment(n=1, alice=0, receivers=frozenset()), DishonestSource(generator=ghz_state(1))),
    ],
)
def test_coalition_over_the_bound_rejected_before_any_round(roles, strategy):
    bundle = RngBundle.from_seed(1, roles.n)
    streams = [*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary]
    before = [g.bit_generator.state for g in streams]
    net = Network(roles.n, bundle.network)
    with pytest.raises(ConfigurationError, match="corruption"):
        run_with_adversary(roles, 3, 2, strategy, net, bundle)
    assert len(net.transcript) == 0
    assert [g.bit_generator.state for g in streams] == before


def test_honest_curious_changes_nothing():
    strategy = HonestCurious(coalition=frozenset({3}))
    watched = run(strategy, seed=5).result

    bundle = RngBundle.from_seed(5, 4)
    net = Network(4, bundle.network)
    honest = avka(ROLES, 40, 2, ghz_state(4), net, bundle)
    assert watched == honest


def test_honest_curious_view_is_filtered():
    out = run(HonestCurious(coalition=frozenset({3})), seed=6)
    assert out.adversary_key_guess == ""
    assert all(
        e.kind == "broadcast" or e.sender == 3 or e.receiver == 3
        for e in out.view.visible_entries
    )


def test_dishonest_source_ghz_passes():
    out = run(DishonestSource(generator=ghz_state(4)), seed=7, num_states=60)
    assert out.result.validated


def test_dishonest_source_zeros_detected_half_the_time():
    zeros = qsim.basis_state(4, 0)
    out = run(DishonestSource(generator=zeros), seed=8, num_states=4000, denom=2)
    ver = [r for r in out.result.rounds if r.round_type == VERIFICATION_ROUND]
    rate = sum(r.verification.accepted for r in ver) / len(ver)
    assert rate == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / len(ver)))
    assert not out.result.validated


def test_dishonest_source_ghz_minus_always_rejected():
    minus = qsim.rotated_ghz(4, np.pi)
    out = run(DishonestSource(generator=minus), seed=9, num_states=200, denom=2)
    ver = [r for r in out.result.rounds if r.round_type == VERIFICATION_ROUND]
    assert ver and all(not r.verification.accepted for r in ver)


def test_detection_monotone_in_rotation_angle():
    rates = []
    for theta in np.linspace(0.0, np.pi, 9):
        out = run(
            DishonestSource(generator=qsim.rotated_ghz(4, float(theta))),
            seed=10,
            num_states=10_000,
            denom=1_000_000,  # essentially every round verifies
        )
        ver = [r for r in out.result.rounds if r.round_type == VERIFICATION_ROUND]
        rates.append(sum(r.verification.accepted for r in ver) / len(ver))
    for previous, current in zip(rates, rates[1:]):
        assert current <= previous + 0.02


def test_withholding_acceptance_half_and_perfect_guess():
    out = run(WithholdingAgent(party=3, later_basis=Basis.Z), seed=11, num_states=4000, denom=2)
    ver = [r for r in out.result.rounds if r.round_type == VERIFICATION_ROUND]
    keygen = [r for r in out.result.rounds if r.round_type == KEYGEN_ROUND]
    rate = sum(r.verification.accepted for r in ver) / len(ver)
    assert rate == pytest.approx(0.5, abs=0.02)
    assert len(out.adversary_key_guess) == len(keygen)
    for guess, round_ in zip(out.adversary_key_guess, keygen):
        assert int(guess) == round_.keygen_bits[0]
    assert not out.result.validated


def test_withholding_reduced_state_is_classical_ghz_mixture():
    # partial trace of the joint (m+2)-party GHZ over the withheld last qubit
    joint = ghz_state(4)
    rho = density_from_pure(joint).entries.reshape(8, 2, 8, 2)
    reduced = rho[:, 0, :, 0] + rho[:, 1, :, 1]
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(reduced, expected, atol=1e-12)


def test_withholding_keys_still_agree_among_participants():
    out = run(WithholdingAgent(party=3), seed=12, num_states=400, denom=2)
    assert len(set(out.result.key_bits.values())) == 1
