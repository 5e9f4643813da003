"""Correctness tests for the five protocols, with exhaustive oracles."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anoncka import qsim
from anoncka.netmodel import ChannelAbort, Network, RoleAssignment
from anoncka import protocols
from anoncka.protocols import (
    KEYGEN_ROUND,
    VERIFICATION_ROUND,
    aka,
    ame,
    avka,
    notification,
    verification,
)
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle

from oracles import enumerate_notification_tables, even_y_settings, exact_verification_acceptance


def fresh(seed: int, n: int) -> tuple[Network, RngBundle]:
    bundle = RngBundle.from_seed(seed, n)
    return Network(n, bundle.network), bundle


def all_roles(n: int):
    for alice in range(n):
        others = [p for p in range(n) if p != alice]
        for size in range(n):
            for receivers in itertools.combinations(others, size):
                yield RoleAssignment(n=n, alice=alice, receivers=frozenset(receivers))


# --- notification --------------------------------------------------------------------


def test_notification_no_receivers_all_zero():
    roles = RoleAssignment(n=4, alice=1, receivers=frozenset())
    net, bundle = fresh(0, 4)
    assert notification(roles, net, bundle).notified == (0, 0, 0, 0)


@pytest.mark.parametrize("seed", range(10))
def test_notification_single_receiver_every_seed(seed):
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({2}))
    net, bundle = fresh(seed, 4)
    assert notification(roles, net, bundle).notified == (0, 0, 1, 0)


def test_notification_table_oracle_exhaustive_n3():
    # independent XOR-table enumeration: every valid randomness branch of a
    # target round yields the membership bit
    n = 3
    for alice in range(n):
        receiver_choices = [frozenset(), *(frozenset({r}) for r in range(n) if r != alice)]
        for receivers in receiver_choices:
            for target in range(n):
                expected = int(target in receivers)
                for z in enumerate_notification_tables(n, alice, receivers, target):
                    assert z == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_notification_roles_sweep(n):
    seeds = range(20) if n == 3 else (100 + n,)
    for seed in seeds:
        for roles in all_roles(n):
            net, bundle = fresh(seed, n)
            out = notification(roles, net, bundle)
            assert out.notified == tuple(int(i in roles.receivers) for i in range(n))
            assert net.counters.private_bits_sent == n**3 + n**2


# --- anonymous multiparty entanglement ------------------------------------------------


def test_ame_all_parties_participants():
    roles = RoleAssignment(n=3, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(1, 3)
    out = ame(ghz_state(3), roles, net, bundle)
    assert out.corrected is False
    assert out.held_back == ()
    assert np.array_equal(out.participant_state.amplitudes, ghz_state(3).amplitudes)


def test_ame_rejects_size_mismatch():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    net, bundle = fresh(2, 4)
    with pytest.raises(ValueError, match="qubits"):
        ame(ghz_state(3), roles, net, bundle)


def test_ame_both_bystander_outcomes_give_ghz3():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    for outcome in (0, 1):
        net, bundle = fresh(3, 4)
        out = ame(ghz_state(4), roles, net, bundle, forced_outcomes={3: outcome})
        assert out.branch_probability == pytest.approx(0.5, abs=1e-12)
        assert qsim.fidelity_pure(out.participant_state, ghz_state(3)) == pytest.approx(1.0, abs=1e-12)
        assert out.corrected == bool(outcome)
        assert out.announced_bits[3] == outcome


def test_ame_exhaustive_branches_n5_pair():
    # three bystanders -> eight branches, each with probability 1/8, each
    # correcting to the two-party GHZ (Bell) state
    roles = RoleAssignment(n=5, alice=1, receivers=frozenset({3}))
    bystanders = sorted(roles.non_participants)
    for outcomes in itertools.product((0, 1), repeat=3):
        net, bundle = fresh(4, 5)
        forced = dict(zip(bystanders, outcomes))
        out = ame(ghz_state(5), roles, net, bundle, forced_outcomes=forced)
        assert out.branch_probability == pytest.approx(1 / 8, abs=1e-12)
        assert qsim.fidelity_pure(out.participant_state, ghz_state(2)) == pytest.approx(1.0, abs=1e-10)


def test_ame_broadcast_covers_everyone_and_announces_true_outcomes():
    roles = RoleAssignment(n=5, alice=0, receivers=frozenset({4}))
    net, bundle = fresh(5, 5)
    out = ame(ghz_state(5), roles, net, bundle, forced_outcomes={1: 1, 2: 0, 3: 1})
    announce = [e for e in net.transcript if e.phase == "ame:announce"]
    assert {e.sender for e in announce} == set(range(5))
    assert out.announced_bits[1] == 1 and out.announced_bits[2] == 0 and out.announced_bits[3] == 1
    # correction happened: parity of (1, 0, 1) is even -> no Z
    assert out.corrected is False


def test_ame_participant_reorder_uses_alice_first():
    # participants-only run on a computational basis state: the output is the
    # input with qubits permuted to (alice, receivers ascending)
    roles = RoleAssignment(n=3, alice=2, receivers=frozenset({0, 1}))
    net, bundle = fresh(6, 3)
    out = ame(qsim.basis_state(3, 0b011), roles, net, bundle)
    assert np.argmax(np.abs(out.participant_state.amplitudes)) == 0b101


def test_ame_announced_bits_uniform_on_ghz():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({2}))
    bundle = RngBundle.from_seed(7, 4)
    counts = np.zeros(16)
    rounds = 20_000
    for _ in range(rounds):
        net = Network(4, bundle.network)
        out = ame(ghz_state(4), roles, net, bundle)
        counts[int("".join(map(str, out.announced_bits)), 2)] += 1
    freqs = counts / rounds
    stderr = np.sqrt((1 / 16) * (15 / 16) / rounds)
    assert np.all(np.abs(freqs - 1 / 16) < 5 * stderr)


def test_ame_aborts_on_missing_announcement():
    class DroppingNetwork(Network):
        def broadcast_round(self, announcements, phase, expected=None):
            announcements = {p: b for p, b in announcements.items() if p != 2}
            return super().broadcast_round(announcements, phase, expected)

    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(8, 4)
    net = DroppingNetwork(4, bundle.network)
    with pytest.raises(ChannelAbort):
        ame(ghz_state(4), roles, net, bundle)


# --- verification ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_verification_accepts_ghz_exhaustively(k):
    # all even-Y settings, all outcome branches, through the protocol path
    for bits in even_y_settings(k):
        forced_bases = {p: bits[p] for p in range(k) if p != 0}
        # party 0 is the verifier; its reset recreates bits[0] iff the others
        # sum to bits[0] mod 2, so only enumerate settings consistent with it
        if sum(forced_bases.values()) % 2 != bits[0]:
            continue
        total = 0.0
        for outcomes in itertools.product((0, 1), repeat=k):
            net, bundle = fresh(9, k)
            try:
                record = verification(
                    ghz_state(k), 0, net, bundle,
                    forced_bases=forced_bases,
                    forced_outcomes=dict(enumerate(outcomes)),
                )
            except ValueError:
                continue  # zero-probability branch
            assert record.accepted, (bits, outcomes)
            assert sum(record.basis_bits) % 2 == 0
            total += record.branch_probability
        assert total == pytest.approx(1.0, abs=1e-10)


def test_verification_all_zeros_accepts_half():
    k = 4
    rate = exact_verification_acceptance(np.diag([1.0] + [0.0] * 15))
    assert rate == pytest.approx(0.5, abs=1e-12)
    bundle = RngBundle.from_seed(10, k)
    hits = 0
    trials = 4000
    for _ in range(trials):
        net = Network(k, bundle.network)
        hits += verification(qsim.basis_state(k, 0), 0, net, bundle).accepted
    assert hits / trials == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / trials))


@pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
def test_verification_rotated_ghz_rate(theta):
    k = 4
    state = qsim.rotated_ghz(k, theta)
    expected = np.cos(theta / 2) ** 2
    oracle = exact_verification_acceptance(qsim.density_from_pure(state).entries)
    assert oracle == pytest.approx(expected, abs=1e-12)
    bundle = RngBundle.from_seed(11, k)
    trials = 4000
    hits = 0
    for _ in range(trials):
        net = Network(k, bundle.network)
        hits += verification(state, 0, net, bundle).accepted
    assert hits / trials == pytest.approx(expected, abs=4 * np.sqrt(expected * (1 - expected) / trials))


def test_verification_verifier_index_checked():
    net, bundle = fresh(12, 3)
    with pytest.raises(IndexError):
        verification(ghz_state(3), 3, net, bundle)


def test_verification_basis_sum_always_even():
    bundle = RngBundle.from_seed(13, 4)
    for _ in range(200):
        net = Network(4, bundle.network)
        record = verification(ghz_state(4), 0, net, bundle)
        assert sum(record.basis_bits) % 2 == 0


# --- keygen --------------------------------------------------------------------------


def test_parity_test_scores_rows_and_rejects_odd_basis_sums():
    assert protocols._parity_test((1, 1, 0), (1, 0, 0)) is True
    assert protocols._parity_test((0, 0, 0), (1, 0, 0)) is False
    # a batch: one array over shots per party
    bases = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 1]])
    outcomes = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert protocols._parity_test(bases.T, outcomes.T).tolist() == [True, False, True]
    with pytest.raises(ValueError, match="even basis sum"):
        protocols._parity_test((1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="even basis sum"):
        protocols._parity_test(np.array([[1, 1, 0], [1, 0, 0]]).T, np.zeros((3, 2), dtype=int))


def test_parity_test_check_survives_optimised_python():
    # An assert would vanish under -O and accept the odd-sum setting.
    code = (
        "from anoncka.protocols import _parity_test\n"
        "try:\n    _parity_test((1, 0, 0), (0, 0, 0))\nexcept ValueError:\n    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "raised"


def test_aka_raises_when_notification_misses_a_receiver(monkeypatch):
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(28, 4)
    wrong = protocols.NotificationOutcome(notified=(0, 1, 0, 0), transcript=())
    monkeypatch.setattr(protocols, "notification", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="exactly the chosen receivers"):
        aka(roles, [ghz_state(4)], net, bundle)


def test_keygen_on_ghz_bits_agree_and_are_uniform():
    rng = np.random.default_rng(14)
    ones = 0
    rounds = 10_000
    for _ in range(rounds):
        bits, _ = qsim.measure_string(ghz_state(3), "ZZZ", [rng] * 3)
        assert len(set(bits)) == 1
        ones += bits[0]
    assert ones / rounds == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / rounds))


def test_keygen_on_basis_state_deterministic():
    bits, rest = qsim.measure_string(qsim.basis_state(3, 0b010), "ZZ", [np.random.default_rng(15)] * 2)
    assert bits == (0, 1)
    assert rest.n_qubits == 1 and abs(rest.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_keygen_classical_mixture_mimics_ghz():
    rng = np.random.default_rng(16)
    ones = 0
    rounds = 4000
    for _ in range(rounds):
        state = qsim.basis_state(3, 0 if rng.random() < 0.5 else 7)
        bits, _ = qsim.measure_string(state, "ZZZ", [rng] * 3)
        assert len(set(bits)) == 1
        ones += bits[0]
    assert ones / rounds == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / rounds))


# --- aka -----------------------------------------------------------------------------


def test_aka_zero_states_empty_keys():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(17, 4)
    keys = aka(roles, [], net, bundle)
    assert keys == {0: "", 1: "", 2: ""}


def test_aka_perfect_source_identical_keys():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(18, 4)
    keys = aka(roles, [ghz_state(4)] * 100, net, bundle)
    values = set(keys.values())
    assert len(values) == 1
    bits = values.pop()
    assert len(bits) == 100
    assert abs(bits.count("1") / 100 - 0.5) <= 0.15


def test_aka_werner_disagreement_matches_prediction():
    # carved state is p |GHZ3><GHZ3| + (1-p) I/8, so two participants'
    # Z-bits differ with probability (1-p)/2
    p = 0.8
    rounds = 10_000
    ensemble = qsim.werner_ghz(4, p)
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(19, 4)
    states = [qsim.sample_ensemble(ensemble, bundle.source) for _ in range(rounds)]
    keys = aka(roles, states, net, bundle)
    a, b = keys[0], keys[1]
    rate = sum(x != y for x, y in zip(a, b)) / rounds
    expected = (1 - p) / 2
    assert rate == pytest.approx(expected, abs=4 * np.sqrt(expected * (1 - expected) / rounds))


# --- avka ----------------------------------------------------------------------------


def test_avka_denominator_one_is_all_keygen():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(20, 4)
    result = avka(roles, 50, 1, lambda: ghz_state(4), net, bundle)
    assert all(r.round_type == KEYGEN_ROUND for r in result.rounds)
    assert all(len(bits) == 50 for bits in result.key_bits.values())
    assert result.validated and not result.aborted


def test_avka_round_types_follow_coin_transcript():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(21, 4)
    result = avka(roles, 80, 3, lambda: ghz_state(4), net, bundle)
    coins = [e.bits for e in net.transcript if e.phase.endswith(":coin")]
    assert len(coins) == 80
    for coin, round_ in zip(coins, result.rounds):
        assert round_.round_type == (KEYGEN_ROUND if coin == "1" else VERIFICATION_ROUND)
    keygen_count = sum(r.round_type == KEYGEN_ROUND for r in result.rounds)
    assert all(len(bits) == keygen_count for bits in result.key_bits.values())


def test_avka_perfect_source_validates_and_keys_agree():
    roles = RoleAssignment(n=5, alice=2, receivers=frozenset({0, 4}))
    net, bundle = fresh(22, 5)
    result = avka(roles, 60, 3, lambda: ghz_state(5), net, bundle)
    assert result.validated
    assert all(r.verification.accepted for r in result.rounds if r.round_type == VERIFICATION_ROUND)
    assert len(set(result.key_bits.values())) == 1


def test_avka_ghz_minus_source_rejected_every_round():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(23, 4)
    bad = qsim.rotated_ghz(4, np.pi)
    result = avka(roles, 40, 2, lambda: bad, net, bundle)
    verifications = [r for r in result.rounds if r.round_type == VERIFICATION_ROUND]
    assert verifications and all(not r.verification.accepted for r in verifications)
    assert not result.validated


def test_avka_rotated_source_rejection_rate():
    # per-round rejection is sin^2(theta/2) = eps^2 = 0.25 at theta = pi/3
    theta = np.pi / 3
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(24, 4)
    result = avka(roles, 200, 2, lambda: qsim.rotated_ghz(4, theta), net, bundle)
    verifications = [r for r in result.rounds if r.round_type == VERIFICATION_ROUND]
    failed = sum(not r.verification.accepted for r in verifications) / len(verifications)
    assert failed == pytest.approx(0.25, abs=0.05 + 4 * np.sqrt(0.25 * 0.75 / len(verifications)))


def test_avka_abort_recorded():
    class DropOnce(Network):
        dropped = False

        def broadcast_round(self, announcements, phase, expected=None):
            if phase.startswith("round[5]") and not self.dropped:
                self.dropped = True
                announcements = {p: b for p, b in announcements.items() if p != 3}
            return super().broadcast_round(announcements, phase, expected)

    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    bundle = RngBundle.from_seed(25, 4)
    net = DropOnce(4, bundle.network)
    result = avka(roles, 20, 2, lambda: ghz_state(4), net, bundle)
    assert result.aborted and not result.validated
    assert len(result.rounds) == 5


def test_avka_verification_round_has_all_announcers():
    roles = RoleAssignment(n=5, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(26, 5)
    avka(roles, 30, 2, lambda: ghz_state(5), net, bundle)
    rounds = {e.phase for e in net.transcript if e.phase.endswith("verify:announce")}
    assert rounds
    for phase in rounds:
        announcers = {e.sender for e in net.transcript if e.phase == phase}
        assert announcers == set(range(5))


def test_avka_parameter_validation():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    net, bundle = fresh(27, 4)
    with pytest.raises(ValueError):
        avka(roles, -1, 2, lambda: ghz_state(4), net, bundle)
    with pytest.raises(ValueError):
        avka(roles, 5, 0, lambda: ghz_state(4), net, bundle)
    with pytest.raises(ValueError):
        avka(roles, 5, 2, lambda: ghz_state(4), net, bundle, withholder=1)
