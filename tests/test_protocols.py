"""Correctness tests for the five protocols, with exhaustive oracles."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anoncka import qsim
from anoncka.adversary import ConfigurationError, DishonestSource, HonestCurious, WithholdingAgent, run_with_adversary
from anoncka.netmodel import ChannelAbort, Network, RoleAssignment
from anoncka import protocols
from anoncka.protocols import (
    KEYGEN_ROUND,
    VERIFICATION_ROUND,
    aka,
    ame,
    avka,
    carve,
    carve_draws,
    notification,
    parity_draws,
    parity_measure,
    verification,
)
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle

from oracles import (
    _test_announcements,
    avka_batch_by_batch,
    branch_probability,
    carve_dense,
    dense_rows,
    density_from_pure,
    enumerate_notification_tables,
    even_y_settings,
    exact_verification_acceptance,
    fidelity_pure,
    forcing,
)


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
    assert np.array_equal(out.participant_state.amplitudes, ghz_state(3).amplitudes)


@pytest.mark.parametrize("n, three", [(4, False), (16, False), (16, True)])
def test_ame_then_avka_scan_a_fresh_pure_state_once(n, three):
    # carve reads a pure source's cached support at any n, so an ame and then
    # an avka on one fresh state scan its 2^n amplitudes once between them,
    # also when it has three nonzero amplitudes and takes the dense tree.
    roles = RoleAssignment(n=n, alice=0, receivers=frozenset({1}))
    state = qsim.rotated_ghz(n, 0.3)
    if three:
        amps = np.zeros(2**n, dtype=complex)
        amps[[0, 5, -1]] = np.sqrt(1 / 3)
        state = qsim.StateVector(n, amps)
    scan = mock.Mock(wraps=qsim._pair_support)
    with mock.patch.object(qsim, "_pair_support", scan), mock.patch.object(protocols, "_pair_support", scan):
        ame(state, roles, *fresh(6, n))
        avka(roles, 20, 2, state, *fresh(7, n))
    assert scan.call_count == 1


def test_ame_rejects_size_mismatch():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    net, bundle = fresh(2, 4)
    with pytest.raises(ValueError, match="qubits"):
        ame(ghz_state(3), roles, net, bundle)


def forced_rows(roles: RoleAssignment, outcomes) -> np.ndarray:
    """A (rows, n) outcomes array by party, for ``forcing``: row i puts
    ``outcomes[i]`` on the bystanders in ascending order."""
    rows = np.zeros((len(outcomes), roles.n), dtype=np.int8)
    rows[:, sorted(roles.non_participants)] = outcomes
    return rows


def test_ame_both_bystander_outcomes_give_ghz3():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    rows = forced_rows(roles, [[0], [1]])
    amps = np.broadcast_to(ghz_state(4).amplitudes, (2, 16))
    coins, _ = carve_draws(roles, RngBundle.from_seed(3, 4), 2)
    announced, probability, corrected, carved = carve(amps, np.arange(2), roles, (coins, forcing(rows)))
    assert probability == pytest.approx([0.5, 0.5], abs=1e-12)
    for outcome in (0, 1):
        assert fidelity_pure(qsim.StateVector(3, carved[outcome]), ghz_state(3)) == pytest.approx(1.0, abs=1e-12)
        assert corrected[outcome] == bool(outcome)
        assert announced[outcome, 3] == outcome


def test_ame_exhaustive_branches_n5_pair():
    # three bystanders -> eight branches, each with probability 1/8, each
    # correcting to the two-party GHZ (Bell) state
    roles = RoleAssignment(n=5, alice=1, receivers=frozenset({3}))
    rows = forced_rows(roles, list(itertools.product((0, 1), repeat=3)))
    amps = np.broadcast_to(ghz_state(5).amplitudes, (8, 32))
    coins, _ = carve_draws(roles, RngBundle.from_seed(4, 5), 8)
    announced, probability, _, carved = carve(amps, np.arange(8), roles, (coins, forcing(rows)))
    bystanders = sorted(roles.non_participants)
    assert np.array_equal(announced[:, bystanders], rows[:, bystanders])
    assert probability == pytest.approx([1 / 8] * 8, abs=1e-12)
    for row in carved:
        assert fidelity_pure(qsim.StateVector(2, row), ghz_state(2)) == pytest.approx(1.0, abs=1e-10)


def test_ame_broadcast_covers_everyone_and_announces_true_outcomes():
    roles = RoleAssignment(n=5, alice=0, receivers=frozenset({4}))
    net, bundle = fresh(5, 5)
    out = ame(ghz_state(5), roles, net, bundle)
    announce = [e for e in net.transcript if e.phase == "ame:announce"]
    assert {e.sender for e in announce} == set(range(5))
    assert {e.sender: int(e.bits) for e in announce} == dict(enumerate(out.announced_bits))
    # the bystanders announce the outcomes the same draws give the batch step
    draws = carve_draws(roles, RngBundle.from_seed(5, 5), 1)
    rows = carve(ghz_state(5).amplitudes[None], np.zeros(1, dtype=np.intp), roles, draws)
    assert tuple(rows.announced[0]) == out.announced_bits
    assert out.corrected == bool(sum(out.announced_bits[p] for p in (1, 2, 3)) % 2)
    # forced bystander outcomes (1, 0, 1) are announced as given; even parity -> no Z
    draws = carve_draws(roles, bundle, 1)[0], forcing(forced_rows(roles, [[1, 0, 1]]))
    forced = carve(ghz_state(5).amplitudes[None], np.zeros(1, dtype=np.intp), roles, draws)
    assert forced.announced[0, 1:4].tolist() == [1, 0, 1]
    assert not forced.corrected[0]


@st.composite
def carve_calls(draw):
    """A carve call: n in 3..16, Alice and one to three receivers anywhere, a
    withholder or none, 1..16 rounds of a GHZ, rotated GHZ, GHZ' (n=4), basis,
    Werner-drawn (an undrawn row 0 dropped, as ``_queued`` does) or random
    dense source, random or forced uniforms, and the source given or not;
    last, whether the support tree must give the dense tree's bytes."""
    n = draw(st.integers(3, 16))
    parties = draw(st.permutations(range(n)))
    receivers = frozenset(parties[1 : 1 + draw(st.integers(1, min(3, n - 1)))])
    roles = RoleAssignment(n=n, alice=parties[0], receivers=receivers)
    bystanders = sorted(roles.non_participants)
    withholding = frozenset(draw(st.sets(st.sampled_from(bystanders), max_size=1)) if bystanders else ())
    kind = draw(st.sampled_from(["ghz", "rotated", "basis", "werner", "dense"] + ["ghz_prime"] * (n == 4)))
    rounds, seed = draw(st.integers(1, 16)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "werner":
        source = qsim.werner_ghz(n, draw(st.floats(0.0, 1.0)))
        states, index = qsim.sample_ensemble(source, rng, rounds)
        if not np.count_nonzero(index == 0):  # the kernel measures only states drawn
            states, index = states[1:], index - 1
    else:
        if kind == "ghz":
            state = ghz_state(n)
        elif kind == "rotated":
            state = qsim.rotated_ghz(n, draw(st.floats(0.0, 2 * np.pi)))
        elif kind == "basis":
            state = qsim.basis_state(n, draw(st.integers(0, 2**n - 1)))
        elif kind == "ghz_prime":
            state = qsim.ghz_prime_state()
        else:
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = qsim.StateVector(n, amps / np.linalg.norm(amps))
        source, states, index = state, state.amplitudes[None], np.zeros(rounds, dtype=np.intp)
    coins, uniforms = carve_draws(roles, RngBundle.from_seed(seed, n), rounds, withholding)
    if draw(st.booleans()):
        uniforms = forcing(rng.integers(0, 2, size=uniforms.shape))
    source = source if draw(st.booleans()) else None
    sparse = kind != "dense" and len(bystanders) > len(withholding)
    return roles, withholding, states, index, (coins, uniforms), source, sparse, kind != "rotated"


# A rotated GHZ at n=4 whose support tree probability is 0x1.ffffffffffffbp-3
# and the dense tree's 0x1.ffffffffffff9p-3, with one or two BLAS threads.
_ROTATED = qsim.rotated_ghz(4, 0.5)
_ROTATED_DRAWS = np.array([[1, 1, 0, 0]], dtype=np.int8), np.array([[0, 0, 0.8382711479571602, 0.3644334333698406]])
_ROTATED_CALL = (
    RoleAssignment(n=4, alice=0, receivers=frozenset({1})), frozenset(), _ROTATED.amplitudes[None],
    np.zeros(1, dtype=np.intp), _ROTATED_DRAWS, _ROTATED, True, False,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(carve_calls())
@example(_ROTATED_CALL)
def test_carve_matches_the_dense_reference_bit_for_bit(call):
    # The support tree gives the frozen dense carve's announcements and
    # corrections, and on GHZ, GHZ', basis, Werner-drawn and dense states
    # its probabilities and carved rows by bytes, signed zeros included;
    # states with three or more nonzero amplitudes stay dense. np.vecdot
    # groups a row's products by its layout, so a rotated GHZ's differ
    # within rounding.
    roles, withholding, states, index, draws, source, sparse, exact = call
    with mock.patch.object(protocols, "_pair_levels", wraps=protocols._pair_levels) as levels:
        got = carve(states, index, roles, draws, withholding=withholding, source=source)
    want = carve_dense(states, index, roles, draws, withholding=withholding)
    assert levels.called == sparse
    assert np.array_equal(got.announced, want.announced) and np.array_equal(got.corrected, want.corrected)
    assert got.carved.shape == want.carved.shape
    if exact:
        assert got.probability.tobytes() == want.probability.tobytes() and got.carved.tobytes() == want.carved.tobytes()
    else:
        np.testing.assert_allclose(got.probability, want.probability, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.carved, want.carved, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [5, 8, 13, 16])
def test_carve_of_many_werner_states_matches_the_dense_reference_bit_for_bit(n):
    # Mostly noise draws: many basis states share one support tree, and
    # entries that differ only in bystander bits meet in one slot.
    roles = RoleAssignment(n=n, alice=1, receivers=frozenset({3}))
    for seed in range(4):
        withholding = frozenset({n - 1}) if seed % 2 else frozenset()
        states, index = qsim.sample_ensemble(qsim.werner_ghz(n, 0.2), np.random.default_rng(seed), 16)
        draws = carve_draws(roles, RngBundle.from_seed(seed, n), 16, withholding)
        got = carve(states, index, roles, draws, withholding=withholding)
        want = carve_dense(states, index, roles, draws, withholding=withholding)
        assert len(states) > 8 and np.array_equal(got.announced, want.announced)
        assert got.probability.tobytes() == want.probability.tobytes() and got.carved.tobytes() == want.carved.tobytes()


@pytest.mark.parametrize("n", [6, 16])
def test_carve_names_an_impossible_branch_as_the_dense_reference_does(n):
    # The last bystander holds |+>, so it cannot announce 1; forcing it
    # raises on both trees with the qubit it has when measured, not 0.
    roles = RoleAssignment(n=n, alice=0, receivers=frozenset({1}))
    amps = np.zeros(2**n, dtype=complex)
    amps[[0, 1]] = np.sqrt(0.5)
    coins, _ = carve_draws(roles, RngBundle.from_seed(n, n), 1)
    draws = coins, forcing(np.eye(1, n, n - 1, dtype=np.int8))
    errors = []
    for run in (carve, carve_dense):
        with pytest.raises(ValueError) as error:
            run(amps[None], np.zeros(1, dtype=np.intp), roles, draws)
        errors.append(str(error.value))
    assert errors == ["branch (qubit=2, basis=X, outcome=1) has probability ~0"] * 2


def test_pure_sixteen_qubit_carve_runs_on_its_support_in_bounded_memory():
    # Sixteen rounds of a pure n=16 source peak far below one 1 MiB dense
    # level, with the source given or not; an n=16 state with three
    # nonzero amplitudes still takes the dense tree, which peaks above
    # 2 MiB at its 1 MiB levels.
    roles = RoleAssignment(n=16, alice=0, receivers=frozenset({1, 2}))
    draws = carve_draws(roles, RngBundle.from_seed(8, 16), 16)
    three = np.zeros(2**16, dtype=complex)
    three[[0, 5, -1]] = np.sqrt(1 / 3)
    ghz = ghz_state(16)

    def peak(amps, source=None) -> int:
        tracemalloc.start()
        try:
            carve(amps[None], np.zeros(16, dtype=np.intp), roles, draws, source=source)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert ghz._support.tolist() == [0, 2**16 - 1]
    assert peak(ghz.amplitudes, ghz) < 256 * 1024
    assert peak(ghz.amplitudes) < 256 * 1024
    assert qsim.StateVector(16, three)._support is None
    assert peak(three) >= 2 * 2**20


def test_cached_layouts_are_shared_read_only_arrays():
    # The notification's layout and the support tree's level plan are built
    # once per key: a second call returns the same arrays, none writable.
    plan = ((0, 2**16 - 1), 16, tuple(range(3, 16)))
    for cached, args in ((protocols._notification_layout, (5,)), (protocols._pair_levels, plan)):
        first, second = cached(*args), cached(*args)
        assert all(a is b for a, b in zip(first, second, strict=True))
        for array in first:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array


def test_runs_agree_with_the_caches_cleared_and_warm():
    # A cold and a warm cache give the same results, transcripts, counters
    # and stream states: an n=16 avka run plans its support tree and lays out
    # its notification, an n=5 notification lays out its own.
    roles16 = RoleAssignment(n=16, alice=0, receivers=frozenset({1, 2}))
    roles5 = RoleAssignment(n=5, alice=2, receivers=frozenset({0, 4}))

    def runs():
        net16, bundle16 = fresh(21, 16)
        result = avka(roles16, 16, 4, ghz_state(16), net16, bundle16)
        net5, bundle5 = fresh(22, 5)
        outcome = notification(roles5, net5, bundle5)
        streams = [
            s.bit_generator.state for b in (bundle16, bundle5) for s in (*b.parties, b.network, b.coin, b.source, b.adversary)
        ]
        nets = (net16, net5)
        return result, outcome.notified, outcome.shares.tobytes(), [n.transcript for n in nets], [n.counters for n in nets], streams

    protocols._notification_layout.cache_clear()
    protocols._pair_levels.cache_clear()
    cold = runs()
    hits = protocols._notification_layout.cache_info().hits, protocols._pair_levels.cache_info().hits
    warm = runs()
    assert protocols._notification_layout.cache_info().hits == hits[0] + 2
    assert protocols._pair_levels.cache_info().hits > hits[1]
    assert warm == cold


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
        def broadcast_rounds(self, phases, bits, expected=None):
            bits = np.array(bits)
            bits[:, 2] = -1
            return super().broadcast_rounds(phases, bits, expected)

    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(8, 4)
    net = DroppingNetwork(4, bundle.network)
    with pytest.raises(ChannelAbort):
        ame(ghz_state(4), roles, net, bundle)


# --- verification ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_verification_accepts_ghz_exhaustively(k):
    # all even-Y settings, all outcome branches, as forced rows of one batch
    ghz = ghz_state(k).amplitudes
    bundle = RngBundle.from_seed(9, k)
    holders = tuple(range(k))

    def forced(bases, outcomes):
        """The bundle's parity draws with ``bases`` and ``outcomes`` forced."""
        return parity_draws(holders, 0, bundle, len(bases))._replace(bases=np.asarray(bases), uniforms=forcing(outcomes))

    for bits in even_y_settings(k):
        ops = "".join("Y" if b else "X" for b in bits)
        branches = list(itertools.product((0, 1), repeat=k))
        oracle = [branch_probability(ghz, ops, outcomes) for outcomes in branches]
        possible = [o for o, p in zip(branches, oracle) if p > 1e-12]
        # party 0 is the verifier; each setting already has the even Y count its reset makes
        bases = np.tile(bits, (len(possible), 1))
        record = parity_measure(np.broadcast_to(ghz, (len(possible), 2**k)), holders, 0, forced(bases, possible))
        assert record.accepted.all(), (bits, possible)
        assert np.array_equal(record.bases, bases)
        assert np.array_equal(record.outcomes, possible)
        assert record.probability == pytest.approx([p for p in oracle if p > 1e-12], abs=1e-12)
        assert record.probability.sum() == pytest.approx(1.0, abs=1e-10)
        # every branch the oracle rules out is rejected as impossible
        for outcomes in set(branches) - set(possible):
            with pytest.raises(ValueError, match="probability"):
                parity_measure(ghz[None], holders, 0, forced([bits], [outcomes]))


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
    oracle = exact_verification_acceptance(density_from_pure(state).entries)
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


@pytest.mark.parametrize("step", ["ame", "verification"])
def test_one_row_call_records_one_row_of_payload_codes(step, monkeypatch):
    calls = {name: 0 for name in ("broadcast_round", "broadcast_rounds")}
    for name in calls:

        def counted(self, *args, _name=name, _method=getattr(Network, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, counted)
    if step == "ame":
        net, bundle = fresh(3, 4)
        ame(ghz_state(4), RoleAssignment(n=4, alice=0, receivers=frozenset({2})), net, bundle)
    else:
        net, bundle = fresh(3, 3)
        verification(ghz_state(3), 1, net, bundle)
    assert calls == {"broadcast_round": 0, "broadcast_rounds": 1}


def test_one_row_calls_record_what_a_string_round_records():
    # the same draws on a second bundle, broadcast as '0'/'1' strings
    for n, seed in itertools.product(range(2, 7), range(3)):
        state = qsim.rotated_ghz(n, 0.3)
        roles = RoleAssignment(n=n, alice=seed % n, receivers=frozenset({(seed + 1) % n}))
        net, bundle = fresh(seed, n)
        out = ame(state, roles, net, bundle)
        ref_net, ref = fresh(seed, n)
        announced, _, corrected, carved = carve(state.amplitudes[None], np.zeros(1, dtype=np.intp), roles, carve_draws(roles, ref, 1), source=state)
        ref_net.broadcast_round({p: str(b) for p, b in enumerate(announced[0])}, "ame:announce", expected=range(n))
        assert (out.announced_bits, out.corrected) == (tuple(announced[0]), corrected[0])
        assert out.participant_state.amplitudes.tobytes() == carved[0].tobytes()
        assert (tuple(net.transcript), net.counters) == (tuple(ref_net.transcript), ref_net.counters)
    for k, seed in itertools.product(range(2, 7), range(3)):
        state, holders = qsim.rotated_ghz(k, 0.3), tuple(range(k))
        for verifier in holders:
            net, bundle = fresh(seed, k)
            record = verification(state, verifier, net, bundle)
            ref_net, ref = fresh(seed, k)
            bits, results, pairs, _, accepted = parity_measure(state.amplitudes[None], holders, verifier, parity_draws(holders, verifier, ref, 1))
            ref_net.broadcast_round(_test_announcements(holders, verifier, bits[0], results[0], pairs[0]), "verify:announce", expected=holders)
            assert (record.basis_bits, record.outcomes, record.accepted) == (tuple(bits[0]), tuple(results[0]), accepted[0])
            assert (tuple(net.transcript), net.counters) == (tuple(ref_net.transcript), ref_net.counters)


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
    wrong = protocols.NotificationOutcome(notified=(0, 1, 0, 0), shares=np.zeros((4, 4, 4), dtype=np.int8))
    monkeypatch.setattr(protocols, "notification", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="exactly the chosen receivers"):
        aka(roles, 1, ghz_state(4), net, bundle)


def test_keygen_on_ghz_bits_agree_and_are_uniform():
    rng = np.random.default_rng(14)
    ones = 0
    rounds = 10_000
    for _ in range(rounds):
        bits = qsim.measure_string(ghz_state(3).amplitudes[None], "ZZZ", rng.random((3, 1)).T)[0][0].tolist()
        assert len(set(bits)) == 1
        ones += bits[0]
    assert ones / rounds == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / rounds))


def test_keygen_on_basis_state_deterministic():
    state = qsim.basis_state(3, 0b010)
    bits, rest = qsim.measure_string(state.amplitudes[None], "ZZ", np.random.default_rng(15).random((2, 1)).T)
    assert bits[0].tolist() == [0, 1]
    assert rest.shape == (1, 2) and abs(rest[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_keygen_classical_mixture_mimics_ghz():
    rng = np.random.default_rng(16)
    ones = 0
    rounds = 4000
    for _ in range(rounds):
        state = qsim.basis_state(3, 0 if rng.random() < 0.5 else 7)
        bits = qsim.measure_string(state.amplitudes[None], "ZZZ", rng.random((3, 1)).T)[0][0].tolist()
        assert len(set(bits)) == 1
        ones += bits[0]
    assert ones / rounds == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / rounds))


# --- aka -----------------------------------------------------------------------------


def test_aka_zero_states_empty_keys():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(17, 4)
    keys = aka(roles, 0, ghz_state(4), net, bundle)
    assert keys == {0: "", 1: "", 2: ""}


def test_aka_perfect_source_identical_keys():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(18, 4)
    keys = aka(roles, 100, ghz_state(4), net, bundle)
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
    keys = aka(roles, rounds, ensemble, net, bundle)
    a, b = keys[0], keys[1]
    rate = sum(x != y for x, y in zip(a, b)) / rounds
    expected = (1 - p) / 2
    assert rate == pytest.approx(expected, abs=4 * np.sqrt(expected * (1 - expected) / rounds))


# --- avka ----------------------------------------------------------------------------


def test_avka_denominator_one_is_all_keygen():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(20, 4)
    result = avka(roles, 50, 1, ghz_state(4), net, bundle)
    assert all(r.round_type == KEYGEN_ROUND for r in result.rounds)
    assert all(len(bits) == 50 for bits in result.key_bits.values())
    assert result.validated and not result.aborted


def test_avka_round_types_follow_coin_transcript():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(21, 4)
    result = avka(roles, 80, 3, ghz_state(4), net, bundle)
    coins = [e.bits for e in net.transcript if e.phase.endswith(":coin")]
    assert len(coins) == 80
    for coin, round_ in zip(coins, result.rounds):
        assert round_.round_type == (KEYGEN_ROUND if coin == "1" else VERIFICATION_ROUND)
    keygen_count = sum(r.round_type == KEYGEN_ROUND for r in result.rounds)
    assert all(len(bits) == keygen_count for bits in result.key_bits.values())


def test_avka_perfect_source_validates_and_keys_agree():
    roles = RoleAssignment(n=5, alice=2, receivers=frozenset({0, 4}))
    net, bundle = fresh(22, 5)
    result = avka(roles, 60, 3, ghz_state(5), net, bundle)
    assert result.validated
    assert all(r.verification.accepted for r in result.rounds if r.round_type == VERIFICATION_ROUND)
    assert len(set(result.key_bits.values())) == 1


def test_avka_ghz_minus_source_rejected_every_round():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(23, 4)
    bad = qsim.rotated_ghz(4, np.pi)
    result = avka(roles, 40, 2, bad, net, bundle)
    verifications = [r for r in result.rounds if r.round_type == VERIFICATION_ROUND]
    assert verifications and all(not r.verification.accepted for r in verifications)
    assert not result.validated


def test_avka_rotated_source_rejection_rate():
    # per-round rejection is sin^2(theta/2) = eps^2 = 0.25 at theta = pi/3
    theta = np.pi / 3
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(24, 4)
    result = avka(roles, 200, 2, qsim.rotated_ghz(4, theta), net, bundle)
    verifications = [r for r in result.rounds if r.round_type == VERIFICATION_ROUND]
    failed = sum(not r.verification.accepted for r in verifications) / len(verifications)
    assert failed == pytest.approx(0.25, abs=0.05 + 4 * np.sqrt(0.25 * 0.75 / len(verifications)))


def test_avka_abort_recorded():
    class DropOnce(Network):
        dropped = False

        def broadcast_rounds(self, phases, bits, expected=None):
            fifth = [row for row, phase in enumerate(phases) if phase.startswith("round[5]")]
            if fifth and not self.dropped:  # party 3 stays silent in round 5's first broadcast
                self.dropped = True
                bits = np.array(bits)
                bits[fifth[0], 3] = -1
            return super().broadcast_rounds(phases, bits, expected)

    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    bundle = RngBundle.from_seed(25, 4)
    net = DropOnce(4, bundle.network)
    result = avka(roles, 20, 2, ghz_state(4), net, bundle)
    assert result.aborted and not result.validated
    assert len(result.rounds) == 5
    recorded = {int(e.phase[6 : e.phase.index("]")]) for e in net.transcript if e.phase.startswith("round[")}
    assert recorded == set(range(5))


@pytest.mark.parametrize("silent_in", ["round[4]:ame:announce", "round[5]:verify:announce", "round[6]:verify:announce"])
def test_avka_abort_matches_the_round_by_round_reference(silent_in, monkeypatch):
    # three rounds per queue at n=4, so the abort falls inside a queue's block;
    # party 3's silence in a verification step keeps that round's ame and coin
    # records but not the round, as the per-round broadcasts of the reference do
    monkeypatch.setattr(protocols, "_BATCH_BYTES", 3 * 16 * 2**4)

    class PerRound(Network):
        def broadcast_round(self, announcements, phase, expected=None):
            silent = {p: b for p, b in announcements.items() if p != 3}
            return super().broadcast_round(silent if phase == silent_in else announcements, phase, expected)

    class Block(Network):
        def broadcast_rounds(self, phases, bits, expected=None):
            if silent_in in phases:
                bits = np.array(bits)
                bits[phases.index(silent_in), 3] = -1
            return super().broadcast_rounds(phases, bits, expected)

    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    runs = []
    for run, network in ((avka_batch_by_batch, PerRound), (avka, Block)):
        bundle = RngBundle.from_seed(26, 4)  # its coins make rounds 4, 5 and 6 keygen, verification, verification
        net = network(4, bundle.network)
        runs.append((run(roles, 12, 2, ghz_state(4), net, bundle), net.transcript, net.counters, bundle.network.bit_generator.state))
    assert runs[0] == runs[1]
    assert runs[1][0].aborted and len(runs[1][0].rounds) == int(silent_in[6])  # the rounds before the silent one


def test_avka_records_each_protocol_step_as_one_block(monkeypatch):
    # n=16, L=16 is one queue: the notification is one send_block call and
    # the rounds' broadcasts one broadcast_rounds call, none per round
    calls = {name: 0 for name in ("send_block", "broadcast_round", "broadcast_rounds")}
    for name in calls:

        def counted(self, *args, _name=name, _method=getattr(Network, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, counted)
    roles = RoleAssignment(n=16, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(5, 16)
    result = avka(roles, 16, 4, ghz_state(16), net, bundle)
    assert len(result.rounds) == 16 and not result.aborted
    assert calls == {"send_block": 1, "broadcast_round": 0, "broadcast_rounds": 1}


@pytest.mark.parametrize("withholder", [None, 3])
def test_avka_records_match_the_transcript_across_batches(withholder, monkeypatch):
    # three rounds per batch at n=4, so batches hold both round types and end mid-run
    monkeypatch.setattr(protocols, "_BATCH_BYTES", 3 * 16 * 2**4)
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(30, 4)
    result = avka(roles, 10, 2, ghz_state(4), net, bundle, withholder=withholder)
    types = [r.round_type for r in result.rounds]
    assert len(types) == 10 and KEYGEN_ROUND in types and VERIFICATION_ROUND in types

    expected = []
    for index, round_ in enumerate(result.rounds):
        expected += [f"round[{index}]:ame:announce", f"round[{index}]:coin"]
        expected += [f"round[{index}]:verify:announce"] if round_.round_type == VERIFICATION_ROUND else []
    assert list(dict.fromkeys(e.phase for e in net.transcript if e.phase.startswith("round["))) == expected

    for index, round_ in enumerate(result.rounds):
        entries = [e for e in net.transcript if e.phase.startswith(f"round[{index}]:")]
        is_keygen = round_.round_type == KEYGEN_ROUND
        assert [e.bits for e in entries if e.phase.endswith(":coin")] == [str(int(is_keygen))]
        if is_keygen:
            assert round_.verification is None and len(round_.keygen_bits) == roles.m + 1
            continue
        record = round_.verification
        announced = {e.sender: e.bits for e in entries if e.phase.endswith(":verify:announce")}
        assert sorted(announced) == list(range(4))
        pairs = [f"{b}{o}" for b, o in zip(record.basis_bits, record.outcomes)]
        assert [announced[p] for p in roles.participant_order[1:]] == pairs[1:]

    keygen = [r for r in result.rounds if r.round_type == KEYGEN_ROUND]
    assert set(result.key_bits.values()) == {"".join(str(r.keygen_bits[0]) for r in keygen)}
    if withholder is not None:
        # a Z guess on the kept qubit reads the key exactly
        assert result.withholder_guess == result.key_bits[0]


# name: (n, receivers, rounds per batch or None for the default, withholder,
# Werner source, L, D, seed)
AVKA_REFERENCE_RUNS = {
    "n4_one_round_batches": (4, (1, 2), 1, None, False, 12, 2, 30),
    "n4_three_round_batches": (4, (1, 2), 3, None, False, 10, 2, 31),
    "n4_one_round_batches_withholding": (4, (1, 2), 1, 3, False, 12, 2, 32),
    "n4_three_round_batches_withholding": (4, (1, 2), 3, 3, False, 10, 2, 33),
    "n5_werner": (5, (2,), None, None, True, 200, 3, 34),
    "n8_queued_eight_round_batches": (8, (1, 5), 8, None, False, 150, 3, 35),
    "n8_werner_queued_four_round_batches": (8, (1,), 4, None, True, 80, 3, 38),
    "n13_withholding": (13, (1, 2), None, 7, False, 40, 2, 36),
    "n16_run": (16, (1, 2), None, None, False, 16, 4, 5),
}


@pytest.mark.parametrize("name", AVKA_REFERENCE_RUNS)
def test_avka_matches_the_batch_by_batch_reference(name, monkeypatch):
    # Queued batches make the same draws and records as batches run one by one.
    n, receivers, batch_rows, withholder, werner, num_states, denom, seed = AVKA_REFERENCE_RUNS[name]
    if batch_rows is not None:
        monkeypatch.setattr(protocols, "_BATCH_BYTES", batch_rows * 16 * 2**n)
    roles = RoleAssignment(n=n, alice=0, receivers=frozenset(receivers))
    source = qsim.werner_ghz(n, 0.7) if werner else ghz_state(n)
    seen = []
    for run in (avka, avka_batch_by_batch):
        net, bundle = fresh(seed, n)
        result = run(roles, num_states, denom, source, net, bundle, withholder=withholder, withholder_basis=qsim.Basis.X)
        streams = (*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary)
        seen.append((result, tuple(net.transcript), net.counters, [s.bit_generator.state for s in streams]))
    assert seen[0] == seen[1]
    types = {r.round_type for r in seen[0][0].rounds}
    assert types == {KEYGEN_ROUND, VERIFICATION_ROUND}


@st.composite
def avka_runs(draw):
    """An avka run: n in 3..8, up to three receivers, a withholder or none,
    a pure GHZ or Werner source (p in [0, 1], ends included), L, D and a
    batch size from 1 byte to 2^20: half the time a few rounds per batch, so
    that queues join batches, else a power of two or any size."""
    n = draw(st.integers(3, 8))
    receivers = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=3))
    roles = RoleAssignment(n=n, alice=0, receivers=frozenset(receivers))
    bystanders = sorted(roles.non_participants)
    withholder = draw(st.none() | st.sampled_from(bystanders)) if bystanders else None
    p = draw(st.floats(0.0, 1.0) | st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, None]))
    source = ghz_state(n) if p is None else qsim.werner_ghz(n, p)
    few_rounds = st.integers(1, 8).map(lambda rows: rows * 16 * 2**n)
    return (
        roles,
        source,
        withholder,
        draw(st.sampled_from(list(qsim.Basis))),
        draw(st.integers(0, 40)),
        draw(st.integers(1, 4)),
        draw(st.one_of(few_rounds, few_rounds, st.integers(0, 20).map(lambda e: 2**e), st.integers(1, 2**20))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(avka_runs())
def test_avka_queues_match_the_batch_by_batch_reference_on_any_source(run):
    # Whatever the batch size, queues make the draws and records of batches
    # run one by one, and a mixture's distinct states, gathered by index,
    # are the dense rows drawn one per round.
    roles, source, withholder, basis, num_states, denom, batch_bytes, seed = run
    seen = []
    with mock.patch.object(protocols, "_BATCH_BYTES", batch_bytes):
        for avka_run in (avka, avka_batch_by_batch):
            net, bundle = fresh(seed, roles.n)
            result = avka_run(roles, num_states, denom, source, net, bundle, withholder=withholder, withholder_basis=basis)
            streams = (*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary)
            seen.append((result, tuple(net.transcript), net.counters, [s.bit_generator.state for s in streams]))
    assert seen[0] == seen[1]
    if isinstance(source, qsim.NoiseEnsemble):
        distinct, dense = np.random.default_rng(seed), np.random.default_rng(seed)
        states, index = qsim.sample_ensemble(source, distinct, num_states)
        assert len(np.unique(states, axis=0)) == len(states) and len(np.unique(index)) == len(states) - (0 not in index)
        assert np.array_equal(states[index], dense_rows(source, dense, num_states))
        assert distinct.bit_generator.state == dense.bit_generator.state


def test_share_tables_are_the_rules_coin_tables():
    # deal_shares' tables and party streams are those of ceil(n^2 / 64) words
    # per notification and dealer, coin i bit i % 64 of word i // 64, low bit first.
    for n, trials in [(6, 100), (16, 1), (3, 7), (9, 2)]:
        roles = RoleAssignment(n=n, alice=0, receivers=frozenset({n - 1}))
        bundle, reference = RngBundle.from_seed(n, n), RngBundle.from_seed(n, n)
        shares = protocols.deal_shares(roles, bundle, trials)
        for dealer in range(n):
            words = reference.party(dealer).bit_generator.random_raw((trials, -(-n * n // 64))).tolist()
            table = [[row[i // 64] >> (i % 64) & 1 for i in range(n * n)] for row in words]
            assert np.array_equal(shares[:, :, dealer, :-1], np.reshape(table, (trials, n, n))[..., :-1])
            assert bundle.party(dealer).bit_generator.state == reference.party(dealer).bit_generator.state


@pytest.mark.parametrize("withholder", [None, 4])
@pytest.mark.parametrize("n, rounds", [(5, 4), (7, 40)])
def test_avka_queues_at_odd_n_match_the_batch_by_batch_reference(n, rounds, withholder, monkeypatch):
    # Batches of three rounds: at n=5 a round's draws outweigh half a state
    # row, so only a short last batch joins a queue, and 4 rounds are one
    # queue of two batches; at n=7 a queue holds several.
    roles = RoleAssignment(n=n, alice=0, receivers=frozenset({1}))
    monkeypatch.setattr(protocols, "_BATCH_BYTES", 3 * 16 * 2**n)
    seen = []
    for run in (avka, avka_batch_by_batch):
        net, bundle = fresh(40 + n, n)
        result = run(roles, rounds, 2, ghz_state(n), net, bundle, withholder=withholder, withholder_basis=qsim.Basis.X)
        streams = (*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary)
        seen.append((result, tuple(net.transcript), net.counters, [s.bit_generator.state for s in streams]))
    assert seen[0] == seen[1]
    assert {r.round_type for r in seen[0][0].rounds} == {KEYGEN_ROUND, VERIFICATION_ROUND}


def test_avka_verification_round_has_all_announcers():
    roles = RoleAssignment(n=5, alice=0, receivers=frozenset({1, 2}))
    net, bundle = fresh(26, 5)
    avka(roles, 30, 2, ghz_state(5), net, bundle)
    rounds = {e.phase for e in net.transcript if e.phase.endswith("verify:announce")}
    assert rounds
    for phase in rounds:
        announcers = {e.sender for e in net.transcript if e.phase == phase}
        assert announcers == set(range(5))


def test_avka_parameter_validation():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    net, bundle = fresh(27, 4)
    with pytest.raises(ValueError):
        avka(roles, -1, 2, ghz_state(4), net, bundle)
    with pytest.raises(ValueError):
        avka(roles, 5, 0, ghz_state(4), net, bundle)
    with pytest.raises(ValueError):
        avka(roles, 5, 2, ghz_state(4), net, bundle, withholder=1)
    with pytest.raises(ValueError, match="num_states"):
        avka(roles, 2.5, 2, ghz_state(4), net, bundle)
    with pytest.raises(ValueError, match="keygen_denom"):
        avka(roles, 5, 2.5, ghz_state(4), net, bundle)


MISMATCH_CALLS = {
    "notification": lambda roles, state, net, bundle, withholder: notification(roles, net, bundle),
    "ame": lambda roles, state, net, bundle, withholder: ame(state, roles, net, bundle),
    "verification": lambda roles, state, net, bundle, withholder: verification(state, 0, net, bundle),
    "avka": lambda roles, state, net, bundle, withholder: avka(roles, 3, 2, state, net, bundle, withholder=withholder),
    "run_with_adversary": lambda roles, state, net, bundle, withholder: run_with_adversary(
        roles, 3, 2, HonestCurious(frozenset({3})) if withholder is None else WithholdingAgent(withholder), net, bundle, source=state
    ),
    "dishonest_source": lambda roles, state, net, bundle, withholder: run_with_adversary(
        roles, 3, 2, DishonestSource(state), net, bundle
    ),
}
# What each case puts off by one party (or, for "withholder", makes a participant withhold), and the error it names.
MISMATCHES = {
    "state": r"the source has 5 qubits, but the run has n=4",
    "network": r"the network has 5 parties, but the run has n=4",
    "bundle": r"the bundle has 5 parties, but the run has n=4",
    "withholder": r"withholders \[1\] must be non-participants",
}


@pytest.mark.parametrize(
    "call, part",
    [
        (call, part)
        for call in MISMATCH_CALLS
        for part in MISMATCHES
        if (part != "state" or call != "notification")
        and (part != "withholder" or call in ("avka", "run_with_adversary"))
    ],
)
def test_mismatched_run_rejected_before_any_draw_or_record(call, part):
    # Party i holds qubit i of the source and stream i of the bundle: every
    # protocol call checks the sizes and withholders before it draws or records.
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(28, 5 if part == "bundle" else 4)
    net = Network(5 if part == "network" else 4, bundle.network)
    state = ghz_state(5 if part == "state" else 4)
    streams = [*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary]
    before = [g.bit_generator.state for g in streams]
    # verification's run is its state's: a 5-qubit state makes the 4-party network the odd part
    match = "the network has 4 parties, but the run has n=5" if (call, part) == ("verification", "state") else MISMATCHES[part]
    error = ConfigurationError if call in ("run_with_adversary", "dishonest_source") else ValueError
    with pytest.raises(error, match=match):
        MISMATCH_CALLS[call](roles, state, net, bundle, 1 if part == "withholder" else None)
    assert len(net.transcript) == 0
    assert [g.bit_generator.state for g in streams] == before
