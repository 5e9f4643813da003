"""Tests for channels, transcripts, counters, and view extraction."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncka import netmodel
from anoncka.netmodel import ChannelAbort, Network, ProtocolError, RoleAssignment, extract_view
from anoncka.protocols import _notification_layout, avka, notification
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle
from oracles import notify_by_message, transcript_to_jsonl, visible_by_filter


def test_role_assignment_validation():
    roles = RoleAssignment(n=5, alice=1, receivers=frozenset({0, 3}))
    assert roles.m == 2
    assert roles.participants == {0, 1, 3}
    assert roles.non_participants == {2, 4}
    assert roles.participant_order == (1, 0, 3)
    with pytest.raises(ValueError):
        RoleAssignment(n=3, alice=0, receivers=frozenset({0}))
    with pytest.raises(ValueError):
        RoleAssignment(n=3, alice=3, receivers=frozenset())
    with pytest.raises(ValueError):
        RoleAssignment(n=3, alice=0, receivers=frozenset({5}))


def test_send_private_counts_bits():
    net = Network(3, np.random.default_rng(0))
    net.send_private(0, 1, "1", "phase")
    assert net.counters.private_bits_sent == 1
    net.send_private(1, 2, "010", "phase")
    assert net.counters.private_bits_sent == 4
    # a block of k 0/1 integers adds k bits, and a block of strings their lengths
    net.send_block([0, 1, 2, 0, 1, 2], [1, 2, 0, 2, 0, 1], np.array([[0, 1, 1], [0, 0, 0]], dtype=np.int8), "phase")
    assert net.counters.private_bits_sent == 10
    net.send_block([2, 1], [1, 0], ["0110", "1"], "phase")
    assert net.counters.private_bits_sent == 15


def test_a_block_keeps_its_phases_when_the_caller_edits_its_array():
    # A writable phase column is copied into the transcript; a read-only one,
    # which no one can edit, is shared.
    net = Network(3, np.random.default_rng(0))
    phases = np.array(["a", "b", "c"], dtype=object)
    net.send_block([0, 1, 2], [1, 2, 0], np.array([0, 1, 1]), phases)
    phases[:] = "edited"
    fixed = np.array(["d", "e", "f"], dtype=object)
    fixed.flags.writeable = False
    net.send_block([0, 1, 2], [1, 2, 0], np.array([1, 0, 1]), fixed)
    assert [e.phase for e in net.transcript] == ["a", "b", "c", "d", "e", "f"]
    assert np.shares_memory(net._blocks[-1].phase, fixed) and not np.shares_memory(net._blocks[0].phase, phases)


def test_a_block_shares_read_only_endpoints_and_copies_writable_ones():
    # A notification's block keeps the cached layout's read-only sender and
    # receiver columns; a caller's writable columns are copied, so editing
    # them after the call leaves the transcript as sent.
    roles = RoleAssignment(n=16, alice=0, receivers=frozenset({5}))
    bundle = RngBundle.from_seed(3, 16)
    net = Network(16, bundle.network)
    notification(roles, net, bundle)
    senders, receivers, _, _ = _notification_layout(16)
    (block,) = net._blocks
    assert np.shares_memory(block.sender, senders) and np.shares_memory(block.receiver, receivers)
    net = Network(3, np.random.default_rng(0))
    senders, receivers = np.array([0, 1, 2]), np.array([1, 2, 0])
    net.send_block(senders, receivers, np.array([0, 1, 1]), "p")
    senders[:], receivers[:] = 2, 1
    assert [(e.sender, e.receiver) for e in net.transcript] == [(0, 1), (1, 2), (2, 0)]
    assert not np.shares_memory(net._blocks[0].sender, senders) and not np.shares_memory(net._blocks[0].receiver, receivers)


BAD_BLOCKS = [
    # (senders, receivers, bits, kept)
    ([0, 1, 3], [1, 2, 0], np.array([0, 1, 1]), False),  # party out of range
    ([0, 1, 2], [1, -1, 0], np.array([0, 1, 1]), False),  # negative party
    ([0, 1, 2], [1, 2, 0], np.array([0, 2, 1]), False),  # a bit of 2
    ([0, 1, 2], [1, 2, 0], np.array([0, -1, 1]), False),  # a bit of -1
    ([0, 1, 2], [1, 1, 0], np.array([0, 1, 1]), False),  # self-send, no kept share
    ([0, 1, 2], [0, 1, 0], np.array([0, 1, 1]), [True, False, False]),  # self-send off the kept diagonal
    ([0, 1, 2], [0, 2, 2], np.array([0, 1, 1]), True),  # kept share that goes to another party
    ([0, 1, 2], [1, 2, 0], np.array([0, 1]), False),  # one payload short
    ([0, 1], [1, 2], ["1", "10x"], False),  # not a bit string
    ([0, 1, 2], [0, 2, 0], np.array([0, 1, 1]), [True, False]),  # one kept flag short
]


def test_send_private_rejects_self_and_bad_parties():
    net = Network(3, np.random.default_rng(0))
    with pytest.raises(ProtocolError):
        net.send_private(1, 1, "0", "p")
    with pytest.raises(ProtocolError):
        net.send_private(0, 3, "0", "p")
    with pytest.raises(ProtocolError):
        net.send_private(0, 1, "abc", "p")
    net.send_private(0, 1, "1", "accepted")
    for senders, receivers, bits, kept in BAD_BLOCKS:
        with pytest.raises(ProtocolError):
            net.send_block(senders, receivers, bits, "p", kept=kept)
    with pytest.raises(ProtocolError):  # one phase short
        net.send_block([0, 1, 2], [1, 2, 0], np.array([0, 1, 1]), ["p", "q"])
    # a rejected call records nothing
    assert [e.phase for e in net.transcript] == ["accepted"]
    assert net.counters.private_bits_sent == 1


def test_notification_bit_count_n4():
    # one full notification at n=4 uses exactly n^3 + n^2 = 80 private bits
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({2}))
    bundle = RngBundle.from_seed(11, 4)
    net = Network(4, bundle.network)
    notification(roles, net, bundle)
    assert net.counters.private_bits_sent == 4**3 + 4**2


def test_single_announcer_gets_position_zero():
    net = Network(2, np.random.default_rng(0))
    out = net.broadcast_round({1: "1"}, "p")
    assert out == [(1, "1")]
    assert net.transcript[0].position == 0


def test_broadcast_positions_are_uniform():
    rng = np.random.default_rng(12)
    rounds = 10_000
    first = np.zeros(4)
    for _ in range(rounds):
        net = Network(4, rng)
        out = net.broadcast_round({p: "0" for p in range(4)}, "p")
        first[out[0][0]] += 1
    freqs = first / rounds
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_broadcast_positions_form_permutation():
    net = Network(5, np.random.default_rng(3))
    net.broadcast_round({p: "1" for p in range(5)}, "p")
    assert sorted(e.position for e in net.transcript) == list(range(5))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 16, 17])
@pytest.mark.parametrize("rounds", [0, 1, 7, 50])
def test_one_permuted_call_draws_one_permutation_per_round(k, rounds):
    # ``broadcast_rounds`` shuffles the record slots of a block's party rounds
    # with one ``permuted`` call; the pinned transcripts hold only while that
    # makes the draws of one ``permutation`` per round and leaves the stream
    # where they would
    tiled = np.tile(np.arange(k), (rounds, 1))
    for table in (tiled, tiled + k * np.arange(rounds)[:, None]):
        block, by_round = np.random.default_rng(k + 100 * rounds), np.random.default_rng(k + 100 * rounds)
        shuffled = block.permuted(table, axis=1)
        assert shuffled.tolist() == [row[by_round.permutation(k)].tolist() for row in table]
        assert block.bit_generator.state == by_round.bit_generator.state


def test_broadcast_rounds_equal_round_by_round_broadcasts_up_to_a_short_round():
    # n=3; column 3 is the public source; round "c" misses party 1
    phases = ["a", "coin", "b", "c", "d"]
    codes = [[0, 1, 1, -1], [-1, -1, -1, 1], [5, 2, 0, -1], [1, -1, 0, -1], [0, 0, 0, -1]]
    block, by_round = Network(3, np.random.default_rng(4)), Network(3, np.random.default_rng(4))
    with pytest.raises(ChannelAbort, match=r"\[1\] did not announce in time \(c\)") as info:
        block.broadcast_rounds(phases, np.array(codes), expected=range(3))
    assert info.value.rounds == 3
    by_round.broadcast_round({0: "0", 1: "1", 2: "1"}, "a")
    by_round.broadcast_public("1", "coin")
    by_round.broadcast_round({0: "11", 1: "00", 2: "0"}, "b")
    assert block.transcript == by_round.transcript and block.counters == by_round.counters
    assert block._rng.bit_generator.state == by_round._rng.bit_generator.state
    assert netmodel.payload_codes(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])).tolist() == [2, 4, 3, 5]
    bad_tables = [
        [[0, 0, 0, 1]],  # the public source with parties
        [[0, 0, -1, -1], [0, 0, 0, -1]],  # party rounds of two announcer counts
        [[0, -2, 0, -1]],  # a code below -1
        [[0, 2**63 - 1, 0, -1]],  # a code above 2^63 - 3, that of the longest payload
        [[0, 0, 0]],  # no public column
    ]
    for bad in bad_tables:
        with pytest.raises(ProtocolError):
            block.broadcast_rounds(["p"] * len(bad), np.array(bad))
    assert block.transcript == by_round.transcript


def test_withheld_announcement_aborts():
    net = Network(3, np.random.default_rng(0))
    with pytest.raises(ChannelAbort, match=r"\[2\]"):
        net.broadcast_round({0: "0", 1: "1"}, "p", expected=range(3))


def test_broadcast_counts_bits():
    net = Network(2, np.random.default_rng(0))
    net.broadcast_round({0: "01", 1: "1"}, "p")
    assert net.counters.broadcast_bits_sent == 3
    net.broadcast_public("1", "coin")
    assert net.counters.broadcast_bits_sent == 4
    assert net.transcript[-1].sender is None


def test_empty_coalition_sees_broadcasts_only():
    net = Network(4, np.random.default_rng(0))
    net.send_private(0, 1, "1", "p")
    net.broadcast_round({2: "0"}, "p")
    view = extract_view(net.transcript, frozenset(), 4)
    assert all(e.kind == netmodel.BROADCAST for e in view.visible_entries)
    assert len(view.visible_entries) == 1


def test_honest_to_honest_message_invisible():
    net = Network(4, np.random.default_rng(0))
    net.send_private(0, 1, "1", "p")
    view = extract_view(net.transcript, frozenset({2}), 4)
    assert view.visible_entries == ()


def test_near_full_coalition_misses_one_edge():
    net = Network(4, np.random.default_rng(0))
    for s in range(4):
        for r in range(4):
            if s != r:
                net.send_private(s, r, "1", "p")
    view = extract_view(net.transcript, frozenset({0, 1}), 4)
    hidden = [e for e in net.transcript if e not in view.visible_entries]
    assert {(e.sender, e.receiver) for e in hidden} == {(2, 3), (3, 2)}


def test_coalition_too_large_rejected():
    net = Network(4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="corruption bound"):
        extract_view(net.transcript, frozenset({0, 1, 2}), 4)


def test_notification_coalition_view_rows():
    # a lone bystander sees exactly: its received column, its own row
    # (kept share included), and the partial parities it touches
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(5, 4)
    net = Network(4, bundle.network)
    notification(roles, net, bundle)
    k = 3
    view = extract_view(net.transcript, frozenset({k}), 4)
    assert all(e.sender == k or e.receiver == k for e in view.visible_entries)
    for target in range(4):
        phase = f"notify[target={target}]:shares"
        entries = [e for e in view.visible_entries if e.phase == phase]
        received = {e.sender for e in entries if e.receiver == k}
        sent = {e.receiver for e in entries if e.sender == k}
        assert received == set(range(4))
        assert sent == set(range(4))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_notification_blocks_equal_the_per_message_transcript(n):
    roles = RoleAssignment(n=n, alice=n - 1, receivers=frozenset(range(0, n - 1, 2)))
    bundle = RngBundle.from_seed(60 + n, n)
    net = Network(n, bundle.network)
    out = notification(roles, net, bundle)
    reference = Network(n, np.random.default_rng(0))
    notify_by_message(reference, out.shares)
    assert len(net.transcript) == len(reference.transcript) == n**3 + n**2
    assert net.transcript == reference.transcript
    assert tuple(net.transcript) == tuple(reference.transcript)
    assert net.counters == reference.counters


def test_views_equal_the_per_entry_filter_for_every_coalition():
    # one transcript with a notification, avka rounds of both types and a
    # withholder's coin announcements
    n = 5
    roles = RoleAssignment(n=n, alice=1, receivers=frozenset({3}))
    bundle = RngBundle.from_seed(21, n)
    net = Network(n, bundle.network)
    result = avka(roles, 12, 2, ghz_state(n), net, bundle, withholder=4)
    assert {r.round_type for r in result.rounds} == {"keygen", "verification"}
    entries = tuple(net.transcript)
    for size in range(n - 1):
        for coalition in itertools.combinations(range(n), size):
            view = extract_view(net.transcript, coalition, n)
            expected = visible_by_filter(entries, coalition)
            assert len(view.visible_entries) == len(expected)
            assert view.visible_entries == expected


def test_view_monotonicity():
    roles = RoleAssignment(n=5, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(9, 5)
    net = Network(5, bundle.network)
    notification(roles, net, bundle)
    small = set(extract_view(net.transcript, frozenset({2}), 5).visible_entries)
    large = set(extract_view(net.transcript, frozenset({2, 3}), 5).visible_entries)
    assert small <= large


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transcript_determinism(seed):
    roles = RoleAssignment(n=4, alice=1, receivers=frozenset({0, 2}))

    def run():
        bundle = RngBundle.from_seed(seed, 4)
        net = Network(4, bundle.network)
        notification(roles, net, bundle)
        return net.transcript

    assert run() == run()


def test_jsonl_export_schema():
    net = Network(3, np.random.default_rng(0))
    net.send_private(0, 1, "1", "phase-a")
    net.broadcast_round({2: "01"}, "phase-b")
    lines = transcript_to_jsonl(net.transcript).splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "phase": "phase-a",
        "kind": "private",
        "from": 0,
        "to": 1,
        "bits": "1",
        "position": None,
    }
    second = json.loads(lines[1])
    assert second["kind"] == "broadcast" and second["position"] == 0 and second["to"] is None
