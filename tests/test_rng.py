"""Every RngBundle stream is seeded, and every party draw made, by the rule
that ``anoncka.rng`` documents, checked against plain references."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import pcg64_seeded

from anoncka import protocols, rng
from anoncka.analysis import check_theorem1
from anoncka.netmodel import RoleAssignment
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle

SEEDS = [0, 1, 2**32, 2**64 + 5, 0x9E3779B97F4A7C15F39CC0605]
SEED_IDS = ["0", "1", "2^32", "2^64+5", "100-bit"]


def streams(bundle: RngBundle) -> list:
    return [*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary]


def assert_seeded_by_the_rule(bundle: RngBundle, seed_seq: np.random.SeedSequence) -> None:
    words = seed_seq.generate_state(4 * len(streams(bundle)), np.uint64).reshape(-1, 4)
    for stream, row in zip(streams(bundle), words):
        state = stream.bit_generator.state
        assert state["bit_generator"] == "PCG64"
        assert (state["state"]["state"], state["state"]["inc"]) == pcg64_seeded(row)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_bundles_from_a_seed_follow_the_seeding_rule(seed):
    for n in range(1, 17):
        assert_seeded_by_the_rule(RngBundle.from_seed(seed, n), np.random.SeedSequence(seed))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_bundles_from_a_generator_spawn_as_the_generator_does(seed):
    # each bundle takes its words from the child that one more spawn gives
    parent, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(1, 17):
        (child,) = twin.spawn(1)
        assert_seeded_by_the_rule(RngBundle.from_generator(parent, n), child.bit_generator.seed_seq)
    assert parent.bit_generator.seed_seq.n_children_spawned == twin.bit_generator.seed_seq.n_children_spawned == 16


def test_bundles_from_any_parent_are_pcg64_streams_seeded_by_the_rule():
    for bit_generator in (np.random.MT19937, np.random.Philox, np.random.PCG64):
        parent = np.random.Generator(bit_generator(1))
        assert_seeded_by_the_rule(RngBundle.from_generator(parent, 3), np.random.SeedSequence(1).spawn(1)[0])
    # an MT19937 parent, once refused, now runs
    (check,) = check_theorem1([ghz_state(3)], 10, np.random.Generator(np.random.MT19937(1)))
    assert check.accept_rate == 1.0


def test_a_bundle_stream_cannot_parent_a_bundle():
    # A bundle stream is seeded from four words, with no seed sequence to
    # spawn: deriving from it is refused by name, and the stream is not drawn.
    stream = RngBundle.from_seed(1, 3).coin
    before = stream.bit_generator.state
    with pytest.raises(TypeError, match="a bundle stream has no seed sequence to spawn"):
        RngBundle.from_generator(stream, 3)
    assert stream.bit_generator.state == before


def field_by_field(fields, batches: int) -> list:
    """``rng.draw``'s values, drawn one field at a time, batch by batch, each
    value one raw word: a coin its top bit, a double its top 53 bits."""
    values = [[] for _ in fields]
    for batch in range(batches):
        for f, (stream, coin, counts) in enumerate(fields):
            words = [int(w) for w in stream.bit_generator.random_raw(int(np.reshape(counts, -1)[batch]))]
            values[f] += [w >> 63 if coin else (w >> 11) / 2**53 for w in words]
    return values


def test_draws_match_the_field_by_field_reference():
    # Fields of one or more streams, coins or doubles, over one or several
    # batches, with empty runs: values and stream states bit for bit.
    plans = np.random.default_rng(27)
    for trial in range(300):
        n_streams, batches, n_fields = (int(x) for x in plans.integers((1, 1, 1), (5, 7, 9)))
        owner = plans.integers(0, n_streams, size=n_fields)
        coin = plans.integers(0, 2, size=n_fields).astype(bool)
        counts = plans.integers(0, 4, size=(n_fields, batches))
        by_rule, by_field = ([np.random.default_rng([trial, s]) for s in range(n_streams)] for _ in range(2))
        fields = [(by_rule[o], bool(c), counts[f] if batches > 1 else int(counts[f, 0])) for f, (o, c) in enumerate(zip(owner, coin))]
        values = rng.draw(fields)
        expected = field_by_field([(by_field[o], c, n) for (_, c, n), o in zip(fields, owner)], batches)
        assert len(values) == n_fields, trial
        for want, got, c in zip(expected, values, coin):
            assert got.dtype == (np.int64 if c else np.float64), trial
            assert np.array_equal(np.array(want, dtype=got.dtype), got), trial
        for a, b in zip(by_rule, by_field):
            assert a.bit_generator.state == b.bit_generator.state, trial


def test_coin_tables_match_the_table_by_table_reference():
    # A table of c coins takes ceil(c / 64) fresh words, coin i bit i % 64 of
    # word i // 64, low bit first, after any draws that came before.
    plans = np.random.default_rng(40)
    for trial in range(3000):
        by_rule, by_table = np.random.default_rng([trial, 40]), np.random.default_rng([trial, 40])
        before = int(plans.integers(0, 4))
        for g in (by_rule, by_table):
            g.bit_generator.random_raw(before)
        tables, coins = int(plans.integers(0, 4)), int(plans.integers(1, 201))
        (got,) = rng.coin_tables([by_rule], tables, coins)
        want = []
        for _ in range(tables):
            words = [int(w) for w in by_table.bit_generator.random_raw(-(-coins // 64))]
            want.append([words[i // 64] >> (i % 64) & 1 for i in range(coins)])
        assert got.shape == (tables, coins) and np.array_equal(np.array(want).reshape(tables, coins), got), trial
        assert by_rule.bit_generator.state == by_table.bit_generator.state, trial


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
def test_draws_split_anywhere(n):
    # The samplers draw a whole chunk of runs per stream in one call, the
    # per-party protocols one run at a time, and ame_views cuts its chunks
    # anywhere. Under the rule, c draws equal c one-draw calls, a stream's
    # fields over batches equal one call per batch, and t share tables equal t
    # one-run deals, each leaving the streams where the other does.
    runs = 50
    joined, split = RngBundle.from_seed(n, n), RngBundle.from_seed(n, n)
    one_per_stream = lambda bundle, rows: [(bundle.party(p), p % 2 == 0, rows) for p in range(n)] + [(bundle.adversary, True, rows)]
    values = rng.draw(one_per_stream(joined, runs))
    parts = [rng.draw(one_per_stream(split, 1)) for _ in range(runs - 7)] + [rng.draw(one_per_stream(split, 7))]
    assert all(np.array_equal(v, np.concatenate([part[f] for part in parts])) for f, v in enumerate(values))
    # two fields per party stream: batches of one run
    fields = lambda bundle, counts: [(bundle.party(p % n), p % 3 == 0, counts * (1 + p % 2)) for p in range(2 * n)]
    values = rng.draw(fields(joined, np.ones(runs, dtype=int)))
    parts = [rng.draw(fields(split, 1)) for _ in range(runs)]
    assert all(np.array_equal(v, np.concatenate([part[f] for part in parts])) for f, v in enumerate(values))
    roles = RoleAssignment(n=n, alice=n - 1, receivers=frozenset({0}))
    tables = protocols.deal_shares(roles, joined, runs)
    assert np.array_equal(tables, np.concatenate([protocols.deal_shares(roles, split, 1) for _ in range(runs)]))
    assert [g.bit_generator.state for g in streams(joined)] == [g.bit_generator.state for g in streams(split)]
