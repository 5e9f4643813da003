"""Every RngBundle stream is the stream numpy's own spawn gives."""

from __future__ import annotations

import numpy as np
import pytest

from anoncka.rng import RngBundle

SEEDS = [0, 1, 2**32, 2**64 + 5, 0x9E3779B97F4A7C15F39CC0605]
SEED_IDS = ["0", "1", "2^32", "2^64+5", "100-bit"]


def states(bundle: RngBundle) -> list[dict]:
    streams = [*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary]
    return [stream.bit_generator.state for stream in streams]


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_bundle_streams_are_numpys_spawned_generators(seed):
    for n in range(1, 17):
        children = np.random.SeedSequence(seed).spawn(n + 4)
        assert states(RngBundle.from_seed(seed, n)) == [np.random.default_rng(c).bit_generator.state for c in children]


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_bundles_from_a_generator_spawn_as_the_generator_does(seed):
    for n in (1, 4, 6, 16):
        parent, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        bundles = [RngBundle.from_generator(parent, n) for _ in range(2)]
        spawned = [twin.spawn(n + 4) for _ in range(2)]
        assert [states(b) for b in bundles] == [[g.bit_generator.state for g in gens] for gens in spawned]
        assert parent.bit_generator.seed_seq.n_children_spawned == twin.bit_generator.seed_seq.n_children_spawned


def test_bundle_streams_spawn_numpys_children():
    bundle = RngBundle.from_seed(3, 4)
    twin = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
    for _ in range(2):
        assert [g.bit_generator.state for g in bundle.party(0).spawn(2)] == [g.bit_generator.state for g in twin.spawn(2)]
