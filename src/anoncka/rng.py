"""Deterministic random stream management for simulation runs.

A run owns one :class:`RngBundle` of n + 4 PCG64 streams, all seeded from a
single master seed. The stream order is fixed so any stream can be replayed
independently of the others:

    stream 0 .. n-1   per-party streams (party i draws only from stream i)
    stream n          network stream (broadcast announcement ordering)
    stream n + 1      public coin stream (round-type selection)
    stream n + 2      source stream (state emission / noise sampling)
    stream n + 3      adversary stream (every dishonest draw)

Keeping honest, network, source, and adversary randomness on separate streams
means injecting or removing an adversary never perturbs the honest parties'
draws under a fixed master seed.

The rule, for seeds and for every draw a party makes:

* Seeds. ``SeedSequence(seed).generate_state(4 (n + 4), np.uint64)`` gives
  stream j the words w0..w3 = words[4j : 4j + 4]; its PCG64 starts at
  inc = (w2 << 64 | w3) << 1 | 1 and state = (inc + (w0 << 64 | w1)) M + inc,
  mod 2^128, with M = 0x2360ED051FC65DA44385DF649FCCF645 (PCG64's own
  seeding of those words). ``from_generator`` takes the words from one spawn
  of the parent's ``seed_seq`` instead.
* Draws (``draw``). Every coin or uniform is one whole word of its stream's
  ``random_raw``: a coin is the word's top bit, a double its top 53 bits times
  2^-53 (the double numpy's ``random()`` gives on PCG64).
* Coin tables (``coin_tables``). A table of c coins takes ceil(c / 64) fresh
  words, coin i being bit i % 64 of word i // 64, low bit first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _Words(ISeedSequence):
    """Hands PCG64 the four seed words the rule gives its stream."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class RngBundle:
    """Named random streams for one simulation run."""

    parties: tuple[np.random.Generator, ...]
    network: np.random.Generator
    coin: np.random.Generator
    source: np.random.Generator
    adversary: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int, n_parties: int) -> "RngBundle":
        return cls._from_words(np.random.SeedSequence(seed), n_parties)

    @classmethod
    def from_generator(cls, rng: np.random.Generator, n_parties: int) -> "RngBundle":
        """Derive a bundle from a generator of any bit generator whose ``seed_seq``
        spawns (consuming one spawn); a bundle's own streams raise TypeError."""
        if not isinstance(seed_seq := rng.bit_generator.seed_seq, np.random.bit_generator.ISpawnableSeedSequence):
            raise TypeError("a bundle stream has no seed sequence to spawn; derive from np.random.default_rng(seed)")
        return cls._from_words(seed_seq.spawn(1)[0], n_parties)

    @classmethod
    def _from_words(cls, seed_seq: np.random.SeedSequence, n_parties: int) -> "RngBundle":
        """One PCG64 stream per four words of ``seed_seq``, in the documented
        order: parties first."""
        words = seed_seq.generate_state(4 * (n_parties + 4), np.uint64).reshape(-1, 4)
        gens = [np.random.Generator(np.random.PCG64(_Words(row))) for row in words]
        return cls(
            parties=tuple(gens[:n_parties]),
            network=gens[n_parties],
            coin=gens[n_parties + 1],
            source=gens[n_parties + 2],
            adversary=gens[n_parties + 3],
        )

    def party(self, party: int) -> np.random.Generator:
        return self.parties[party]


def draw(fields) -> list:
    """The values of ``fields``, (stream, coin, counts) triples, one array per
    field: ``counts[b]`` coins (int64) if ``coin``, else doubles, in batch b
    (an int count is one batch). Every stream draws batch by batch, and in a
    batch its fields in list order, one word per value, all from one
    ``random_raw`` call per stream."""
    counts = np.array([counts for _, _, counts in fields]).reshape(len(fields), -1)  # (fields, batches)
    index: dict = {}
    owner = np.array([index.setdefault(id(stream), (len(index), stream))[0] for stream, _, _ in fields])
    totals = counts.sum(axis=1)
    sizes = np.bincount(owner, totals).astype(np.intp).tolist()
    words = np.concatenate([stream.bit_generator.random_raw(size) for (_, stream), size in zip(index.values(), sizes)])
    # ``words`` runs stream by stream, batch by batch, field by field; sorting each
    # value's (stream, batch) key, field by field, stably gives its place there.
    keys = (owner[:, None] * counts.shape[1] + np.arange(counts.shape[1])).ravel()
    values = np.empty_like(words)
    values[np.argsort(np.repeat(keys, counts.ravel()), kind="stable")] = words
    coins, doubles = (values >> 63).view(np.int64), (values >> 11) * 2.0**-53
    cuts = np.cumsum(totals).tolist()
    return [(coins if coin else doubles)[cut - total : cut] for (_, coin, _), cut, total in zip(fields, cuts, totals.tolist())]


def coin_tables(streams, tables: int, coins: int) -> np.ndarray:
    """``tables`` tables of ``coins`` coins from each of ``streams``, as a
    (streams, tables, coins) uint8 array, from one ``random_raw`` call per
    stream: each table takes ceil(coins / 64) fresh words."""
    width = -(-coins // 64)
    words = np.array([stream.bit_generator.random_raw(tables * width) for stream in streams])
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return bits.reshape(len(words), tables, 64 * width)[..., :coins]
