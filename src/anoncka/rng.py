"""Deterministic random stream management for simulation runs.

A run owns one :class:`RngBundle`, derived from a single master seed via
``numpy.random.SeedSequence.spawn``. The spawn order is fixed so any stream
can be replayed independently of the others:

    child 0 .. n-1   per-party streams (party i draws only from child i)
    child n          network stream (broadcast announcement ordering)
    child n + 1      public coin stream (round-type selection)
    child n + 2      source stream (state emission / noise sampling)
    child n + 3      adversary stream (every dishonest draw)

Keeping honest, network, source, and adversary randomness on separate streams
means injecting or removing an adversary never perturbs the honest parties'
draws under a fixed master seed.

Each stream is its child's ``Generator(PCG64(child))``, seeded from the words
``generate_state`` would hash from the child's entropy pool, hashed for all
children at once; its ``bit_generator.seed_seq`` holds the child and those words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

# SeedSequence.generate_state's hash constants: INIT_B = 0x8b51f9dd times MULT_B = 0x58f38ded ** i, mod 2^32.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32)


class _Seeded(ISpawnableSeedSequence):
    """A spawned ``SeedSequence`` and its four PCG64 seed words: ``generate_state(4,
    np.uint64)`` returns the words; any other request, and ``spawn``, go to the child."""

    def __init__(self, child: np.random.SeedSequence, words: np.ndarray):
        self.child, self.words = child, words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words if n_words == 4 and dtype is np.uint64 else self.child.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.child.spawn(n_children)


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
        return cls._from_children(np.random.SeedSequence(seed).spawn(n_parties + 4))

    @classmethod
    def from_generator(cls, rng: np.random.Generator, n_parties: int) -> "RngBundle":
        """Derive a bundle from an existing PCG64 generator (consumes one spawn,
        as ``rng.spawn`` does, and gives its streams)."""
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("every stream of an RngBundle must be a numpy Generator on PCG64")
        return cls._from_children(rng.bit_generator.seed_seq.spawn(n_parties + 4))

    @classmethod
    def _from_children(cls, children: list[np.random.SeedSequence]) -> "RngBundle":
        """One PCG64 stream per spawned child (queues decode its words), in the
        documented order: parties first."""
        pool = np.array([child.pool for child in children])
        words = (pool.take(np.arange(8) % pool.shape[1], axis=1) ^ _HASH[:8]) * _HASH[1:]  # word i: pool[i % size]
        words ^= words >> 16
        seeds = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)  # low half first
        seeds.flags.writeable = False
        gens = [np.random.Generator(np.random.PCG64(_Seeded(c, s))) for c, s in zip(children, seeds)]
        n_parties = len(gens) - 4
        return cls(
            parties=tuple(gens[:n_parties]),
            network=gens[n_parties],
            coin=gens[n_parties + 1],
            source=gens[n_parties + 2],
            adversary=gens[n_parties + 3],
        )

    def party(self, party: int) -> np.random.Generator:
        return self.parties[party]
