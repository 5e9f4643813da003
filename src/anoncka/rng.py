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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        children = np.random.SeedSequence(seed).spawn(n_parties + 4)
        return cls._from_streams([np.random.default_rng(c) for c in children])

    @classmethod
    def from_generator(cls, rng: np.random.Generator, n_parties: int) -> "RngBundle":
        """Derive a bundle from an existing generator (consumes one spawn)."""
        return cls._from_streams(rng.spawn(n_parties + 4))

    @classmethod
    def _from_streams(cls, gens: list[np.random.Generator]) -> "RngBundle":
        """Assign spawned streams in the documented order: parties first; PCG64 only (queues decode its words)."""
        if not all(isinstance(g.bit_generator, np.random.PCG64) for g in gens):
            raise TypeError("every stream of an RngBundle must be a numpy Generator on PCG64")
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
