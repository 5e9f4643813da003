"""Simulated classical communication fabric for an n-party network.

Provides private pairwise channels, a broadcast channel whose announcement
order is a fresh uniform permutation per round (a trusted sequencer stands in
for "random order or simultaneous" announcement), full transcript capture,
and extraction of what a coalition of parties gets to see.

Payloads are strings of ``'0'``/``'1'``; channel counters track exact bit
volumes. A run is sequential; independent runs may execute concurrently since
every value here is confined to its run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

PRIVATE = "private"
BROADCAST = "broadcast"


class ProtocolError(ValueError):
    """A party violated the channel contract (bad ids, malformed payload)."""


class ChannelAbort(RuntimeError):
    """A required announcement was not made in time; the run must abort."""


class Entry(NamedTuple):
    """One transcript record.

    ``position`` is the announcement slot within a broadcast round (None for
    private messages). ``sender`` is None for the neutral public randomness
    source. A kept share is recorded as a private entry with sender ==
    receiver; it still counts as a channel use so that XOR-share rounds have
    their full n x n accounting.
    """

    phase: str
    kind: str
    sender: int | None
    receiver: int | None
    bits: str
    position: int | None


@dataclass
class ChannelCounters:
    """Monotone bit counters for one run."""

    private_bits_sent: int = 0
    broadcast_bits_sent: int = 0


@dataclass(frozen=True)
class RoleAssignment:
    """Who is Alice and which parties she picked as receivers."""

    n: int
    alice: int
    receivers: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "receivers", frozenset(self.receivers))
        if self.n < 1:
            raise ValueError(f"need at least one party, got n={self.n}")
        if not 0 <= self.alice < self.n:
            raise ValueError(f"alice={self.alice} out of range for n={self.n}")
        if not self.receivers <= frozenset(range(self.n)):
            raise ValueError(f"receivers {sorted(self.receivers)} out of range for n={self.n}")
        if self.alice in self.receivers:
            raise ValueError("alice cannot be one of her own receivers")

    @property
    def m(self) -> int:
        return len(self.receivers)

    @property
    def participants(self) -> frozenset[int]:
        return self.receivers | {self.alice}

    @property
    def non_participants(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.participants

    @property
    def participant_order(self) -> tuple[int, ...]:
        """Fixed qubit/key ordering: Alice first, then receivers ascending."""
        return (self.alice, *sorted(self.receivers))


def _check_bits(bits: str) -> str:
    if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
        raise ProtocolError(f"payload must be a non-empty '0'/'1' string, got {bits!r}")
    return bits


class Network:
    """Private pairwise channels plus an ordered broadcast channel.

    ``rng`` drives only the broadcast announcement ordering; party randomness
    lives in the parties' own streams.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError(f"need at least one party, got n={n}")
        self.n = n
        self._rng = rng
        self._entries: list[Entry] = []
        self.counters = ChannelCounters()

    def _check_party(self, party: int) -> None:
        if not 0 <= party < self.n:
            raise ProtocolError(f"party {party} out of range for n={self.n}")

    @property
    def transcript(self) -> tuple[Entry, ...]:
        return tuple(self._entries)

    def send_private(self, sender: int, receiver: int, bits: str, phase: str) -> None:
        """One use of the private pairwise channel sender -> receiver."""
        self._check_party(sender)
        self._check_party(receiver)
        if sender == receiver:
            raise ProtocolError(f"party {sender} cannot send to itself; use keep_share")
        _check_bits(bits)
        self._entries.append(Entry(phase, PRIVATE, sender, receiver, bits, None))
        self.counters.private_bits_sent += len(bits)

    def keep_share(self, party: int, bits: str, phase: str) -> None:
        """Record the share a party deals to itself in an XOR-share round.

        Counted like a private-channel use so a notification round at size n
        accounts for exactly n bits per dealer.
        """
        self._check_party(party)
        _check_bits(bits)
        self._entries.append(Entry(phase, PRIVATE, party, party, bits, None))
        self.counters.private_bits_sent += len(bits)

    def broadcast_round(
        self,
        announcements: Mapping[int, str],
        phase: str,
        expected: Iterable[int] | None = None,
    ) -> list[tuple[int, str]]:
        """One broadcast round; all parties see the same ordered content.

        Announcement order is a fresh uniform permutation of the announcers.
        If any party in ``expected`` fails to announce, the round aborts.
        """
        if expected is not None:
            missing = sorted(set(expected) - set(announcements))
            if missing:
                raise ChannelAbort(f"parties {missing} did not announce in time ({phase})")
        for party, bits in announcements.items():
            self._check_party(party)
            _check_bits(bits)
        announcers = sorted(announcements)
        order = [announcers[i] for i in self._rng.permutation(len(announcers))]
        out: list[tuple[int, str]] = []
        for position, party in enumerate(order):
            bits = announcements[party]
            self._entries.append(Entry(phase, BROADCAST, party, None, bits, position))
            self.counters.broadcast_bits_sent += len(bits)
            out.append((party, bits))
        return out

    def broadcast_public(self, bits: str, phase: str) -> None:
        """A broadcast from the neutral public randomness source (no party)."""
        _check_bits(bits)
        self._entries.append(Entry(phase, BROADCAST, None, None, bits, 0))
        self.counters.broadcast_bits_sent += len(bits)


@dataclass(frozen=True)
class AdversaryView:
    """Everything a coalition observes: all broadcasts plus private messages
    with an endpoint inside the coalition. Honest-to-honest private traffic is
    never included."""

    coalition: frozenset[int]
    visible_entries: tuple[Entry, ...]


def check_coalition(coalition: Iterable[int], n: int) -> frozenset[int]:
    """The coalition as a frozenset; ValueError unless it holds at most n - 2
    parties (the corruption bound), each a party of the n-party network."""
    members = frozenset(coalition)
    if len(members) > n - 2:
        raise ValueError(f"coalition of {len(members)} exceeds the corruption bound {n - 2}")
    if any(not 0 <= p < n for p in members):
        raise ValueError(f"coalition {sorted(members)} contains parties out of range for n={n}")
    return members


def extract_view(
    transcript: Iterable[Entry], coalition: Iterable[int], n: int
) -> AdversaryView:
    """Filter a transcript down to what ``coalition`` can see."""
    members = check_coalition(coalition, n)
    visible = tuple(
        e
        for e in transcript
        if e.kind == BROADCAST or e.sender in members or e.receiver in members
    )
    return AdversaryView(coalition=members, visible_entries=visible)


def transcript_to_jsonl(transcript: Iterable[Entry]) -> str:
    """One JSON object per record: phase, kind, from, to, bits, position."""
    lines = [
        json.dumps(
            {
                "phase": e.phase,
                "kind": e.kind,
                "from": e.sender,
                "to": e.receiver,
                "bits": e.bits,
                "position": e.position,
            },
            sort_keys=True,
        )
        for e in transcript
    ]
    return "\n".join(lines)
