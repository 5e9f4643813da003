"""Simulated classical communication fabric for an n-party network.

Provides private pairwise channels, a broadcast channel whose announcement
order is a fresh uniform permutation per round (a trusted sequencer stands in
for "random order or simultaneous" announcement), full transcript capture,
and extraction of what a coalition of parties gets to see.

The transcript is columnar: every channel call appends one block of records
(a phase, a kind, and sender, receiver, bits and position columns), so a
notification round records each n x n share table as one block with
``send_block``, validated once with numpy, and each broadcast round is one
block. A payload is a '0'/'1' string or, in a block, a 0/1 integer array.
``Entry`` records are built from the columns only when read, and a
coalition's view is a set of boolean masks over the sender and receiver
columns. Channel counters track exact bit volumes. A run is sequential;
independent runs may execute concurrently since every value here is confined
to its run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

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


_BIT_CHARS = np.array(["0", "1"])


class _Block(NamedTuple):
    """The records of one channel call, as columns.

    A private block holds arrays: sender, receiver and bits, either an
    integer array of 0/1 or an array of '0'/'1' strings; every position is
    None. A broadcast block holds lists: sender (None for the public source),
    bits as strings, and the announcement positions; every receiver is None.
    """

    phase: str
    kind: str
    sender: Sequence
    receiver: np.ndarray | None
    bits: Sequence
    position: Sequence[int] | None

    def entries(self, mask: np.ndarray | None) -> Iterator[Entry]:
        """The block's records, or those ``mask`` keeps, as entries."""
        phase, kind = repeat(self.phase), repeat(self.kind)
        if self.kind == BROADCAST:
            return map(Entry, phase, kind, self.sender, repeat(None), self.bits, self.position)
        sender, receiver, bits = self.sender, self.receiver, self.bits
        if mask is not None:
            sender, receiver, bits = sender[mask], receiver[mask], bits[mask]
        if bits.dtype.kind != "U":
            bits = _BIT_CHARS[bits]
        return map(Entry, phase, kind, sender.tolist(), receiver.tolist(), bits.tolist(), repeat(None))


def _bit_count(payloads: list) -> int:
    """Total length of ``payloads``; ProtocolError unless each is a
    non-empty '0'/'1' string."""
    if not all(isinstance(b, str) and b for b in payloads) or set("".join(payloads)) - {"0", "1"}:
        bad = next(b for b in payloads if not isinstance(b, str) or not b or set(b) - {"0", "1"})
        raise ProtocolError(f"payload must be a non-empty '0'/'1' string, got {bad!r}")
    return sum(map(len, payloads))


class Transcript(Sequence):
    """An immutable run of transcript records, held as the columns of the
    blocks that made them; a private block's mask, when given, keeps only
    some of its records. As a sequence it yields ``Entry`` records, built
    from the columns only when read, and compares equal to the tuple of
    them; its length comes from the columns."""

    def __init__(self, blocks: Iterable[_Block] = (), masks: Iterable[np.ndarray | None] | None = None):
        self._blocks = tuple(blocks)
        self._masks = (None,) * len(self._blocks) if masks is None else tuple(masks)
        self._len = sum(
            len(b.sender) if m is None else int(np.count_nonzero(m)) for b, m in zip(self._blocks, self._masks)
        )

    @cached_property
    def entries(self) -> tuple[Entry, ...]:
        return tuple(chain.from_iterable(b.entries(m) for b, m in zip(self._blocks, self._masks)))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Transcript, tuple)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Transcript({self.entries!r})"

    def seen_by(self, members: frozenset[int], n: int) -> Transcript:
        """The records a coalition of an n-party network sees: every
        broadcast, and the private messages with an endpoint in ``members``,
        found by one lookup over each private block's sender and receiver
        columns."""
        member = np.zeros(n, dtype=bool)
        member[list(members)] = True
        masks = []
        for block, mask in zip(self._blocks, self._masks):
            if block.kind != BROADCAST:
                seen = member[block.sender] | member[block.receiver]
                mask = seen if mask is None else seen & mask
            masks.append(mask)
        return Transcript(self._blocks, masks)


class Network:
    """Private pairwise channels plus an ordered broadcast channel.

    ``rng`` drives only the broadcast announcement ordering; party randomness
    lives in the parties' own streams. Every channel call appends one block
    of records to the transcript.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError(f"need at least one party, got n={n}")
        self.n = n
        self._rng = rng
        self._blocks: list[_Block] = []
        self.counters = ChannelCounters()

    def _out_of_range(self, party: int) -> ProtocolError:
        return ProtocolError(f"party {party} out of range for n={self.n}")

    @property
    def transcript(self) -> Transcript:
        return Transcript(self._blocks)

    def send_block(self, senders, receivers, bits, phase: str, kept=False) -> None:
        """Uses of the private pairwise channels, one block of messages:
        message i goes ``senders[i]`` -> ``receivers[i]`` carrying ``bits[i]``,
        from an integer array of 0/1 (a table is read in C order) or a
        sequence of '0'/'1' strings.

        ``kept`` (a bool, or one per message) marks the shares a party deals
        to itself in an XOR-share round: a kept share has sender == receiver
        and counts like a channel use, so a notification round at size n
        accounts for exactly n bits per dealer. A self-send anywhere else is a
        ProtocolError. A block that fails a check records nothing.
        """
        senders, receivers = np.array(senders, dtype=np.intp), np.array(receivers, dtype=np.intp)
        if senders.ndim != 1 or receivers.ndim != 1:
            raise ProtocolError("a block takes one-dimensional sender and receiver columns")
        if isinstance(bits, np.ndarray) and bits.dtype.kind in "iu":
            bits = bits.reshape(-1).copy()
            if np.count_nonzero(bits & ~bits.dtype.type(1)):
                raise ProtocolError(f"bit payloads must be 0 or 1, got {sorted(set(bits.tolist()))}")
            size = len(bits)
        else:
            bits = list(bits)
            size = _bit_count(bits)
            bits = np.array(bits, dtype=str)
        if not len(bits) == len(senders) == len(receivers):
            raise ProtocolError("a block needs one sender, receiver and payload per message")
        for parties in (senders, receivers):
            if len(parties) and parties.view(np.uintp).max() >= self.n:
                raise self._out_of_range(next(p for p in parties.tolist() if not 0 <= p < self.n))
        wrong = (senders == receivers) != kept
        if np.count_nonzero(wrong):
            first = np.flatnonzero(wrong)[0]
            sender, receiver = senders[first], receivers[first]
            if sender == receiver:
                raise ProtocolError(f"party {sender} cannot send to itself; use keep_share")
            raise ProtocolError(f"party {sender} keeps a share that goes to party {receiver}")
        if size:
            self._blocks.append(_Block(phase, PRIVATE, senders, receivers, bits, None))
        self.counters.private_bits_sent += size

    def send_private(self, sender: int, receiver: int, bits: str, phase: str) -> None:
        """One use of the private pairwise channel sender -> receiver."""
        self.send_block([sender], [receiver], (bits,), phase)

    def keep_share(self, party: int, bits: str, phase: str) -> None:
        """Record the share a party deals to itself in an XOR-share round."""
        self.send_block([party], [party], (bits,), phase, kept=True)

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
        announcers = sorted(announcements)
        for party in announcers[:1] + announcers[-1:]:  # the extremes bound every announcer
            if not 0 <= party < self.n:
                raise self._out_of_range(party)
        payloads = [announcements[p] for p in announcers]
        size = _bit_count(payloads)
        order = self._rng.permutation(len(announcers)).tolist()
        parties, payloads = [announcers[i] for i in order], [payloads[i] for i in order]
        if size:
            self._blocks.append(_Block(phase, BROADCAST, parties, None, payloads, range(len(parties))))
        self.counters.broadcast_bits_sent += size
        return list(zip(parties, payloads))

    def broadcast_public(self, bits: str, phase: str) -> None:
        """A broadcast from the neutral public randomness source (no party)."""
        size = _bit_count([bits])
        self._blocks.append(_Block(phase, BROADCAST, [None], None, [bits], [0]))
        self.counters.broadcast_bits_sent += size


@dataclass(frozen=True)
class AdversaryView:
    """Everything a coalition observes: all broadcasts plus private messages
    with an endpoint inside the coalition. Honest-to-honest private traffic is
    never included. ``extract_view`` gives ``visible_entries`` as a
    ``Transcript``; any sequence of entries is held as given."""

    coalition: frozenset[int]
    visible_entries: Sequence[Entry]


def check_coalition(coalition: Iterable[int], n: int) -> frozenset[int]:
    """The coalition as a frozenset; ValueError unless it holds at most n - 2
    parties (the corruption bound), each a party of the n-party network."""
    members = frozenset(coalition)
    if len(members) > n - 2:
        raise ValueError(f"coalition of {len(members)} exceeds the corruption bound {n - 2}")
    if any(not 0 <= p < n for p in members):
        raise ValueError(f"coalition {sorted(members)} contains parties out of range for n={n}")
    return members


def extract_view(transcript: Transcript, coalition: Iterable[int], n: int) -> AdversaryView:
    """Filter the transcript of an n-party network down to what
    ``coalition`` can see, by masks over its sender and receiver columns."""
    members = check_coalition(coalition, n)
    return AdversaryView(coalition=members, visible_entries=transcript.seen_by(members, n))
