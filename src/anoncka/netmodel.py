"""Simulated classical communication fabric for an n-party network.

Provides private pairwise channels, a broadcast channel whose announcement
order is a fresh uniform permutation per round (a trusted sequencer stands in
for "random order or simultaneous" announcement), full transcript capture,
and extraction of what a coalition of parties gets to see.

The transcript is columnar: every channel call appends one block of records
(a kind, and phase, sender, receiver, payload and position columns), so a
notification records its whole run with one ``send_block``, validated once
with numpy, and ``broadcast_rounds`` records the rounds of a protocol step,
an avka queue's announcements and public coins, as one block. A payload is a
'0'/'1' string or, in a block, an integer payload code (``payload_codes``).
``Entry`` records and their strings are built from the columns only when
read, and a coalition's view is a set of boolean masks over the sender and
receiver columns. Channel counters track exact bit volumes. A run is
sequential; independent runs may execute concurrently since every value here
is confined to its run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

PRIVATE = "private"
BROADCAST = "broadcast"


class ProtocolError(ValueError):
    """A party violated the channel contract (bad ids, malformed payload)."""


class ChannelAbort(RuntimeError):
    """A required announcement was not made in time; the run must abort.
    ``rounds`` counts the rounds of the block recorded before it."""

    def __init__(self, message: str, rounds: int = 0):
        super().__init__(message)
        self.rounds = rounds


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


_POWERS = 2 ** np.arange(1, 63)  # a payload code holds at most 62 bits


def payload_codes(*bits):
    """The codes of payloads whose i-th bits are ``bits[i]`` (0/1 arrays): a
    payload's bits after a leading 1, read in binary, less 2. So '0' -> 0,
    '1' -> 1, '00' -> 2, ..., '11' -> 5, and a 0/1 array is its own code."""
    return reduce(lambda code, bit: 2 * code + np.asarray(bit, dtype=np.int64), bits, 1) - 2


def _codes(payloads) -> np.ndarray:
    """The codes of '0'/'1' strings; ProtocolError unless each is non-empty
    and at most 62 bits long."""
    payloads = list(payloads)
    for b in payloads:
        if not (isinstance(b, str) and 0 < len(b) <= 62) or set(b) - {"0", "1"}:
            raise ProtocolError(f"payload must be a non-empty '0'/'1' string of at most 62 bits, got {b!r}")
    return np.array([int("1" + b, 2) - 2 for b in payloads], dtype=np.int64)


def _bit_count(codes: np.ndarray) -> int:
    """The total length of the payloads with these codes."""
    return int(_POWERS.searchsorted(codes + 2, side="right").sum())


class _Block(NamedTuple):
    """The records of one channel call, as columns with one entry per
    record: phase (an object array), sender, receiver, payload code and
    announcement position. A private block's senders and receivers are
    integer arrays and its positions None; a broadcast block's senders are an
    object array (None for the public source) and its receivers None."""

    kind: str
    phase: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray | None
    bits: np.ndarray
    position: np.ndarray | None

    def entries(self, mask: np.ndarray | None) -> Iterator[Entry]:
        """The block's records, or those ``mask`` keeps, as entries."""
        keep = slice(None) if mask is None else mask
        phase, sender, bits = self.phase[keep].tolist(), self.sender[keep].tolist(), (self.bits[keep] + 2).tolist()
        receiver, position = (repeat(None) if c is None else c[keep].tolist() for c in (self.receiver, self.position))
        return map(Entry, phase, repeat(self.kind), sender, receiver, [bin(c)[3:] for c in bits], position)


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

    def _check_range(self, parties) -> None:
        """ProtocolError unless each of ``parties``, a list or array of ints, is in range."""
        if len(parties) and np.asarray(parties, dtype=np.intp).view(np.uintp).max() >= self.n:  # negatives wrap to large
            raise ProtocolError(f"party {next(p for p in parties if not 0 <= p < self.n)} out of range for n={self.n}")

    @property
    def transcript(self) -> Transcript:
        return Transcript(self._blocks)

    def send_block(self, senders, receivers, bits, phase, kept=False) -> None:
        """Uses of the private pairwise channels, one block of messages:
        message i goes ``senders[i]`` -> ``receivers[i]`` carrying ``bits[i]``,
        from an integer array of 0/1 (a table is read in C order) or a
        sequence of '0'/'1' strings, in ``phase`` (a string, or one per message).

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
        else:
            bits = _codes(bits)
        if not len(bits) == len(senders) == len(receivers) or {np.shape(kept), np.shape(phase)} - {(), (len(bits),)}:
            raise ProtocolError("a block needs one sender, receiver and payload per message, and one phase and kept flag for all or each")
        self._check_range(np.concatenate([senders, receivers]))
        wrong = (senders == receivers) != kept
        if np.count_nonzero(wrong):
            first = np.flatnonzero(wrong)[0]
            sender, receiver = senders[first], receivers[first]
            if sender == receiver:
                raise ProtocolError(f"party {sender} cannot send to itself; use keep_share")
            raise ProtocolError(f"party {sender} keeps a share that goes to party {receiver}")
        if len(bits):
            phase = np.broadcast_to(np.array(phase, dtype=object), len(bits))
            self._blocks.append(_Block(PRIVATE, phase, senders, receivers, bits, None))
        self.counters.private_bits_sent += _bit_count(bits)

    def send_private(self, sender: int, receiver: int, bits: str, phase: str) -> None:
        """One use of the private pairwise channel sender -> receiver."""
        self.send_block([sender], [receiver], (bits,), phase)

    def keep_share(self, party: int, bits: str, phase: str) -> None:
        """Record the share a party deals to itself in an XOR-share round."""
        self.send_block([party], [party], (bits,), phase, kept=True)

    def broadcast_rounds(self, phases: Sequence[str], bits, expected: Iterable[int] | None = None) -> list:
        """Broadcast rounds as one block; all parties see the same ordered
        content. Round r, in phase ``phases[r]``, is row r of ``bits``, an
        (rounds, n + 1) integer table of payload codes by announcer, -1 for
        none; announcer n is the public randomness source, which announces
        alone. A party round's order is a fresh uniform permutation of its
        announcers: one ``permuted`` call makes every round's, the draws of one
        ``permutation`` per round, so party rounds need one announcer count. At
        the first party round that misses a party of ``expected``, the rounds
        before it are recorded and a ChannelAbort counts them. Returns the
        recorded senders, None for the public source.
        """
        bits = np.asarray(bits)
        shaped = bits.dtype.kind in "iu" and bits.shape == (len(phases), self.n + 1)
        if not shaped or not -1 <= bits.min(initial=0) <= bits.max(initial=0) <= 2**63 - 3:  # the longest payload's
            raise ProtocolError("a broadcast block takes a (rounds, n + 1) table of payload codes, -1 for none")
        said = bits >= 0
        party = ~said[:, -1]
        if said[~party, :-1].any():
            raise ProtocolError("the public source announces alone")
        rounds = len(bits)
        if expected is not None:
            expected = sorted(expected)
            self._check_range(expected)
            short = (party & ~said[:, expected].all(axis=1)).nonzero()[0]
            rounds = int(short[0]) if len(short) else rounds
        said, party = said[:rounds], party[:rounds]
        row, sender = said.nonzero()  # the records, by round, announcers ascending
        counts = said.sum(axis=1)
        start = counts.cumsum() - counts
        k = counts[party]
        if (k != k[:1]).any():
            raise ProtocolError("the party rounds of a broadcast block need one announcer count")
        slots = start[party][:, None] + np.arange(k.max(initial=0))  # each party round's records
        sender[slots] = sender[self._rng.permuted(slots, axis=1)]
        codes, public = bits[row, sender], sender.astype(object)
        public[sender == self.n] = None
        if len(codes):
            phase = np.array(phases[:rounds], dtype=object).repeat(counts)
            self._blocks.append(_Block(BROADCAST, phase, public, None, codes, np.arange(len(codes)) - start[row]))
        self.counters.broadcast_bits_sent += _bit_count(codes)
        if rounds < len(bits):
            missing = [p for p in expected if bits[rounds, p] < 0]
            raise ChannelAbort(f"parties {missing} did not announce in time ({phases[rounds]})", rounds)
        return public.tolist()

    def broadcast_round(
        self,
        announcements: Mapping[int, str],
        phase: str,
        expected: Iterable[int] | None = None,
    ) -> list[tuple[int, str]]:
        """One broadcast round of '0'/'1' string payloads, for library
        callers; all parties see the same ordered content. Announcement order
        is a fresh uniform permutation of the announcers. If any party in
        ``expected`` fails to announce, the round aborts. This is the
        one-round case of ``broadcast_rounds``, through which every protocol
        step records its rounds as payload codes.
        """
        announcers = sorted(announcements)
        self._check_range(announcers)
        row = np.full((1, self.n + 1), -1)
        row[0, announcers] = _codes(announcements[p] for p in announcers)
        return [(p, announcements[p]) for p in self.broadcast_rounds([phase], row, expected)]

    def broadcast_public(self, bits: str, phase: str) -> None:
        """A broadcast from the neutral public randomness source (no party)."""
        row = np.full((1, self.n + 1), -1)
        row[0, -1] = _codes([bits])[0]
        self.broadcast_rounds([phase], row)


@dataclass(frozen=True)
class AdversaryView:
    """Everything a coalition observes: all broadcasts plus private messages
    with an endpoint inside the coalition. Honest-to-honest private traffic is
    never included. ``extract_view`` gives ``visible_entries`` as a
    ``Transcript``; any sequence of entries is held as given."""

    coalition: frozenset[int]
    visible_entries: Sequence[Entry]


def check_coalition(coalition: Iterable[int], n: int, alices: Iterable[int] = ()) -> frozenset[int]:
    """The coalition as a frozenset; ValueError if it holds one of ``alices``
    or more than n - 2 parties (the corruption bound), or a party outside
    the n-party network."""
    members = frozenset(coalition)
    if not members.isdisjoint(alices):
        raise ValueError("coalition must exclude Alice")
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
