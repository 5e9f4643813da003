"""Step-by-step implementations of the five conference-key protocols.

* ``notification``   -- Alice anonymously flags her chosen receivers using
                        XOR share tables over private channels.
* ``ame``            -- anonymous multiparty entanglement: carve an
                        (m+1)-party GHZ state out of an n-party one by
                        X-measuring the bystanders and phase-correcting.
* ``verification``   -- even-Y X/Y parity test of a shared GHZ state with a
                        designated verifier.
* ``aka``            -- notification + repeated ame + Z-measurement, yielding
                        a shared key (no verification): ``avka`` with
                        every round a keygen round.
* ``avka``           -- verifiable variant: a public coin splits rounds into
                        verification and keygen rounds.

Each quantum step has one implementation, which works on a (rows, 2^n)
amplitude array of independent rounds through the measurement kernel:
``carve`` is the bystander step of ame and ``parity_measure`` the parity
test, each a pure function of the draws it is given: only ``carve_draws``,
``parity_draws`` and ``_rows`` read a stream. ``ame`` and ``verification``
are their one-row case plus a broadcast. ``_queued`` joins batches of about
1 MB; ``_drawn`` makes a queue's draws with one raw-word call per stream,
each batch's values as if it ran alone. An ``avka`` queue is one carve
(rounds that share a state are one tree, run on the support when no state
has three nonzero amplitudes), one Z readout, one parity test and one
block of its rounds' broadcasts. ``analysis`` calls the steps with many
rows, exhaustive tests with uniforms of -1 and 2.

Party i holds qubit i of each source state. All participant-ordered tuples
use Alice first, then receivers ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .netmodel import ChannelAbort, Network, RoleAssignment, payload_codes
from .qsim import Basis, NoiseEnsemble, StateVector, _measure_kernel, _pair_support, measure_string, sample_ensemble
from .rng import RngBundle

VERIFICATION_ROUND = "verification"
KEYGEN_ROUND = "keygen"
_STEPS = ("ame:announce", "coin", "verify:announce")  # an avka round's broadcast phases, in order

# Bytes per batch and per queue: a batch holds 2^20 / (16 * 2^n) rounds or shots
# (16 bytes per amplitude) or 2^20 / n^3 notifications (one int8 per share bit).
_BATCH_BYTES = 2**20
_CACHED = 16  # the most notification layouts, and support tree level plans, a process keeps


def _batches(trials: int, row_bytes: int):
    """Row counts of the batches that together run ``trials`` rows of
    ``row_bytes`` bytes each."""
    size = max(1, _BATCH_BYTES // row_bytes)
    for start in range(0, trials, size):
        yield min(size, trials - start)


def _rows(source: StateVector | NoiseEnsemble, stream: np.random.Generator, shots: int):
    """``shots`` states of a source as (states, index): its distinct states,
    row 0 its own (a pure state's one read-only row), and draw i's row
    ``states[index[i]]``. Only a mixture draws, from ``stream``."""
    if isinstance(source, StateVector):
        return source.amplitudes[None], np.zeros(shots, dtype=np.intp)
    return sample_ensemble(source, stream, shots)


def _queued(sources, stream: np.random.Generator, draw_bytes: int):
    """Queues of (states, index, sizes) of the (source, draws) pairs
    ``sources``, drawn by ``_rows`` in ``_batches`` of 16 * 2^n-byte rows,
    ``sizes`` the queue's batch sizes in order. A batch joins while the
    queue's states and its draws, at ``draw_bytes`` each, each stay within
    ``_BATCH_BYTES``; its states are drawn before the queue it does not fit
    in is yielded. Consecutive batches of one source hold its row 0 once,
    from the first draw of it on."""
    queue, held, drawn, last, first = [], 0, 0, None, None
    for source, draws in sources:
        for size in _batches(draws, 16 * 2**source.n_qubits):
            states, index = _rows(source, stream, size)
            shared = source is last and first is not None  # its row 0 is held, at row ``first``
            if queue and max((held + len(states) - shared) * states[0].nbytes, (drawn + size) * draw_bytes) > _BATCH_BYTES:
                joined, queue, held, drawn, shared = _joined(queue), [], 0, 0, False
                yield joined
            if shared:
                states, index = states[1:], np.where(index == 0, first, index + held - 1)
            elif np.count_nonzero(index == 0):
                first, index = held, index + held
            else:
                first, states, index = None, states[1:], index + held - 1
            queue.append((states, index))
            held, drawn, last = held + len(states), drawn + size, source
    if queue:
        yield _joined(queue)


def _joined(queue):
    """A queue's batches as one (states, index, sizes)."""
    states, index = zip(*queue)
    parts = [rows for rows in states if len(rows)]
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return joined, np.concatenate(index), np.array([len(rows) for rows in index])


def _drawn(fields) -> list:
    """The values of ``fields``, (stream, coin, counts) triples, one array per
    field: every stream draws batch by batch, and in a batch its fields in
    list order, ``counts[b]`` coins (``integers(0, 2)``) if ``coin``, else
    doubles (``random()``), in batch b (int counts are one batch). One batch
    makes numpy's own calls, field by field: on the one-batch calls that every
    one-row ``ame`` and ``verification`` and the sample configs make, these
    cost less than a state read and write per stream. Over several batches,
    every PCG64 stream makes one ``random_raw`` call, decoded into numpy's own
    values and stream states. A double is a word's top 53 bits. A coin is bit
    31 of the next 32-bit half (Lemire's method never rejects a range of 2):
    the half the stream keeps, else a fresh word's low half, whose high half
    it keeps."""
    counts = np.array([counts for _, _, counts in fields]).reshape(len(fields), -1)  # (fields, batches)
    if counts.shape[1] == 1:
        return [stream.integers(0, 2, size=c) if coin else stream.random(c) for (stream, coin, _), c in zip(fields, counts[:, 0].tolist())]
    index: dict = {}
    owner = np.array([index.setdefault(id(stream), (len(index), stream))[0] for stream, _, _ in fields])
    coin = np.array([coin for _, coin, _ in fields], dtype=bool)
    batches, totals = counts.shape[1], counts.sum(axis=1)
    flips = np.bincount(owner, totals * coin, minlength=len(index)).astype(np.intp)  # coins per stream
    words, states = [], []
    for (_, generator), draws, flipped in zip(index.values(), np.bincount(owner, totals).astype(np.intp).tolist(), flips.tolist()):
        gen = generator.bit_generator  # the words it takes if it keeps a half; one more if not and ``flipped`` is odd
        raw, state = gen.random_raw(draws - flipped + flipped // 2), gen.state if flipped else None
        if flipped % 2 and not state["has_uint32"]:
            raw, state = np.append(raw, gen.random_raw(1)), gen.state
        words.append(raw)
        states.append((gen, state))
    kept = np.array([bool(state and state["has_uint32"]) for _, state in states])
    kept_halves = np.array([state["uinteger"] if state else 0 for _, state in states], dtype=np.uint32)
    flat = np.concatenate([*words, np.zeros(1, dtype=np.uint64)])  # and a spare word, for index -1
    halves = np.concatenate([flat.astype("<u8", copy=False).view("<u4"), kept_halves])  # low half first
    # Runs, a field's draws in one batch, in draw order: stream by stream, batch by batch, field by field.
    order = np.argsort((owner[:, None] * batches + np.arange(batches)).ravel(), kind="stable")
    stream, coined, size = owner[order // batches], coin[order // batches], counts.ravel()[order]
    # A stream's halves: 1 is the one it keeps, 2j and 2j + 1 the low and high halves of its j-th fresh word.
    half = np.cumsum(size * coined) - size * coined - (np.cumsum(flips) - flips)[stream] + 2 - kept[stream]
    fresh = np.where(coined, (half + size + 1 >> 1) - (half + 1 >> 1), size)  # the words each run draws
    start = np.cumsum(fresh) - fresh  # ...from ``flat[start]`` on
    coin_word = np.maximum.accumulate(np.where(coined & (fresh > 0), start + fresh - 1, -1))  # the last so far
    ends = 1 - kept + flips  # each stream's last coin's half: a low one leaves its word's high half kept
    highs = np.where(ends > 1, flat[coin_word[np.cumsum(np.bincount(stream)) - 1]] >> 32, kept_halves)
    for (gen, state), end, high in zip((pair for pair in states if pair[1]), ends[flips > 0].tolist(), highs[flips > 0].tolist()):
        state["has_uint32"], state["uinteger"] = int(end % 2 == 0), high
        gen.state = state
    # Coin i of a run reads half 2 * start + i of ``halves``, one less after an odd first half, which
    # the first coin reads: its stream's kept half (after the words') or the coin word before's high half.
    odd = coined & (half % 2 == 1) & (size > 0)
    carry = np.where(half == 1, len(halves) - len(index) + stream, 2 * np.concatenate(([-1], coin_word[:-1])) + 1)
    back = np.empty_like(order)
    back[order] = np.arange(len(order))  # the runs in field order: field by field, batch by batch
    read, odd, carry, coined, size = (x[back] for x in (np.where(coined, 2 * start - odd, start), odd, carry, coined, size))
    values = []
    for kind, source in ((coined, halves), (~coined, flat)):
        first = np.cumsum(size[kind]) - size[kind]
        at = np.arange(size[kind].sum()) + np.repeat(read[kind] - first, size[kind])
        at[first[odd[kind]]] = carry[kind & odd]
        values.append(source[at])
    coins, doubles = values[0] >> 31, (values[1] >> 11) * 2.0**-53
    cuts = np.where(coin, np.cumsum(totals * coin), np.cumsum(totals * ~coin)).tolist()
    return [(coins if c else doubles)[cut - total : cut] for c, cut, total in zip(coin.tolist(), cuts, totals.tolist())]


@dataclass(frozen=True)
class NotificationOutcome:
    """Per-party notification bits (exactly the receivers end up with 1) and
    the dealt (target, dealer, holder) share table."""

    notified: tuple[int, ...]
    shares: np.ndarray


@dataclass(frozen=True)
class AmeOutcome:
    """Result of one anonymous entanglement round; ``participant_state``
    holds the participants' qubits in participant order (Alice first,
    receivers ascending)."""

    participant_state: StateVector
    announced_bits: tuple[int, ...]
    corrected: bool


@dataclass(frozen=True)
class VerificationRecord:
    """Basis bits, outcomes, and the verdict of one verification test.

    Tuples are in participant order with the verifier's *reset* basis bit, so
    the basis bits always carry even parity.
    """

    basis_bits: tuple[int, ...]
    outcomes: tuple[int, ...]
    accepted: bool


@dataclass(frozen=True)
class AvkaRound:
    round_type: str
    verification: VerificationRecord | None = None
    keygen_bits: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AvkaResult:
    """Full record of a verifiable key agreement run.

    ``key_bits`` maps each participant to its key string (one bit per keygen
    round). ``validated`` is Alice's local verdict: no aborted round and no
    failed verification round. ``withholder_guess`` holds the bits a
    withholding bystander extracted, when one was injected.
    """

    rounds: tuple[AvkaRound, ...]
    key_bits: dict[int, str]
    aborted: bool
    validated: bool
    withholder_guess: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "aborted": self.aborted,
            "validated": self.validated,
            "num_rounds": len(self.rounds),
            "round_types": [r.round_type for r in self.rounds],
            "rounds": [
                {
                    "type": r.round_type,
                    "basis_bits": None if r.verification is None else "".join(map(str, r.verification.basis_bits)),
                    "outcomes": None if r.verification is None else "".join(map(str, r.verification.outcomes)),
                    "accepted": None if r.verification is None else r.verification.accepted,
                    "key_bits": None if r.keygen_bits is None else "".join(map(str, r.keygen_bits)),
                }
                for r in self.rounds
            ],
            "key_bits": {str(p): bits for p, bits in sorted(self.key_bits.items())},
        }
        if self.withholder_guess:
            out["withholder_guess"] = self.withholder_guess
        return out


def deal_shares(roles: RoleAssignment, rng: RngBundle, trials: int) -> np.ndarray:
    """XOR share tables of ``trials`` notifications, as a (trials, target,
    dealer, holder) int8 bit array.

    Every dealer draws its whole table, (trials, target, holder), in one
    call on its own stream. Then the last bit of each row is set so that the
    row XORs to 1 on Alice's rows for receiver targets and to 0 elsewhere.
    Like every XOR over a share table, the row parity is the low bit of an
    ``einsum`` sum: exact, since an int8 sum that wraps keeps its low bit.
    """
    n = roles.n
    shares = np.empty((trials, n, n, n), dtype=np.int8)
    for dealer in range(n):
        shares[:, :, dealer] = rng.party(dealer).integers(0, 2, size=(trials, n, n), dtype=np.int8)
    parity = np.zeros((n, n), dtype=np.int8)
    parity[sorted(roles.receivers), roles.alice] = 1
    shares[..., -1] ^= (np.einsum("tjdh->tjd", shares) & 1) ^ parity
    return shares


def check_run(roles: RoleAssignment, net: Network, bundle: RngBundle, source=None, withholding=frozenset()) -> None:
    """The run rule, which every protocol call checks before any draw or record:
    ``source`` (if given), ``net`` and ``bundle`` hold one qubit, channel end and
    stream per party of ``roles``, and only non-participants are in ``withholding``."""
    qubits = roles.n if source is None else source.n_qubits
    sizes = ("source", qubits, "qubits"), ("network", net.n, "parties"), ("bundle", len(bundle.parties), "parties")
    for part, size, unit in sizes:
        if size != roles.n:
            raise ValueError(f"the {part} has {size} {unit}, but the run has n={roles.n}")
    if not withholding <= roles.non_participants:
        raise ValueError(f"withholders {sorted(withholding - roles.non_participants)} must be non-participants")


def _check_notified(roles: RoleAssignment, notified) -> None:
    """Raise unless each row of ``notified`` (one bit per party) flags
    exactly the receivers."""
    expected = [int(p in roles.receivers) for p in range(roles.n)]
    if np.any(np.asarray(notified) != expected):
        raise RuntimeError("notification must flag exactly the chosen receivers")


def notification(roles: RoleAssignment, net: Network, rng: RngBundle) -> NotificationOutcome:
    """Anonymously notify the chosen receivers.

    One round per target party i: every party deals an n-bit XOR share row
    with even parity, except Alice, whose row parity encodes whether i is a
    receiver. Each party then returns the XOR of the column it received to
    party i, who recovers the membership bit exactly. This is the one-run
    case of ``deal_shares``; it records its run on ``net`` as one block: per
    target, the dealt table (dealer-major, kept shares on the diagonal), then
    the returned partials. Its layout is built once per n and process
    (``_notification_layout``: 25 * (n^3 + n^2) bytes, 109 KB at n = 16, for
    each of the last ``_CACHED`` sizes), reused only by a later run of that n.
    """
    check_run(roles, net, rng)
    n = roles.n
    (shares,) = deal_shares(roles, rng, 1)
    partials = np.einsum("jdh->jh", shares) & 1
    senders, receivers, phase, kept = _notification_layout(n)
    net.send_block(senders, receivers, np.hstack([shares.reshape(n, -1), partials]), phase, kept=kept)
    return NotificationOutcome(notified=tuple((np.einsum("jh->j", partials) & 1).tolist()), shares=shares)


@lru_cache(maxsize=_CACHED)
def _notification_layout(n: int):
    """The read-only senders, receivers, phases and kept mask of an n-party notification."""
    target, dealer, holder = np.indices((n, n, n))  # per target: the shares, dealer-major, then the partials
    senders = np.hstack([dealer.reshape(n, -1), holder[:, 0]]).ravel()
    receivers = np.hstack([holder.reshape(n, -1), target[:, 0]]).ravel()
    phases = np.array([f"notify[target={t}]:{step}" for t in range(n) for step in ("shares", "partials")], dtype=object)
    return _read_only(senders, receivers, phases.repeat([n * n, n] * n), senders == receivers)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only: a cached value is shared by every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class Carving(NamedTuple):
    """The bystander step of ame on a batch of rounds, one row per round."""

    announced: np.ndarray  # (rows, n) int8: outcomes or coins, by party
    probability: np.ndarray  # (rows,) Born probability of each row's branch
    corrected: np.ndarray  # (rows,) bool: Alice applied Z
    carved: np.ndarray  # (rows, 2^(m+1+w)) participants' qubits, then the w withheld


def carve_draws(roles: RoleAssignment, bundle: RngBundle, rows, withholding=frozenset(), then=()):
    """The draws of ``rows`` carves as (rows, n) arrays by party, int8 coins
    and uniforms: bystanders in ascending order draw a uniform per row from
    their stream, or, withholding, a coin from the adversary stream; then
    every participant draws a coin per row. ``rows`` may be a queue's batch
    sizes: in each batch the streams then draw the ``then`` fields, ``_drawn``'s
    (stream, coin, counts) triples, whose values follow the two arrays."""
    bystanders, order = sorted(roles.non_participants), roles.participant_order
    parties, coined = [*bystanders, *order], [p in withholding for p in bystanders] + [True] * len(order)
    fields = [(bundle.adversary if p in withholding else bundle.party(p), coin, rows) for p, coin in zip(parties, coined)]
    values = _drawn([*fields, *then])
    coins = np.zeros((len(values[0]), roles.n), dtype=np.int8)
    draws = np.zeros((len(coins), roles.n))
    for party, coin, drawn in zip(parties, coined, values):
        (coins if coin else draws)[:, party] = drawn
    return coins, draws, *values[len(parties) :]


@lru_cache(maxsize=_CACHED)
def _pair_levels(support: tuple[int, ...], n: int, measuring: tuple[int, ...]):
    """How a tree on n qubits that measures ``measuring`` in ascending order
    moves the entries of the sorted basis indices ``support``: per level, each
    entry's column in a [z0 | z1] row, one slot per entry in each half, and
    its slot in the kept row, that of the first entry with its index after
    the level; then each entry's final basis index. Read-only arrays."""
    levels, support = len(measuring), np.array(support, dtype=np.intp)
    kept = np.ones((levels + 1, n), dtype=bool)  # the qubits left before each level, and at the end
    kept[:, measuring] = np.arange(levels + 1)[:, None] <= np.arange(levels)
    bits = support[:, None] >> (n - 1 - np.arange(n)) & 1  # (entries, n)
    place = kept.astype(np.intp) << (np.cumsum(kept[:, ::-1], axis=1)[:, ::-1] - kept)  # of each qubit's bit
    keys = (place @ bits.T)[1:]  # each entry's basis index after each level
    # offset by level << n, so that one np.unique keeps the levels apart
    _, first, inverse = np.unique(keys + (np.arange(levels) << n)[:, None], return_index=True, return_inverse=True)
    slots = (first % len(support))[inverse].reshape(levels, -1)
    return _read_only(bits[:, measuring].T * len(support) + slots, slots, keys[-1])


def carve(
    states: np.ndarray,
    index: np.ndarray,
    roles: RoleAssignment,
    draws: tuple[np.ndarray, np.ndarray],
    *,
    withholding: frozenset[int] = frozenset(),
    source: StateVector | NoiseEnsemble | None = None,
) -> Carving:
    """Carve the participants' GHZ state out of rounds of distinct states,
    round i out of row ``states[index[i]]``, each state measured once per outcome.

    ``draws`` are the (coins, uniforms) of ``carve_draws``, one row per
    round. Bystanders in ascending order X-measure their qubit with their
    uniforms; a uniform of -1 or 2 forces outcome 0 or 1, for enumerating
    branches, and a forced impossible branch raises ValueError. Alice's
    qubit takes a Z in the rows whose bystander bits have odd parity, and
    the remaining qubits are put in participant order.

    ``withholding`` names bystanders that skip the measurement, keep their
    qubit, and announce their coin instead.

    When some bystander measures and every state has at most two nonzero
    amplitudes (GHZ, rotated GHZ, GHZ' and basis states, also after X
    measurements), the states are carved on their support, at any n: that
    of ``source``, the pure ``StateVector`` the rows are of (its ``_support``,
    found once per state), else the rows' own, found here. Each level measures
    qubit 0 of [z0 | z1] rows over the support it leaves; only the carved rows
    are made dense. Only a process that carves the same support, n and
    measured set again reuses their plan (``_pair_levels``, the last
    ``_CACHED``, 8 * s * (2m + 1) bytes for s entries and m levels). The
    entries left out are exact zeros: GHZ, GHZ', basis states and Werner
    draws get the dense tree's bits, other states (a rotated GHZ) agree within
    rounding, as ``np.vecdot`` groups a row's products by its layout. Callers
    check the sizes and ``withholding`` first (``check_run``).
    """
    coins, uniforms = draws
    bystanders = sorted(roles.non_participants)
    announced = coins.copy()
    probability = np.ones(len(index))
    measuring = [p for p in bystanders if p not in withholding]
    support = (source._support if isinstance(source, StateVector) else _pair_support(states)) if measuring else None
    if support is not None:
        values = states[:, support]
        columns, slots, support = _pair_levels(tuple(support.tolist()), roles.n, tuple(measuring))
        for level, party in enumerate(measuring):
            pairs = np.zeros((len(values), 2 * values.shape[1]), dtype=complex)
            pairs[:, columns[level]] = values
            try:
                announced[:, party], prob, kept, index = _measure_kernel(pairs, 0, Basis.X, uniforms[:, party], index)
            except ValueError as error:  # name the register's qubit, as the dense tree does
                raise ValueError(str(error).replace("qubit=0,", f"qubit={party - level},")) from None
            probability *= prob
            values = kept[:, slots[level]]
        states = np.zeros((len(values), states.shape[1] >> len(measuring)), dtype=complex)
        states[:, support] = values
    else:
        for level, party in enumerate(measuring):  # qubit party - level of what the levels before leave
            announced[:, party], prob, states, index = _measure_kernel(states, party - level, Basis.X, uniforms[:, party], index)
            probability *= prob
    corrected = np.bitwise_xor.reduce(announced[:, bystanders], axis=1) == 1

    remaining = [p for p in range(roles.n) if p not in measuring]
    order = [remaining.index(p) for p in (*roles.participant_order, *sorted(withholding))]
    carved = states.reshape(-1, *[2] * len(order)).transpose(0, *(q + 1 for q in order)).reshape(len(states), -1)[index]
    # Alice's qubit is now qubit 0: Z negates the second half of a row.
    carved[corrected, carved.shape[1] // 2 :] *= -1.0
    return Carving(announced, probability, corrected, carved)


def ame(
    state: StateVector,
    roles: RoleAssignment,
    net: Network,
    rng: RngBundle,
) -> AmeOutcome:
    """One anonymous multiparty entanglement round: the one-row case of
    ``carve``, then everyone broadcasts its bit in random order.

    On a pure GHZ input the participants end up with a perfect (m+1)-party
    GHZ state in every branch.
    """
    check_run(roles, net, rng, state)
    announced, _, corrected, carved = carve(*_rows(state, rng.source, 1), roles, carve_draws(roles, rng, 1), source=state)
    net.broadcast_rounds(["ame:announce"], np.append(announced[0], -1)[None], expected=range(roles.n))
    return AmeOutcome(
        participant_state=StateVector(roles.m + 1, carved[0]),
        announced_bits=tuple(announced[0].tolist()),
        corrected=bool(corrected[0]),
    )


def _parity_test(basis_bits, outcomes):
    """Accept iff sum of outcomes == (number of Y measurers / 2) mod 2.

    ``basis_bits`` and ``outcomes`` hold one entry per party: an int for one
    round (the verdict is a bool) or an array over shots for a batch of
    rounds (one verdict per shot). The basis sum is even by construction (the
    verifier resets), so the integer halving is well defined; an odd sum
    raises ValueError.
    """
    y_count = sum(basis_bits)
    if np.count_nonzero(y_count % 2):
        raise ValueError("verifier reset must leave an even basis sum")
    return sum(outcomes) % 2 == (y_count // 2) % 2


class ParityDraws(NamedTuple):
    """A parity test's draws on a batch of rounds, as ``ParityRound``."""

    bases: np.ndarray  # (rows, k) int8: 0 -> X, 1 -> Y, with the verifier's reset bit
    uniforms: np.ndarray  # (rows, k) measurement uniforms
    placeholders: np.ndarray  # (rows, 2): the pair the verifier announces


class ParityRound(NamedTuple):
    """The parity test on a batch of rounds, one row per round; columns
    follow the holders."""

    bases: np.ndarray  # (rows, k) int8: 0 -> X, 1 -> Y, with the verifier's reset bit
    outcomes: np.ndarray  # (rows, k) int8
    placeholders: np.ndarray  # (rows, 2): the pair the verifier announces
    probability: np.ndarray  # (rows,) Born probability of each row's branch
    accepted: np.ndarray  # (rows,) bool verdicts of ``_parity_test``


def parity_draws(holders: tuple[int, ...], verifier: int, bundle: RngBundle, rows) -> ParityDraws:
    """The draws of ``rows`` parity tests (or of a queue's batch sizes, batch
    by batch); none depends on the state.

    Every holder but the verifier, in ``holders`` order, draws one basis bit
    per row (0 -> X, 1 -> Y), then one uniform per row, from its own stream.
    The verifier draws its placeholder pair, then its uniforms, and resets
    its basis bit so each row's Y count is even.
    """
    return _parity(holders, verifier, _drawn(_parity_fields(holders, verifier, bundle, rows)))


def _parity_fields(holders: tuple[int, ...], verifier: int, bundle: RngBundle, rows) -> list:
    """The (stream, coin, counts) fields of ``parity_draws``, as ``_drawn`` takes them."""
    return [(bundle.party(h), coin, rows * (1 + (coin and h == verifier))) for h in holders for coin in (True, False)]


def _parity(holders: tuple[int, ...], verifier: int, values: list) -> ParityDraws:
    """``parity_draws`` from the values of its fields."""
    last = holders.index(verifier)
    placeholders = values[2 * last].reshape(-1, 2).astype(np.int64)
    bits = np.array([np.zeros(len(placeholders)) if c == last else b for c, b in enumerate(values[0::2])], dtype=np.int8).T
    bits[:, last] = bits.sum(axis=1) % 2
    return ParityDraws(bits, np.array(values[1::2]).T, placeholders)


def parity_measure(
    amps: np.ndarray, holders: tuple[int, ...], verifier: int, draws: ParityDraws, index: np.ndarray | None = None
) -> ParityRound:
    """The even-Y X/Y parity test with ``draws`` (those of ``parity_draws``)
    on each row of a (rows, 2^q) amplitude array in which party
    ``holders[i]`` holds qubit i. The holders measure in ``holders`` order,
    the verifier last, and qubits past the holders (kept by a withholder)
    stay unmeasured. A uniform of -1 or 2 forces outcome 0 or 1, for
    enumerating branches; a forced impossible branch raises ValueError. With
    the kernel's ``index``, round i reads ``amps[index[i]]``: each column
    measures each distinct (row, basis bit) pair once per outcome, gathering
    rows only when one is drawn in both bases, and gives ``amps[index]``'s bits.
    """
    bits, uniforms, placeholders = draws
    rows, k = len(bits), len(holders)
    results = np.empty((rows, k), dtype=np.int8)
    probability = np.ones(rows)
    remaining = list(holders)
    last = holders.index(verifier)
    for column in (*(c for c in range(k) if c != last), last):
        qubit = remaining.index(holders[column])
        if index is None:
            results[:, column], prob, amps = _measure_kernel(amps, qubit, bits[:, column], uniforms[:, column])
        else:
            keys = index * 2 + bits[:, column]
            drawn = np.zeros(2 * len(amps), dtype=bool)  # (row, basis bit) pairs: np.unique without its sort
            drawn[keys] = True
            pairs, index = np.flatnonzero(drawn), np.cumsum(drawn)[keys] - 1
            amps = amps if np.array_equal(pairs >> 1, np.arange(len(amps))) else amps[pairs >> 1]
            results[:, column], prob, amps, index = _measure_kernel(amps, qubit, pairs & 1, uniforms[:, column], index)
        probability *= prob
        remaining.pop(qubit)
    return ParityRound(bits, results, placeholders, probability, _parity_test(bits.T, results.T))


def verification(
    state: StateVector,
    verifier: int,
    net: Network,
    rng: RngBundle,
) -> VerificationRecord:
    """Verify a k-party state against the GHZ parity correlations: the
    one-row case of ``parity_measure``, then its one row of payload codes
    through ``Network.broadcast_rounds``.

    Parties are the qubit indices 0..k-1. Everyone but the verifier draws a
    basis bit (0 -> X, 1 -> Y), measures, and broadcasts (basis, outcome);
    the verifier broadcasts random placeholders in the common round, then
    privately resets her basis bit so the total number of Y measurers is
    even, measures, and accepts iff the outcome parity matches half the Y
    count mod 2.
    """
    k = state.n_qubits
    if not 0 <= verifier < k:
        raise IndexError(f"verifier {verifier} out of range for a {k}-qubit state")
    check_run(RoleAssignment(k, verifier, frozenset(range(k)) - {verifier}), net, rng, state)
    draws = parity_draws(tuple(range(k)), verifier, rng, 1)
    bits, results, placeholders, _, accepted = parity_measure(state.amplitudes[None], tuple(range(k)), verifier, draws)
    row = np.append(payload_codes(bits[0], results[0]), -1)  # -1: the public source says nothing
    row[verifier] = payload_codes(*placeholders[0].tolist())  # in place of its basis and outcome
    net.broadcast_rounds(["verify:announce"], row[None], expected=range(k))
    return VerificationRecord(basis_bits=tuple(bits[0].tolist()), outcomes=tuple(results[0].tolist()), accepted=bool(accepted[0]))


def aka(
    roles: RoleAssignment,
    num_states: int,
    source: StateVector | NoiseEnsemble,
    net: Network,
    rng: RngBundle,
) -> dict[int, str]:
    """Unverified anonymous key agreement: notification, then per source
    state an ame round and a Z readout. This is ``avka`` with every round a
    keygen round, so the transcript holds one public coin per round, always
    1. Returns each participant's key string; an aborted round ends the keys."""
    return avka(roles, num_states, 1, source, net, rng).key_bits


def avka(
    roles: RoleAssignment,
    num_states: int,
    keygen_denom: int,
    source: StateVector | NoiseEnsemble,
    net: Network,
    rng: RngBundle,
    *,
    withholder: int | None = None,
    withholder_basis: Basis = Basis.Z,
) -> AvkaResult:
    """Anonymous verifiable key agreement.

    Per state of ``source`` (a pure state, or a mixture drawn from the
    bundle's source stream): run ame, then a public coin with P(keygen) =
    1/keygen_denom picks the round type. Verification rounds feed Alice's
    verdict; keygen rounds append one bit to every participant's key. The
    run validates iff nothing aborted and every verification round accepted.

    The rounds run as rows: ``_queued`` draws their states in batches of about
    1 MB and joins batches in queues. A queue draws its public coins, then every
    stream's draws in one raw-word call (``carve_draws``), each batch's values
    as if it ran alone. It makes one ``carve`` (shared states are one tree), one Z
    readout of its keygen rows and one ``parity_measure`` of its verification
    rows, then records its rounds' broadcasts with one ``broadcast_rounds``
    call. A round that aborts ends the run, which keeps the rounds before it
    (its queue's later rounds, and the next batch's states, are drawn by then).

    ``withholder`` injects a bystander that skips its ame measurement and
    later measures its kept qubit in ``withholder_basis`` during keygen
    rounds (its randomness comes from the bundle's adversary stream).
    """
    if not isinstance(num_states, (int, np.integer)) or num_states < 0:
        raise ValueError(f"num_states must be a non-negative integer, got {num_states!r}")
    if not isinstance(keygen_denom, (int, np.integer)) or keygen_denom < 1:
        raise ValueError(f"keygen_denom must be an integer of at least 1, got {keygen_denom!r}")
    withholding = frozenset() if withholder is None else frozenset({withholder})
    check_run(roles, net, rng, source, withholding)

    # Keygen readout: the participants in Z, then the withholder's guess.
    order = roles.participant_order
    m1 = len(order)
    readout_ops = "Z" * m1 + ("" if withholder is None else withholder_basis.value)
    readout_rngs = [rng.party(p) for p in order] + ([] if withholder is None else [rng.adversary])
    # Unscored bystander pairs of the verification rounds; the withholder's
    # come from the adversary stream.
    pair_rngs = {p: rng.adversary if p == withholder else rng.party(p) for p in sorted(roles.non_participants)}
    # A queued round holds its carved row and about six 8-byte draws per party.
    round_bytes = 16 * 2 ** (m1 + len(withholding)) + 48 * roles.n

    rounds: list[AvkaRound] = []
    guesses: list[int] = []
    # Failure records read ``index``, the first round of the queue being drawn, carved or broadcast.
    aborted, index = False, 0
    _check_notified(roles, notification(roles, net, rng).notified)
    for states, rows, sizes in _queued([(source, num_states)], rng.source, round_bytes):
        # The queue's public coins fix each batch's verification rounds; then every party draws.
        keygen = rng.coin.random(len(rows)) < 1 / keygen_denom
        verifying = np.add.reduceat(~keygen, np.cumsum(sizes) - sizes, dtype=np.intp)
        test_fields = _parity_fields(order, roles.alice, rng, verifying)
        later = [(s, False, sizes - verifying) for s in readout_rngs] + [(s, True, 2 * verifying) for s in pair_rngs.values()]
        coins, uniforms, *values = carve_draws(roles, rng, sizes, withholding, later + test_fields)
        pairs = [pair.reshape(-1, 2) for pair in values[len(readout_rngs) : len(later)]]
        announced, _, _, carved = carve(states, rows, roles, (coins, uniforms), withholding=withholding, source=source)
        readouts = measure_string(carved[keygen], readout_ops, uniforms=np.column_stack(values[: len(readout_rngs)]))[0]
        test = parity_measure(carved[~keygen], order, roles.alice, _parity(order, roles.alice, values[len(later) :]))
        # A round's block rows: its ame announcements, its coin, then a verification round's test.
        steps = 3 - keygen
        ends = steps.cumsum()
        table = np.full((ends[-1], roles.n + 1), -1)
        table[ends - steps, :-1], table[ends - steps + 1, -1] = announced, keygen
        tested = np.empty((len(test.accepted), roles.n, 2), dtype=np.int64)  # each party's two bits
        tested[:, order] = np.stack([test.bases, test.outcomes], axis=-1)
        tested[:, [roles.alice, *pair_rngs]] = np.stack([test.placeholders, *pairs], axis=1)
        table[ends[~keygen] - 1, :-1] = payload_codes(tested[..., 0], tested[..., 1])
        phases = [f"round[{i}]:{step}" for i, s in enumerate(steps.tolist(), index) for step in _STEPS[:s]]
        try:
            net.broadcast_rounds(phases, table, expected=range(roles.n))
        except ChannelAbort as abort:  # keep the rounds it recorded in full
            aborted, keygen = True, keygen[: np.count_nonzero(ends <= abort.rounds)]
        keys = map(tuple, readouts[:, :m1].tolist())
        basis_bits, outcomes = (map(tuple, c.tolist()) for c in (test.bases, test.outcomes))
        tests = map(VerificationRecord, basis_bits, outcomes, test.accepted.tolist())
        rounds += [
            AvkaRound(KEYGEN_ROUND, keygen_bits=next(keys)) if key else AvkaRound(VERIFICATION_ROUND, verification=next(tests))
            for key in keygen.tolist()
        ]
        guesses += readouts[: np.count_nonzero(keygen), m1:].ravel().tolist()
        if aborted:
            break
        index += len(rows)

    validated = not aborted and all(
        r.verification.accepted for r in rounds if r.round_type == VERIFICATION_ROUND
    )
    return AvkaResult(
        rounds=tuple(rounds),
        key_bits={p: "".join(str(r.keygen_bits[i]) for r in rounds if r.keygen_bits) for i, p in enumerate(order)},
        aborted=aborted,
        validated=validated,
        withholder_guess="".join(map(str, guesses)),
    )
