"""Step-by-step implementations of the five conference-key protocols.

* ``notification``   -- Alice anonymously flags her chosen receivers using
                        XOR share tables over private channels.
* ``ame``            -- anonymous multiparty entanglement: carve an
                        (m+1)-party GHZ state out of an n-party one by
                        X-measuring the bystanders and phase-correcting.
* ``verification``   -- even-Y X/Y parity test of a shared GHZ state with a
                        designated verifier.
* ``aka``            -- notification + repeated ame + Z-measurement, yielding
                        a shared key (no verification).
* ``avka``           -- verifiable variant: a public coin splits rounds into
                        verification and keygen rounds.

Party i holds qubit i of each source state. All participant-ordered tuples
use Alice first, then receivers ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .netmodel import ChannelAbort, Entry, Network, RoleAssignment
from .qsim import Basis, StateVector, apply_pauli_z, measure, measure_string, project, reorder_qubits
from .rng import RngBundle

VERIFICATION_ROUND = "verification"
KEYGEN_ROUND = "keygen"


@dataclass(frozen=True)
class NotificationOutcome:
    """Per-party notification bits; exactly the receivers end up with 1."""

    notified: tuple[int, ...]
    transcript: tuple[Entry, ...]


@dataclass(frozen=True)
class AmeOutcome:
    """Result of one anonymous entanglement round.

    ``participant_state`` holds the participants' qubits in participant order
    (Alice first, receivers ascending); any withheld bystander qubits follow
    in ascending party order (``held_back`` names them). ``branch_probability``
    is filled only when measurement outcomes were forced, and is the Born
    probability of that branch.
    """

    participant_state: StateVector
    announced_bits: tuple[int, ...]
    corrected: bool
    held_back: tuple[int, ...] = ()
    branch_probability: float | None = None


@dataclass(frozen=True)
class VerificationRecord:
    """Basis bits, outcomes, and the verdict of one verification test.

    Tuples are in participant order with the verifier's *reset* basis bit, so
    the basis bits always carry even parity.
    """

    basis_bits: tuple[int, ...]
    outcomes: tuple[int, ...]
    accepted: bool
    branch_probability: float | None = None


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

    def to_dict(self, roles: RoleAssignment | None = None) -> dict:
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
        if roles is not None:
            out["roles"] = {"n": roles.n, "alice": roles.alice, "receivers": sorted(roles.receivers)}
        return out


def _share_row(parity: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n random bits whose XOR equals ``parity``."""
    row = rng.integers(0, 2, size=n, dtype=np.int8)
    row[-1] ^= int(row.sum() & 1) ^ parity
    return row


def notification(roles: RoleAssignment, net: Network, rng: RngBundle) -> NotificationOutcome:
    """Anonymously notify the chosen receivers.

    One round per target party i: every party deals an n-bit XOR share row
    with even parity, except Alice, whose row parity encodes whether i is a
    receiver. Each party then returns the XOR of the column it received to
    party i, who recovers the membership bit exactly.
    """
    n = roles.n
    notified = []
    for target in range(n):
        phase_shares = f"notify[target={target}]:shares"
        rows = np.empty((n, n), dtype=np.int8)
        for dealer in range(n):
            parity = 1 if dealer == roles.alice and target in roles.receivers else 0
            rows[dealer] = _share_row(parity, n, rng.party(dealer))
            for holder in range(n):
                bit = str(rows[dealer, holder])
                if holder == dealer:
                    net.keep_share(dealer, bit, phase_shares)
                else:
                    net.send_private(dealer, holder, bit, phase_shares)
        phase_partials = f"notify[target={target}]:partials"
        column_parity = np.bitwise_xor.reduce(rows, axis=0)
        for holder in range(n):
            bit = str(column_parity[holder])
            if holder == target:
                net.keep_share(holder, bit, phase_partials)
            else:
                net.send_private(holder, target, bit, phase_partials)
        notified.append(int(np.bitwise_xor.reduce(column_parity)))
    return NotificationOutcome(notified=tuple(notified), transcript=net.transcript)


def ame(
    state: StateVector,
    roles: RoleAssignment,
    net: Network,
    rng: RngBundle,
    *,
    withholding: frozenset[int] = frozenset(),
    withholding_rng: np.random.Generator | None = None,
    forced_outcomes: Mapping[int, int] | None = None,
    phase: str = "ame",
) -> AmeOutcome:
    """One anonymous multiparty entanglement round.

    Bystanders X-measure their qubit; everyone broadcasts one bit in random
    order (participants announce fresh coins, bystanders their outcome);
    Alice applies a Z correction to her qubit when the bystanders' announced
    parity is odd. On a pure GHZ input the participants end up with a perfect
    (m+1)-party GHZ state in every branch.

    ``withholding`` names bystanders that skip the measurement, keep their
    qubit, and announce a fresh coin instead (drawn from ``withholding_rng``).
    ``forced_outcomes`` pins measurement outcomes per bystander for exhaustive
    branch enumeration.
    """
    if state.n_qubits != roles.n:
        raise ValueError(f"state has {state.n_qubits} qubits but the network has {roles.n} parties")
    if not withholding <= roles.non_participants:
        raise ValueError("only non-participants can withhold their measurement")

    remaining = list(range(roles.n))
    announced: dict[int, int] = {}
    branch_prob = 1.0 if forced_outcomes is not None else None

    for party in sorted(roles.non_participants):
        if party in withholding:
            source = withholding_rng if withholding_rng is not None else rng.party(party)
            announced[party] = int(source.integers(0, 2))
            continue
        qubit = remaining.index(party)
        if forced_outcomes is not None:
            prob, state = project(state, qubit, Basis.X, forced_outcomes[party])
            announced[party] = forced_outcomes[party]
            branch_prob *= prob
        else:
            outcome, state = measure(state, qubit, Basis.X, rng.party(party))
            announced[party] = outcome
        remaining.pop(qubit)

    for party in roles.participants:
        announced[party] = int(rng.party(party).integers(0, 2))

    net.broadcast_round(
        {p: str(b) for p, b in announced.items()},
        phase=f"{phase}:announce",
        expected=range(roles.n),
    )

    parity = 0
    for party in roles.non_participants:
        parity ^= announced[party]
    corrected = bool(parity)
    if corrected:
        state = apply_pauli_z(state, remaining.index(roles.alice))

    held_back = tuple(sorted(withholding))
    order = tuple(remaining.index(p) for p in (*roles.participant_order, *held_back))
    state = reorder_qubits(state, order)
    return AmeOutcome(
        participant_state=state,
        announced_bits=tuple(announced[p] for p in range(roles.n)),
        corrected=corrected,
        held_back=held_back,
        branch_probability=branch_prob,
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


def _verification_round(
    state: StateVector,
    holders: tuple[int, ...],
    verifier: int,
    net: Network,
    rng: RngBundle,
    *,
    phase: str,
    extra_announcements: Mapping[int, str] | None = None,
    forced_bases: Mapping[int, int] | None = None,
    forced_outcomes: Mapping[int, int] | None = None,
) -> VerificationRecord:
    """One even-Y X/Y parity test in which party ``holders[i]`` holds qubit i.

    Qubits past the holders (kept by a withholder) stay unmeasured.
    ``extra_announcements`` share the broadcast round but are not scored.
    """
    basis_bits: dict[int, int] = {}
    outcomes: dict[int, int] = {}
    branch_prob = 1.0 if forced_outcomes is not None else None
    remaining = list(holders)

    def _measure(party: int) -> None:
        nonlocal state, branch_prob
        qubit = remaining.index(party)
        chosen = Basis.Y if basis_bits[party] else Basis.X
        if forced_outcomes is not None:
            prob, state = project(state, qubit, chosen, forced_outcomes[party])
            outcomes[party] = forced_outcomes[party]
            branch_prob *= prob
        else:
            outcomes[party], state = measure(state, qubit, chosen, rng.party(party))
        remaining.pop(qubit)

    for party in holders:
        if party == verifier:
            continue
        if forced_bases is not None:
            basis_bits[party] = forced_bases[party]
        else:
            basis_bits[party] = int(rng.party(party).integers(0, 2))
        _measure(party)

    placeholder = rng.party(verifier).integers(0, 2, size=2)
    announcements = {p: f"{basis_bits[p]}{outcomes[p]}" for p in holders if p != verifier}
    announcements[verifier] = f"{placeholder[0]}{placeholder[1]}"
    announcements.update(extra_announcements or {})
    # Every party named here must announce; a Network that drops one aborts.
    net.broadcast_round(announcements, phase=f"{phase}:announce", expected=tuple(announcements))

    basis_bits[verifier] = sum(basis_bits.values()) % 2
    _measure(verifier)

    ordered_basis = tuple(basis_bits[p] for p in holders)
    ordered_outcomes = tuple(outcomes[p] for p in holders)
    return VerificationRecord(
        basis_bits=ordered_basis,
        outcomes=ordered_outcomes,
        accepted=_parity_test(ordered_basis, ordered_outcomes),
        branch_probability=branch_prob,
    )


def verification(
    state: StateVector,
    verifier: int,
    net: Network,
    rng: RngBundle,
    *,
    forced_bases: Mapping[int, int] | None = None,
    forced_outcomes: Mapping[int, int] | None = None,
    phase: str = "verify",
) -> VerificationRecord:
    """Verify a k-party state against the GHZ parity correlations.

    Parties are the qubit indices 0..k-1. Everyone but the verifier draws a
    basis bit (0 -> X, 1 -> Y), measures, and broadcasts (basis, outcome);
    the verifier broadcasts random placeholders in the common round, then
    privately resets her basis bit so the total number of Y measurers is
    even, measures, and accepts iff the outcome parity matches half the Y
    count mod 2.

    ``forced_bases``/``forced_outcomes`` pin the random draws for exhaustive
    enumeration; forcing outcomes fills ``branch_probability``.
    """
    k = state.n_qubits
    if not 0 <= verifier < k:
        raise IndexError(f"verifier {verifier} out of range for a {k}-qubit state")
    return _verification_round(
        state, tuple(range(k)), verifier, net, rng,
        phase=phase, forced_bases=forced_bases, forced_outcomes=forced_outcomes,
    )


def aka(
    roles: RoleAssignment,
    states: list[StateVector],
    net: Network,
    rng: RngBundle,
) -> dict[int, str]:
    """Unverified anonymous key agreement.

    Runs notification once, then one ame round per source state, then the
    participants Z-measure. Returns each participant's key string.
    """
    outcome = notification(roles, net, rng)
    if tuple(sorted(roles.receivers)) != tuple(i for i, bit in enumerate(outcome.notified) if bit):
        raise RuntimeError("notification must flag exactly the chosen receivers")
    order = roles.participant_order
    readout_rngs = [rng.party(p) for p in order]
    keys: dict[int, list[str]] = {p: [] for p in order}
    for index, source_state in enumerate(states):
        carved = ame(source_state, roles, net, rng, phase=f"round[{index}]:ame")
        bits, _ = measure_string(carved.participant_state, "Z" * len(order), readout_rngs)
        for party, bit in zip(order, bits):
            keys[party].append(str(bit))
    return {p: "".join(bits) for p, bits in keys.items()}


def avka(
    roles: RoleAssignment,
    num_states: int,
    keygen_denom: int,
    source: Callable[[], StateVector],
    net: Network,
    rng: RngBundle,
    *,
    withholder: int | None = None,
    withholder_basis: Basis = Basis.Z,
) -> AvkaResult:
    """Anonymous verifiable key agreement.

    Per source state: run ame, then a public coin with P(keygen) =
    1/keygen_denom picks the round type. Verification rounds feed Alice's
    verdict; keygen rounds append one bit to every participant's key. The
    run validates iff nothing aborted and every verification round accepted.

    ``withholder`` injects a bystander that skips its ame measurement and
    later measures its kept qubit in ``withholder_basis`` during keygen
    rounds (its randomness comes from the bundle's adversary stream).
    """
    if num_states < 0:
        raise ValueError("num_states must be non-negative")
    if keygen_denom < 1:
        raise ValueError("keygen_denom must be at least 1")
    if withholder is not None and withholder not in roles.non_participants:
        raise ValueError(f"withholder {withholder} must be a non-participant")

    withholding = frozenset() if withholder is None else frozenset({withholder})
    adversary_rng = rng.adversary if withholder is not None else None

    # Keygen readout: the participants in Z, then the withholder's guess.
    order = roles.participant_order
    readout_ops = "Z" * len(order) + ("" if withholder is None else withholder_basis.value)
    readout_rngs = [rng.party(p) for p in order] + ([] if withholder is None else [adversary_rng])

    rounds: list[AvkaRound] = []
    keys: dict[int, list[str]] = {p: [] for p in order}
    guesses: list[str] = []
    aborted = False

    try:
        notification(roles, net, rng)
        for index in range(num_states):
            phase = f"round[{index}]"
            carved = ame(
                source(),
                roles,
                net,
                rng,
                withholding=withholding,
                withholding_rng=adversary_rng,
                phase=f"{phase}:ame",
            )
            keygen = int(rng.coin.random() < 1.0 / keygen_denom)
            net.broadcast_public(str(keygen), phase=f"{phase}:coin")
            if keygen:
                bits, _ = measure_string(carved.participant_state, readout_ops, readout_rngs)
                for party, bit in zip(order, bits):
                    keys[party].append(str(bit))
                if withholder is not None:
                    guesses.append(str(bits[-1]))
                rounds.append(AvkaRound(KEYGEN_ROUND, keygen_bits=bits[: len(order)]))
            else:
                # Unscored bystander pairs; the withholder's comes from the adversary stream.
                bystander_pairs = {}
                for party in roles.non_participants:
                    pair_rng = adversary_rng if party == withholder else rng.party(party)
                    pair = pair_rng.integers(0, 2, size=2)
                    bystander_pairs[party] = f"{pair[0]}{pair[1]}"
                record = _verification_round(
                    carved.participant_state, order, roles.alice, net, rng,
                    phase=f"{phase}:verify", extra_announcements=bystander_pairs,
                )
                rounds.append(AvkaRound(VERIFICATION_ROUND, verification=record))
    except ChannelAbort:
        aborted = True

    validated = not aborted and all(
        r.verification.accepted for r in rounds if r.round_type == VERIFICATION_ROUND
    )
    return AvkaResult(
        rounds=tuple(rounds),
        key_bits={p: "".join(bits) for p, bits in keys.items()},
        aborted=aborted,
        validated=validated,
        withholder_guess="".join(guesses),
    )
