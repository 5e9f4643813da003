"""Independent brute-force oracles used to pin expected values.

Everything here is built from first principles (explicit Pauli matrices,
Kronecker products, exhaustive XOR-table enumeration) and deliberately avoids
the package's measurement path, so it can serve as a second route for
checking the Monte Carlo implementations. ``StateVector`` and
``DensityMatrix`` are used only as the containers the package's states
come in.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from anoncka.qsim import DensityMatrix, StateVector

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def operator_from_string(ops: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, qubit 0 leftmost."""
    mat = np.array([[1.0 + 0j]])
    for ch in ops:
        mat = np.kron(mat, PAULI[ch])
    return mat


def born_probabilities(amplitudes: np.ndarray, qubit: int, basis: str) -> tuple[float, float]:
    """Probabilities of outcomes 0 (+1 eigenvalue) and 1 for measuring one
    qubit in Pauli ``basis``, from the projectors (I +- P)/2 on that qubit."""
    n = int(np.log2(len(amplitudes)))
    pauli = operator_from_string("I" * qubit + basis + "I" * (n - qubit - 1))
    identity = np.eye(2**n)
    return tuple(
        float(np.vdot(amplitudes, 0.5 * (identity + sign * pauli) @ amplitudes).real)
        for sign in (1, -1)
    )


def states_equal(a, b, tol: float = 1e-10) -> bool:
    """Equality of two StateVectors up to a global phase (|<a|b>| within ``tol`` of 1)."""
    if a.n_qubits != b.n_qubits:
        return False
    return abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) <= tol


def even_y_settings(k: int):
    """All X/Y basis-bit vectors of length k with an even number of Y's."""
    for bits in itertools.product((0, 1), repeat=k):
        if sum(bits) % 2 == 0:
            yield bits


def exact_verification_acceptance(rho: np.ndarray) -> float:
    """Acceptance probability of the GHZ parity test, computed exactly.

    For basis bits b the verdict is 'outcome parity == (#Y / 2) mod 2', i.e.
    the state lies in the (-1)^(#Y/2) eigenspace of the X/Y Pauli string P_b.
    The acceptance probability under one setting is tr(rho (I + t P_b)/2)
    with t = (-1)^(#Y/2); the protocol draws settings uniformly from the
    even-Y vectors, so the total is the uniform average.
    """
    k = int(np.log2(rho.shape[0]))
    dim = 2**k
    total = 0.0
    settings = list(even_y_settings(k))
    for bits in settings:
        ops = "".join("Y" if b else "X" for b in bits)
        sign = (-1) ** ((sum(bits) // 2) % 2)
        projector = 0.5 * (np.eye(dim) + sign * operator_from_string(ops))
        total += float(np.trace(rho @ projector).real)
    return total / len(settings)


def density_from_pure(psi: StateVector) -> DensityMatrix:
    """The pure state's density matrix |psi><psi|."""
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def pure_state_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1 - |<a|b>|^2), the closed form for pure states."""
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)))


def enumerate_notification_tables(n: int, alice: int, receivers: frozenset[int], target: int):
    """Yield the notification bit z computed from every valid share table.

    A valid table assigns each dealer a row of n bits whose parity is 0,
    except Alice's row, whose parity is 1 iff the target is a receiver. Rows
    are enumerated over all free-bit choices (first n-1 bits free, last bit
    fixed by the parity), which is exhaustive over the protocol's randomness
    for one target round.
    """
    member = int(target in receivers)
    row_choices = []
    for dealer in range(n):
        parity = member if dealer == alice else 0
        rows = []
        for free in itertools.product((0, 1), repeat=n - 1):
            last = (sum(free) + parity) % 2
            rows.append((*free, last))
        row_choices.append(rows)
    for table in itertools.product(*row_choices):
        column_parity = [0] * n
        for row in table:
            for holder, bit in enumerate(row):
                column_parity[holder] ^= bit
        z = 0
        for bit in column_parity:
            z ^= bit
        yield z


def keygen_success_probability(rho: np.ndarray, participant_slots: tuple[int, ...]) -> float:
    """Probability that the participants' Z outcomes all agree, exactly.

    Sums the diagonal weight of all basis states whose bits at the
    participant slots are constant.
    """
    k = int(np.log2(rho.shape[0]))
    total = 0.0
    for index in range(2**k):
        bits = [(index >> (k - 1 - q)) & 1 for q in range(k)]
        values = {bits[s] for s in participant_slots}
        if len(values) == 1:
            total += float(rho[index, index].real)
    return total


def materialized_werner(coherent: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The mixture p |c><c| + (1-p) I/2^n spelled out as 2^n + 1 explicit
    components: weights, and amplitude rows ordered coherent state first, then
    basis states 0 .. 2^n - 1."""
    dim = len(coherent)
    weights = np.array([p] + [(1.0 - p) / dim] * dim)
    return weights, np.vstack([coherent, np.eye(dim, dtype=complex)])


def sample_materialized(weights: np.ndarray, vectors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One component drawn by a single uniform on the cumulative weights."""
    i = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
    return vectors[min(i, len(weights) - 1)]


def materialized_density(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sum of w |v><v| over the components."""
    return (vectors.T * weights) @ vectors.conj()


def _branches(amplitudes: np.ndarray, qubit: int, basis: str):
    """The unnormalised outcome-``bit`` branch of one state, with the
    measured qubit split off by ``np.take``."""
    n = int(np.log2(len(amplitudes)))
    t = amplitudes.reshape([2] * n)
    z0 = np.take(t, 0, axis=qubit).reshape(-1)
    z1 = np.take(t, 1, axis=qubit).reshape(-1)

    def branch(bit: int) -> np.ndarray:
        if basis == "Z":
            return z1 if bit else z0
        if basis == "X":
            return (z0 - z1 if bit else z0 + z1) * (1.0 / np.sqrt(2.0))
        return (z0 + 1j * z1 if bit else z0 - 1j * z1) * (1.0 / np.sqrt(2.0))

    return branch


def single_state_measure(
    amplitudes: np.ndarray, qubit: int, basis: str, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """One-state measurement as ``qsim.measure`` did it before the kernel
    took batches: split with ``np.take``, one ``rng.random()``, outcome 0 iff
    the uniform is below p0, the kept branch divided by its own norm."""
    branch = _branches(amplitudes, qubit, basis)
    vec = branch(0)
    prob = float(np.vdot(vec, vec).real)
    outcome = 0 if rng.random() < prob else 1
    if outcome:
        vec = branch(1)
        prob = float(np.vdot(vec, vec).real)
    return outcome, vec / np.sqrt(prob)


def project(s, qubit: int, basis, outcome: int):
    """Deterministic projection of a StateVector onto one outcome, as the
    package did it per state before forced branches went through the batch:
    the branch probability and the renormalised state without the measured
    qubit. An (almost) impossible branch raises ValueError."""
    vec = _branches(s.amplitudes, qubit, getattr(basis, "value", basis))(outcome)
    prob = float(np.vdot(vec, vec).real)
    if prob < 1e-12:
        raise ValueError(f"branch (qubit={qubit}, outcome={outcome}) has probability ~0")
    return prob, StateVector(s.n_qubits - 1, vec / np.sqrt(prob))


def forcing(outcomes) -> np.ndarray:
    """Measurement uniforms that force ``outcomes``: -1.0 for 0 and 2.0 for
    1. The kernel takes outcome 1 iff a uniform is at least the outcome-0
    probability, which lies in [0, 1] up to rounding."""
    return np.where(np.asarray(outcomes) == 1, 2.0, -1.0)


def overlap(a, b) -> complex:
    """<a|b> of two StateVectors on the same number of qubits."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"{a.n_qubits}-qubit vs {b.n_qubits}-qubit state")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_pure(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    return abs(overlap(a, b)) ** 2


def branch_probability(amplitudes: np.ndarray, ops: str, outcomes) -> float:
    """Born probability of measuring every qubit, qubit i in Pauli
    ``ops[i]``, with outcome bits ``outcomes``: the expectation of the
    product of the projectors (I + (-1)^o P)/2, built by Kronecker products."""
    projector = np.array([[1.0 + 0j]])
    for ch, bit in zip(ops, outcomes, strict=True):
        projector = np.kron(projector, 0.5 * (PAULI["I"] + (-1) ** bit * PAULI[ch]))
    return float(np.vdot(amplitudes, projector @ amplitudes).real)


def ame_view_keys(view, n: int) -> tuple[int, int]:
    """Raw and projected key of one per-party ame view, in plain Python.

    Raw: the Lehmer rank of the announcement order, shifted left by n, over
    the announced bits with party 0's bit most significant. Projected: the
    XOR of the announced bits.
    """
    announced = sorted(view.visible_entries, key=lambda e: e.position)
    order = [e.sender for e in announced]
    bits = {e.sender: int(e.bits) for e in announced}
    rank = 0
    for position, party in enumerate(order):
        rank = rank * (n - position) + sum(later < party for later in order[position + 1 :])
    raw = rank << n | sum(bits[p] << (n - 1 - p) for p in range(n))
    return raw, sum(bits.values()) % 2


def notification_view_keys(view, projection: str, n: int) -> tuple[bytes, bytes]:
    """Raw and projected key of one per-party notification view, as bytes.

    Raw: the visible bits in transcript order, packed eight to a byte (at
    least one byte). Projected: the per-phase parities of ``projection``
    (a ``parity_projection`` string), target by target with the share phase
    before the partial phase; a phase the coalition does not see counts 0.
    """
    raw = np.packbits(np.array([int(e.bits) for e in view.visible_entries], dtype=np.uint8)).tobytes() or b"\0"
    phases = dict(item.rsplit("=", 1) for item in projection.split(";") if item)
    parities = [int(phases.get(f"notify[target={t}]:{kind}", 0)) for t in range(n) for kind in ("shares", "partials")]
    return raw, np.packbits(parities).tobytes()


def _empirical_tvd(xs: np.ndarray, ys: np.ndarray, support: int) -> float:
    """Plug-in TVD between two samples of view indices in [0, support)."""
    pa = np.bincount(xs, minlength=support) / len(xs)
    pb = np.bincount(ys, minlength=support) / len(ys)
    return 0.5 * math.fsum(np.abs(pa - pb))


def anonymity_tvd_by_permutation(view_sampler, hypothesis_a, hypothesis_b, coalition, trials: int, rng):
    """``analysis.estimate_anonymity_tvd`` (for valid hypotheses) with its
    permutation null drawn one ``rng.permutation`` call per round and each
    TVD histogrammed on its own."""
    from anoncka.analysis import MAX_SUPPORT, NULL_ROUNDS, TvdEstimate
    from anoncka.rng import RngBundle

    n = hypothesis_a.n
    samples = [view_sampler(hyp, coalition, trials, RngBundle.from_generator(rng, n)) for hyp in (hypothesis_a, hypothesis_b)]
    support, index = np.unique(np.concatenate([raw for raw, _ in samples]), return_inverse=True)
    projected = len(support) > min(MAX_SUPPORT, trials)
    if projected:
        support, index = np.unique(np.concatenate([proj for _, proj in samples]), return_inverse=True)
    raw_tvd = _empirical_tvd(index[:trials], index[trials:], len(support))
    null = np.empty(NULL_ROUNDS)
    for r in range(NULL_ROUNDS):
        order = rng.permutation(len(index))
        null[r] = _empirical_tvd(index[order[:trials]], index[order[trials:]], len(support))
    tvd = max(0.0, raw_tvd - float(null.mean()))
    return TvdEstimate(
        tvd=tvd,
        stderr=max(float(null.std(ddof=1)), 0.5 / trials),
        trials_per_hypothesis=trials,
        guessing_bound=min(1.0, 1.0 / (n - len(coalition)) + tvd),
        raw_tvd=raw_tvd,
        null_mean=float(null.mean()),
        projected=projected,
    )


@dataclass(frozen=True)
class KeyRateReport:
    empirical_rate: float
    expected: float
    within_ci: bool
    tolerance: float
    num_trials: int


def key_rate(results, num_states: int, keygen_denom: int) -> KeyRateReport:
    """Compare the mean key length of avka results against
    num_states/keygen_denom.

    The tolerance is four binomial standard deviations of a single run's key
    length; keygen_denom == 1 collapses it to an exact equality check.
    """
    if not results:
        raise ValueError("need at least one result")
    lengths = []
    for result in results:
        keys = set(len(bits) for bits in result.key_bits.values())
        if len(keys) != 1:
            raise ValueError("participants disagree on key length")
        lengths.append(keys.pop())
    mean = float(np.mean(lengths))
    q = 1.0 / keygen_denom
    expected = num_states * q
    tolerance = 4.0 * float(np.sqrt(num_states * q * (1.0 - q)))
    return KeyRateReport(
        empirical_rate=mean,
        expected=expected,
        within_ci=abs(mean - expected) <= tolerance,
        tolerance=tolerance,
        num_trials=len(results),
    )


def notify_by_message(net, shares: np.ndarray) -> None:
    """Record a dealt (target, dealer, holder) share table on ``net`` one
    message at a time, in the loop order the per-message notification used:
    per target, the shares dealer-major, then each holder's partial to the
    target; a party's own share or partial goes through ``keep_share``."""
    n = len(shares)
    partials = np.bitwise_xor.reduce(shares, axis=1)
    for target in range(n):
        phase = f"notify[target={target}]:shares"
        for dealer in range(n):
            for holder in range(n):
                bit = str(shares[target, dealer, holder])
                if holder == dealer:
                    net.keep_share(dealer, bit, phase)
                else:
                    net.send_private(dealer, holder, bit, phase)
        phase = f"notify[target={target}]:partials"
        for holder in range(n):
            bit = str(partials[target, holder])
            if holder == target:
                net.keep_share(holder, bit, phase)
            else:
                net.send_private(holder, target, bit, phase)


def visible_by_filter(entries, coalition) -> tuple:
    """The entries a coalition sees, by the per-entry filter: every
    broadcast and every private message with an endpoint in ``coalition``."""
    return tuple(
        e for e in entries if e.kind == "broadcast" or e.sender in coalition or e.receiver in coalition
    )


def transcript_to_jsonl(transcript) -> str:
    """One JSON object per transcript record: phase, kind, from, to, bits,
    position. The reference for a JSONL trace written by the package."""
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


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_seeded(words) -> tuple[int, int]:
    """The (state, increment) PCG64 starts at from four 64-bit seed words
    w0..w3: w0 w1 the 128-bit seed, w2 w3 the sequence, in Python ints."""
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) % 2**128
    return ((inc + (w0 << 64 | w1)) * PCG64_MULTIPLIER + inc) % 2**128, inc


def batch_sizes(trials: int, row_bytes: int):
    """Row counts of the batches that together run ``trials`` rows of
    ``row_bytes`` bytes each, at most ``protocols._BATCH_BYTES`` per batch
    (read at call time, so a patched budget reaches the references)."""
    from anoncka import protocols

    size = max(1, protocols._BATCH_BYTES // row_bytes)
    for start in range(0, trials, size):
        yield min(size, trials - start)


def dense_rows(source, stream: np.random.Generator, shots: int) -> np.ndarray:
    """``shots`` states of a source as a dense (shots, 2^n) array, one row
    per draw: a pure state repeated with no draws, or a mixture drawn with
    one uniform per row from ``stream``, laid out on [0, 1) as the coherent
    state, then basis states 0 .. 2^n - 1."""
    if isinstance(source, StateVector):
        return np.tile(source.amplitudes, (shots, 1))
    u = stream.random(shots)
    noise = u >= source.p
    dim = 2**source.n_qubits
    index = np.minimum(((u[noise] - source.p) / ((1.0 - source.p) / dim)).astype(np.int64), dim - 1)
    amps = np.zeros((shots, dim), dtype=complex)
    amps[~noise] = source.coherent.amplitudes
    amps[np.flatnonzero(noise), index] = 1.0
    return amps


def theorem1_state_by_state(state_family, trials: int, bundle) -> list:
    """The Monte Carlo of ``check_theorem1`` as one loop per state, the way
    it ran before shots of several states shared one measurement: per state
    and per batch, one draw of source rows and one parity test
    (``parity_draws``, then ``parity_measure``) with party 0 as verifier.
    This is a reference for the batching, not an independent oracle; it
    leaves ``bundle``'s streams where that loop does."""
    from anoncka.analysis import BoundCheck
    from anoncka.protocols import parity_draws, parity_measure
    from anoncka.qsim import ghz_trace_distance

    k = state_family[0].n_qubits
    checks = []
    for entry in state_family:
        hits = 0
        for shots in batch_sizes(trials, 16 * 2**k):
            amps = dense_rows(entry, bundle.source, shots)
            draws = parity_draws(tuple(range(k)), 0, bundle, shots)
            hits += int(np.count_nonzero(parity_measure(amps, tuple(range(k)), 0, draws).accepted))
        eps = min(1.0, max(0.0, ghz_trace_distance(entry)))
        rate, bound = hits / trials, 1.0 - eps**2 / 2.0
        stderr = float(np.sqrt(rate * (1.0 - rate) / trials))
        satisfied = rate <= bound + 4.0 * float(np.sqrt(bound * (1.0 - bound) / trials))
        checks.append(BoundCheck(eps, rate, stderr, bound, satisfied, trials))
    return checks


def experiment_hits_by_batch(fidelity_target: float, trials: int, rng: np.random.Generator, *, from_ghz_prime=False) -> list:
    """The Monte Carlo of ``analysis.reproduce_experiment`` as it ran before
    its batches were queued: per configuration, its keygen setting, then each
    verification setting, and per batch one draw of source states and one
    ``measure_string`` with fresh uniforms from ``rng``. Returns each
    configuration's (keygen hits, verification hits per setting). This is a
    reference for the batching, not an independent oracle; it leaves ``rng``
    where that loop does."""
    from anoncka.analysis import (
        CONFIG_LABELS,
        VERIFICATION_SETTINGS,
        keygen_success,
        measurement_settings_for,
        verification_success,
    )
    from anoncka.qsim import (
        ghz_prime_state,
        ghz_state,
        local_correct_ghz_prime,
        measure_string,
        sample_ensemble,
        werner_ghz,
        werner_p_for_fidelity,
    )

    base = local_correct_ghz_prime(ghz_prime_state()) if from_ghz_prime else ghz_state(4)
    ensemble = werner_ghz(4, werner_p_for_fidelity(4, fidelity_target), ghz=base)

    def hits(ops: str, success) -> int:
        total = 0
        for shots in batch_sizes(trials, 16 * 2**4):
            amps = np.take(*sample_ensemble(ensemble, rng, shots), axis=0)
            total += int(success(measure_string(amps, ops, rng.random((len(ops), shots)).T)[0]).sum())
        return total

    counts = []
    for label in CONFIG_LABELS:
        keygen = hits(measurement_settings_for(label, "keygen"), lambda bits: keygen_success(bits, label))
        settings = [measurement_settings_for(label, setting) for setting in VERIFICATION_SETTINGS]
        counts.append((keygen, tuple(hits(ops, lambda bits: verification_success(bits, ops)) for ops in settings)))
    return counts


def _test_announcements(holders, verifier: int, bases, outcomes, pair) -> dict[int, str]:
    """A parity test's broadcast: every holder but the verifier announces
    (basis, outcome), the verifier its placeholder pair."""
    announcements = {p: f"{b}{o}" for p, b, o in zip(holders, bases, outcomes) if p != verifier}
    announcements[verifier] = f"{pair[0]}{pair[1]}"
    return announcements


def avka_batch_by_batch(roles, num_states: int, keygen_denom: int, source, net, rng, *, withholder=None, withholder_basis=None):
    """``protocols.avka`` as it ran before batches were queued: per batch of
    rounds, one draw of source rows, one ``carve`` of one row per round, one
    array of coins, one Z readout and one parity test (``parity_draws``,
    then ``parity_measure``), then the rounds' broadcasts, one ``broadcast_round``
    or ``broadcast_public`` call each. This is a reference for the queue and its
    broadcast blocks, not an independent oracle; it leaves ``rng``'s streams and
    ``net`` where that loop does."""
    from anoncka.netmodel import ChannelAbort
    from anoncka.protocols import (
        KEYGEN_ROUND,
        VERIFICATION_ROUND,
        AvkaResult,
        AvkaRound,
        VerificationRecord,
        _check_notified,
        carve,
        carve_draws,
        notification,
        parity_draws,
        parity_measure,
    )
    from anoncka.qsim import Basis, measure_string

    withholding = frozenset() if withholder is None else frozenset({withholder})
    order = roles.participant_order
    m1 = len(order)
    readout_ops = "Z" * m1 + ("" if withholder is None else (withholder_basis or Basis.Z).value)
    readout_rngs = [rng.party(p) for p in order] + ([] if withholder is None else [rng.adversary])
    pair_rngs = {p: rng.adversary if p == withholder else rng.party(p) for p in sorted(roles.non_participants)}

    rounds, guesses, aborted, done = [], [], False, 0
    try:
        _check_notified(roles, notification(roles, net, rng).notified)
        for size in batch_sizes(num_states, 16 * 2**roles.n):
            rows = dense_rows(source, rng.source, size)
            draws = carve_draws(roles, rng, size, withholding)
            announced, _, _, carved = carve(rows, np.arange(size), roles, draws, withholding=withholding)
            keygen = rng.coin.random(size) < 1.0 / keygen_denom
            keygen_rows = np.count_nonzero(keygen)
            readouts = tests = iter(())
            if keygen_rows:
                uniforms = np.column_stack([s.random(keygen_rows) for s in readout_rngs])
                readouts = iter(measure_string(carved[keygen], readout_ops, uniforms)[0].tolist())
            if keygen_rows < size:
                tested = carved[~keygen]
                pairs = [(stream.bit_generator.random_raw((len(tested), 2)) >> 63).tolist() for stream in pair_rngs.values()]
                test = parity_measure(tested, order, roles.alice, parity_draws(order, roles.alice, rng, len(tested)))
                tests = zip(
                    test.bases.tolist(), test.outcomes.tolist(), test.placeholders.tolist(), test.accepted.tolist(), *pairs
                )
            for index, row, is_keygen in zip(range(done, done + size), announced.tolist(), keygen.tolist()):
                phase = f"round[{index}]"
                net.broadcast_round(dict(enumerate(map(str, row))), phase=f"{phase}:ame:announce", expected=range(roles.n))
                net.broadcast_public(str(int(is_keygen)), phase=f"{phase}:coin")
                if is_keygen:
                    readout = next(readouts)
                    guesses += readout[m1:]
                    rounds.append(AvkaRound(KEYGEN_ROUND, keygen_bits=tuple(readout[:m1])))
                else:
                    bases, outcomes, pair, accepted, *bystander_pairs = next(tests)
                    announcements = _test_announcements(order, roles.alice, bases, outcomes, pair)
                    announcements.update((p, f"{a}{b}") for p, (a, b) in zip(pair_rngs, bystander_pairs))
                    net.broadcast_round(announcements, phase=f"{phase}:verify:announce", expected=tuple(announcements))
                    record = VerificationRecord(basis_bits=tuple(bases), outcomes=tuple(outcomes), accepted=accepted)
                    rounds.append(AvkaRound(VERIFICATION_ROUND, verification=record))
            done += size
    except ChannelAbort:
        aborted = True

    validated = not aborted and all(r.verification.accepted for r in rounds if r.round_type == VERIFICATION_ROUND)
    return AvkaResult(
        rounds=tuple(rounds),
        key_bits={p: "".join(str(r.keygen_bits[i]) for r in rounds if r.keygen_bits) for i, p in enumerate(order)},
        aborted=aborted,
        validated=validated,
        withholder_guess="".join(map(str, guesses)),
    )


def carve_dense(states, index, roles, draws, *, withholding=frozenset()):
    """``protocols.carve`` as it ran before its support tree: every level a
    dense 2^(n-j)-amplitude kernel call. Frozen as the reference the support
    tree must match bit for bit; this is a reference for the tree, not an
    independent oracle."""
    from anoncka.protocols import Carving
    from anoncka.qsim import Basis, _measure_kernel

    dim = states.shape[1]
    if dim != 2**roles.n:
        raise ValueError(f"state has {dim.bit_length() - 1} qubits but the network has {roles.n} parties")
    if not withholding <= roles.non_participants:
        raise ValueError("only non-participants can withhold their measurement")
    coins, uniforms = draws
    bystanders = sorted(roles.non_participants)
    announced = coins.copy()
    probability = np.ones(len(index))
    remaining = list(range(roles.n))
    measuring = [p for p in bystanders if p not in withholding]
    for party in measuring:
        qubit = remaining.index(party)
        announced[:, party], prob, states, index = _measure_kernel(states, qubit, Basis.X, uniforms[:, party], index)
        probability *= prob
        remaining.pop(qubit)
    corrected = np.bitwise_xor.reduce(announced[:, bystanders], axis=1) == 1

    order = [remaining.index(p) for p in (*roles.participant_order, *sorted(withholding))]
    carved = states.reshape(-1, *[2] * len(order)).transpose(0, *(q + 1 for q in order)).reshape(len(states), -1)[index]
    # Alice's qubit is now qubit 0: Z negates the second half of a row.
    carved[corrected, carved.shape[1] // 2 :] *= -1.0
    return Carving(announced, probability, corrected, carved)
