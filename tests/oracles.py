"""Independent brute-force oracles used to pin expected values.

Everything here is built from first principles (explicit Pauli matrices,
Kronecker products, exhaustive XOR-table enumeration) and deliberately avoids
the package's measurement path, so it can serve as a second route for
checking the Monte Carlo implementations.
"""

from __future__ import annotations

import itertools

import numpy as np

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


def single_state_measure(
    amplitudes: np.ndarray, qubit: int, basis: str, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """One-state measurement as ``qsim.measure`` did it before the kernel
    took batches: split with ``np.take``, one ``rng.random()``, outcome 0 iff
    the uniform is below p0, the kept branch divided by its own norm."""
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

    vec = branch(0)
    prob = float(np.vdot(vec, vec).real)
    outcome = 0 if rng.random() < prob else 1
    if outcome:
        vec = branch(1)
        prob = float(np.vdot(vec, vec).real)
    return outcome, vec / np.sqrt(prob)
