"""Exact statevector simulation for small qubit registers.

Conventions, fixed across the whole package:

* Qubit 0 is the *most significant* bit of a basis index, so for a 4-qubit
  register the index 0b0110 = 6 means ``|q0 q1 q2 q3> = |0110>``. Operator
  strings such as ``"ZZZX"`` read left to right as qubit 0..3.
* Measurement outcome bit 0 corresponds to the +1 eigenvalue of the measured
  observable, bit 1 to the -1 eigenvalue.
* Measuring a qubit removes it from the register; the remaining qubits keep
  their relative order.
* Values are immutable after construction; every operation returns a new
  value. Concurrent simulations only need their own random generators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_QUBITS = 16
MAX_DENSITY_QUBITS = 10

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BRANCH_EPS = 1e-12  # probability below this is treated as an impossible branch


class SizeError(ValueError):
    """Register size outside the supported range."""


class DimensionMismatchError(ValueError):
    """Operands act on registers of different sizes."""


class Basis(enum.Enum):
    """Single-qubit measurement basis (Pauli observable)."""

    X = "X"
    Y = "Y"
    Z = "Z"


_NORM_TOL = 1e-12
# |norm - 1| <= tol  <=>  |norm^2 - 1| <= 2 tol + tol^2, so the check can skip the square root.
_SQUARED_NORM_TOL = 2 * _NORM_TOL + _NORM_TOL**2


def _check_unit_norms(amps: np.ndarray) -> None:
    """Raise unless every row of ``amps`` has norm 1 within 1e-12 (NaN fails)."""
    squared = np.vecdot(amps, amps).real
    ok = np.abs(squared - 1.0) <= _SQUARED_NORM_TOL
    if np.count_nonzero(ok) != len(ok):
        norm = float(np.sqrt(squared[~ok][0]))
        raise ValueError(f"state norm {norm!r} is not 1 within {_NORM_TOL}")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over ``n_qubits`` qubits.

    ``n_qubits == 0`` (a fully measured register, single amplitude of modulus
    one) is permitted so that measurement loops can consume every qubit.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.n_qubits <= MAX_QUBITS:
            raise SizeError(f"n_qubits must be in [0, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        _check_unit_norms(amps[None])
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _checked(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Wrap a contiguous amplitude row whose norm the measurement kernel
        has just checked, without checking it a second time."""
        s = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(s, "n_qubits", n_qubits)
        object.__setattr__(s, "amplitudes", amps)
        return s

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range for {self.n_qubits}-qubit state")

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.n_qubits)


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis state ``|index>`` on ``n`` qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    if not 0 <= index < 2**n:
        raise IndexError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def ghz_state(n: int) -> StateVector:
    """The n-qubit GHZ state, equal superposition of all-zeros and all-ones."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = _SQRT_HALF
    amps[-1] = _SQRT_HALF
    return StateVector(n, amps)


def rotated_ghz(n: int, theta: float) -> StateVector:
    """GHZ state with a phase ``exp(i*theta)`` on the all-ones branch.

    Trace distance to the GHZ state is ``|sin(theta/2)|``; at ``theta == pi``
    this is the -1 eigenstate of every even-Y X/Y parity observable.
    """
    return apply_rz(ghz_state(n), 0, theta)


def ghz_prime_state() -> StateVector:
    """Four-qubit state (|0110> - |1001>)/sqrt(2), polarisation H=0, V=1.

    This is the raw output of the two-pair photonic source; it is locally
    equivalent to the 4-qubit GHZ state (see ``local_correct_ghz_prime``).
    """
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = _SQRT_HALF
    amps[0b1001] = -_SQRT_HALF
    return StateVector(4, amps)


def local_correct_ghz_prime(s: StateVector) -> StateVector:
    """Local Pauli frame change mapping the photonic state onto GHZ.

    Bit-flips the two middle qubits and phase-flips qubit 0 (an involution up
    to global phase). Maps ``ghz_prime_state()`` to ``ghz_state(4)`` exactly.
    """
    if s.n_qubits != 4:
        raise SizeError(f"expected a 4-qubit state, got {s.n_qubits} qubits")
    out = apply_pauli_x(s, 1)
    out = apply_pauli_x(out, 2)
    return apply_pauli_z(out, 0)


def apply_pauli_x(s: StateVector, qubit: int) -> StateVector:
    s._check_qubit(qubit)
    t = np.take(s.as_tensor(), [1, 0], axis=qubit)
    return StateVector(s.n_qubits, t.reshape(-1))


def apply_pauli_z(s: StateVector, qubit: int) -> StateVector:
    """Negate every amplitude whose ``qubit`` bit is 1."""
    s._check_qubit(qubit)
    t = s.as_tensor().copy()
    idx: list = [slice(None)] * s.n_qubits
    idx[qubit] = 1
    t[tuple(idx)] *= -1.0
    return StateVector(s.n_qubits, t.reshape(-1))


def apply_rz(s: StateVector, qubit: int, theta: float) -> StateVector:
    """Multiply every amplitude whose ``qubit`` bit is 1 by ``exp(i*theta)``.

    On a GHZ state the result is independent of which qubit is rotated, which
    is exactly what hides the identity of the rotating party.
    """
    s._check_qubit(qubit)
    t = s.as_tensor().copy()
    idx: list = [slice(None)] * s.n_qubits
    idx[qubit] = 1
    t[tuple(idx)] *= np.exp(1j * theta)
    return StateVector(s.n_qubits, t.reshape(-1))


def _branch(z0: np.ndarray, z1: np.ndarray, basis: Basis, bit: int) -> np.ndarray:
    """Unnormalised ``bit`` branch of rows whose measured qubit splits into
    the (rows, 2^q, 2^(n-q-1)) halves ``z0``/``z1``, as a fresh
    (rows, 2^(n-1)) array."""
    rows, _, tail = z0.shape
    z0, z1 = z0.reshape(-1, tail), z1.reshape(-1, tail)  # 2-D views: cheaper elementwise loops
    if basis is Basis.Z:
        vec = (z1 if bit else z0).copy()
    elif basis is Basis.X:
        vec = (z0 - z1 if bit else z0 + z1) * _SQRT_HALF
    else:
        vec = (z0 + 1j * z1 if bit else z0 - 1j * z1) * _SQRT_HALF
    return vec.reshape(rows, -1)


def _measure_kernel(
    amps: np.ndarray,
    qubit: int,
    basis,
    u: np.ndarray | None = None,
    outcomes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single-qubit measurement kernel, applied to every row of a
    (shots, 2^n) amplitude array; ``measure`` and ``project`` are its
    one-row case.

    ``basis`` is one Basis (or letter) for all rows or an array of basis
    letters, one per row. Outcome 0 projects onto the +1 eigenvector: |+> for
    X, (|0>+i|1>)/sqrt(2) for Y, |0> for Z. Row i gets outcome 0 iff
    ``u[i]`` is below its outcome-0 probability, unless ``outcomes`` forces
    the outcomes. Returns the outcomes, their Born probabilities and the kept
    branches with the measured qubit removed, each normalised by its own norm
    so rounding errors do not build up along a chain of measurements.
    """
    if isinstance(basis, str):
        basis = Basis(basis)
    if not isinstance(basis, Basis):
        return _measure_by_basis(amps, qubit, np.asarray(basis), u, outcomes)
    shots, dim = amps.shape
    if not 0 <= qubit < dim.bit_length() - 1:
        raise IndexError(f"qubit {qubit} out of range for {dim.bit_length() - 1}-qubit state")
    t = amps.reshape(shots, 1 << qubit, 2, -1)
    z0, z1 = t[:, :, 0], t[:, :, 1]

    vec = _branch(z0, z1, basis, 0)
    prob = np.vecdot(vec, vec).real
    if outcomes is None:
        ones = u >= prob
        outcomes = ones.view(np.int8)
    else:
        outcomes = np.asarray(outcomes)
        ones = outcomes == 1
        valid = ones | (outcomes == 0)
        if np.count_nonzero(valid) != shots:
            raise ValueError(f"outcome must be 0 or 1, got {outcomes[~valid][0]}")
    # The outcome-1 branch is built only for the rows that keep it.
    count = np.count_nonzero(ones)
    if count == shots:
        vec = _branch(z0, z1, basis, 1)
        prob = np.vecdot(vec, vec).real
    elif count:
        vec1 = _branch(z0[ones], z1[ones], basis, 1)
        vec[ones], prob[ones] = vec1, np.vecdot(vec1, vec1).real
    impossible = prob < _BRANCH_EPS
    if np.count_nonzero(impossible):
        i = int(np.argmax(impossible))
        raise ValueError(f"branch (qubit={qubit}, basis={basis.value}, outcome={outcomes[i]}) has probability ~0")
    vec /= np.sqrt(prob)[:, None]
    _check_unit_norms(vec)
    return outcomes, prob, vec


def _measure_by_basis(
    amps: np.ndarray, qubit: int, bases: np.ndarray, u: np.ndarray | None, outcomes: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_measure_kernel`` with one basis letter per row: each basis's rows
    go through the kernel as one group."""
    shots, dim = amps.shape
    out = (np.empty(shots, dtype=np.int8), np.empty(shots), np.empty((shots, dim // 2), dtype=complex))
    covered = 0
    for basis in Basis:
        rows = bases == basis.value
        count = np.count_nonzero(rows)
        if count == shots:
            return _measure_kernel(amps, qubit, basis, u, outcomes)
        if count:
            group = _measure_kernel(
                amps[rows], qubit, basis,
                None if u is None else u[rows],
                None if outcomes is None else np.asarray(outcomes)[rows],
            )
            for whole, part in zip(out, group):
                whole[rows] = part
            covered += count
    if covered != shots:
        raise ValueError(f"bases must be X, Y or Z, got {sorted(set(bases.tolist()) - {'X', 'Y', 'Z'})}")
    return out


def project(s: StateVector, qubit: int, basis: Basis, outcome: int) -> tuple[float, StateVector]:
    """Deterministically project onto the given outcome.

    Returns the branch probability and the renormalized post-measurement
    state with the measured qubit removed. Raises on an (almost) impossible
    branch. Exhaustive branch enumeration is built on this.
    """
    _, prob, post = _measure_kernel(s.amplitudes[None], qubit, basis, outcomes=np.array([outcome]))
    return float(prob[0]), StateVector._checked(s.n_qubits - 1, post[0])


def measure(
    s: StateVector, qubit: int, basis: Basis, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of one qubit, sampling with Born probabilities.

    Draws one uniform from ``rng``. Returns the outcome bit and the
    renormalized post-measurement state with the measured qubit removed
    (``n_qubits`` drops by one).
    """
    outcomes, _, post = _measure_kernel(s.amplitudes[None], qubit, basis, u=rng.random(1))
    return int(outcomes[0]), StateVector._checked(s.n_qubits - 1, post[0])


def measure_string(s, ops, rngs: Sequence[np.random.Generator]):
    """Measure qubit 0 once per operator column, on one state or a batch.

    ``s`` is a StateVector or a (shots, 2^n) amplitude array of one state
    per shot. ``ops`` is one operator string (``X``, ``Y`` or ``Z`` per
    character) for every shot, or a (shots, m) array of basis letters, one
    row per shot. Column i draws one uniform per shot from ``rngs[i]``.
    Returns the outcome bits and the states of the qubits left unmeasured:
    a tuple and a StateVector for a StateVector, a (shots, m) bit array and
    a (shots, 2^(n-m)) amplitude array for a batch.
    """
    amps = s.amplitudes[None] if isinstance(s, StateVector) else s
    shots = len(amps)
    columns = ops if isinstance(ops, str) else np.asarray(ops).T
    bits = np.empty((shots, len(columns)), dtype=np.int8)
    for i, (basis, rng) in enumerate(zip(columns, rngs, strict=True)):
        bits[:, i], _, amps = _measure_kernel(amps, 0, basis, u=rng.random(shots))
    if isinstance(s, StateVector):
        return tuple(int(b) for b in bits[0]), StateVector._checked(s.n_qubits - len(columns), amps[0])
    return bits, amps


def reorder_qubits(s: StateVector, order: tuple[int, ...]) -> StateVector:
    """Permute the register so new qubit ``i`` is old qubit ``order[i]``."""
    if sorted(order) != list(range(s.n_qubits)):
        raise ValueError(f"order {order} is not a permutation of 0..{s.n_qubits - 1}")
    t = np.transpose(s.as_tensor(), order)
    return StateVector(s.n_qubits, t.reshape(-1))


def overlap(a: StateVector, b: StateVector) -> complex:
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"{a.n_qubits}-qubit vs {b.n_qubits}-qubit state")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    return abs(overlap(a, b)) ** 2


# --- density matrices and Werner mixtures -----------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on <= 10 qubits."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_DENSITY_QUBITS:
            raise SizeError(f"n_qubits must be in [1, {MAX_DENSITY_QUBITS}], got {self.n_qubits}")
        dim = 2**self.n_qubits
        mat = np.ascontiguousarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("matrix is not Hermitian within 1e-10")
        tr = np.trace(mat)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-10")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True)
class NoiseEnsemble:
    """Werner-like mixture p * |c><c| + (1 - p) * I / 2^n of a coherent state
    ``c`` on n qubits with white noise."""

    coherent: StateVector
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def n_qubits(self) -> int:
        return self.coherent.n_qubits


def density_from_pure(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def density_from_ensemble(e: NoiseEnsemble) -> DensityMatrix:
    """The mixture's density matrix p * |c><c| + (1 - p) * I / 2^n."""
    if e.n_qubits > MAX_DENSITY_QUBITS:
        raise SizeError(f"density matrices support at most {MAX_DENSITY_QUBITS} qubits")
    c = e.coherent.amplitudes
    mat = e.p * np.outer(c, c.conj()) + (1.0 - e.p) / c.size * np.eye(c.size)
    return DensityMatrix(e.n_qubits, mat)


def sample_ensemble(e: NoiseEnsemble, rng: np.random.Generator, shots: int | None = None):
    """Draw pure states of the mixture, one uniform ``u`` per state.

    The states are laid out on [0, 1) in the order coherent state, then basis
    states 0 .. 2^n - 1: ``u < p`` gives the coherent state, otherwise the
    basis state in whose (1 - p)/2^n slice ``u`` falls. Returns one
    StateVector, or with ``shots`` a (shots, 2^n) array of one state per row.
    """
    u = rng.random(1 if shots is None else shots)
    noise = u >= e.p
    dim = 2**e.n_qubits
    index = np.minimum(((u[noise] - e.p) / ((1.0 - e.p) / dim)).astype(np.int64), dim - 1)
    if shots is None:
        return basis_state(e.n_qubits, int(index[0])) if noise[0] else e.coherent
    amps = np.zeros((shots, dim), dtype=complex)
    amps[~noise] = e.coherent.amplitudes
    amps[np.flatnonzero(noise), index] = 1.0
    return amps


def werner_p_for_fidelity(n: int, fidelity: float) -> float:
    """Mixing weight p such that the Werner-like GHZ mixture hits ``fidelity``.

    Solves p + (1 - p)/2^n = fidelity; feasible only above the white-noise
    floor 1/2^n.
    """
    floor = 2.0**-n
    if not floor < fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside feasible range ({floor}, 1]")
    return (fidelity - floor) / (1.0 - floor)


def werner_ghz(n: int, p: float, *, ghz: StateVector | None = None) -> NoiseEnsemble:
    """Werner-like mixture p * |GHZ><GHZ| + (1 - p) * I / 2^n on n <= 16 qubits.

    Fidelity with GHZ is p + (1 - p)/2^n. ``ghz`` may substitute a different
    coherent component (e.g. the corrected photonic state) and must equal the
    GHZ state up to numerical noise.
    """
    coherent = ghz if ghz is not None else ghz_state(n)
    if coherent.n_qubits != n:
        raise DimensionMismatchError("coherent component has the wrong register size")
    return NoiseEnsemble(coherent, p)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b), via a Hermitian eigensolver."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"{a.n_qubits}-qubit vs {b.n_qubits}-qubit matrix")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.abs(eigs).sum())
