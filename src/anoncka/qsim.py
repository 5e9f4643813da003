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
import functools
from dataclasses import dataclass

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
# OpenBLAS (0.3.31 measured) threads its dot product from 2^14 entries on, which changes its rounding.
_CHUNK = 2**13


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a (rows, width) complex array, the same at any
    BLAS thread count: one ``vecdot`` per row of at most ``_CHUNK`` entries (a sum would
    cost such a row about 1.5 us), else one per whole chunk summed, plus one of the rest."""
    if rows.shape[1] <= _CHUNK:
        return np.vecdot(rows, rows).real
    whole = rows.shape[1] - rows.shape[1] % _CHUNK  # all of a row of 2^k: its rest is empty and adds 0.0
    chunks, rest = rows[:, :whole].reshape(len(rows), whole // _CHUNK, _CHUNK), rows[:, whole:]  # explicit: not inferable for 0 rows
    return np.vecdot(chunks, chunks).real.sum(axis=1) + np.vecdot(rest, rest).real


def _check_unit_norms(amps: np.ndarray) -> None:
    """Raise unless every row of ``amps`` has norm 1 within 1e-12 (NaN fails)."""
    squared = _squared_norms(amps)
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

    _support = functools.cached_property(lambda self: _pair_support(self.amplitudes[None]))  # found once


def _pair_support(amps: np.ndarray) -> np.ndarray | None:
    """The sorted basis indices where some row of a (rows, 2^n) array is nonzero, or None if a row has more than two."""
    nonzero = amps != 0
    return None if np.count_nonzero(nonzero, axis=1).max() > 2 else np.flatnonzero(nonzero.any(axis=0))


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis state ``|index>`` on ``n`` qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    if not 0 <= index < 2**n:
        raise IndexError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


@functools.cache
def ghz_state(n: int) -> StateVector:
    """The n-qubit GHZ state, equal superposition of all-zeros and all-ones.

    Built once per n and shared: a StateVector is frozen and its amplitudes
    are read-only. A bad n raises on every call."""
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


def _phase(s: StateVector, qubit: int, factor) -> StateVector:
    """Multiply every amplitude whose ``qubit`` bit is 1 by ``factor``."""
    s._check_qubit(qubit)
    t = s.as_tensor().copy()
    idx: list = [slice(None)] * s.n_qubits
    idx[qubit] = 1
    t[tuple(idx)] *= factor
    return StateVector(s.n_qubits, t.reshape(-1))


def apply_pauli_z(s: StateVector, qubit: int) -> StateVector:
    """Negate every amplitude whose ``qubit`` bit is 1."""
    return _phase(s, qubit, -1.0)


def apply_rz(s: StateVector, qubit: int, theta: float) -> StateVector:
    """Multiply every amplitude whose ``qubit`` bit is 1 by ``exp(i*theta)``.

    On a GHZ state the result is independent of which qubit is rotated, which
    is exactly what hides the identity of the rotating party.
    """
    return _phase(s, qubit, np.exp(1j * theta))


def _measure_kernel(amps: np.ndarray, qubit: int, basis, u: np.ndarray, index: np.ndarray | None = None):
    """The single-qubit measurement kernel, applied to every row of a
    (shots, 2^n) amplitude array; ``measure`` is its one-row case.

    ``basis`` is one Basis (or letter) for all rows, or a (shots,) array of Y
    bits, one per row: 0 measures X and 1 measures Y. Outcome 0 projects onto
    the +1 eigenvector: |+> for X, (|0>+i|1>)/sqrt(2) for Y, |0> for Z. X and Y
    keep (z0 +- phase z1)/sqrt(2) of the halves where the qubit is 0 and 1, with
    phase 1 for X and -i for Y; z1 is multiplied by it once per call. Draw i
    gets outcome 1 iff ``u[i]``, one uniform per draw, is at least its outcome-0
    probability: u = -1 forces outcome 0 and u = 2 outcome 1. Returns the
    outcomes, their Born probabilities and the kept branches with the measured
    qubit removed, each normalised by its own norm c so rounding errors do not
    build up along a chain of measurements. The normalisation multiplies by the
    complex reciprocal (1/c, -0.0): numpy divides a + bi by a real c as
    ((a + b*0)/c, (b - a*0)/c), and the multiply gives those bits, signed
    zeros included, in a cheaper loop.

    ``index`` makes the rows distinct states, each drawn at least once: draw i
    measures ``amps[index[i]]``, in that row's basis; without one, every row
    is its own state, drawn once. One unmasked pass gives both branches of
    every state, row 2s + b for state s's branch b: for X and Y one add and
    one subtract of the halves, with the phased z1 written into the outcome-1
    rows first, then one scaling of both by sqrt(1/2); for Z the halves
    themselves, which at qubit 0 are ``amps`` unchanged. One ``_squared_norms``
    call gives every branch's probability. The kept rows are the branches
    drawn, state by state and outcome 0 first (both, for a state whose draws
    take both): the nonzeros of one mark per branch row, whose running count
    less one is each draw's row. One gather takes them and their
    probabilities. With an index the call also returns each draw's row; every
    draw matches a one-row call bit for bit.
    """
    shots, dim = amps.shape
    if not 0 <= qubit < dim.bit_length() - 1:
        raise IndexError(f"qubit {qubit} out of range for {dim.bit_length() - 1}-qubit state")
    if isinstance(basis, (str, Basis)):
        basis = Basis(basis)
        equatorial, phase = basis is not Basis.Z, -1j if basis is Basis.Y else None
    else:
        ybits = np.asarray(basis)
        if ybits.shape != (shots,):
            raise ValueError(f"expected {shots} Y bits, got shape {ybits.shape}")
        ys = ybits == 1
        valid = ys | (ybits == 0)
        if np.count_nonzero(valid) != shots:
            raise ValueError(f"Y bits must be 0 or 1, got {ybits[~valid][0]}")
        equatorial, phase = True, np.where(ys, -1j, 1)[:, None, None]
    draws = shots if index is None else len(index)
    if np.shape(u) != (draws,):
        raise ValueError(f"expected {draws} uniforms, got shape {np.shape(u)}")
    # complex and C-ordered, as Z's branches may be ``amps`` itself; explicit shape: numpy cannot infer it for 0 rows
    t = np.ascontiguousarray(amps, dtype=complex).reshape(shots, 1 << qubit, 2, dim >> (qubit + 1))
    if equatorial:
        pairs = np.empty((shots, 2, *t.shape[1::2]), dtype=complex)
        z1 = t[:, :, 1] if phase is None else np.multiply(phase, t[:, :, 1], out=pairs[:, 1])
        np.add(t[:, :, 0], z1, out=pairs[:, 0])
        np.subtract(t[:, :, 0], z1, out=pairs[:, 1])
        pairs *= _SQRT_HALF
    else:  # the halves themselves: a view of ``amps`` at qubit 0, else one copy
        pairs = np.ascontiguousarray(t.swapaxes(1, 2))  # contiguous rows: a strided vecdot rounds differently
    branches = pairs.reshape(2 * shots, dim // 2)
    prob = _squared_norms(branches)
    ones = u >= (prob[0::2] if index is None else prob[0::2][index])
    outcomes = ones.view(np.int8)
    if index is None:
        keep, rows = 2 * np.arange(shots) + ones, None
    else:
        keys = 2 * index + outcomes  # each draw's branch row
        took = np.zeros(2 * shots, dtype=bool)
        took[keys] = True
        if np.count_nonzero(took[0::2] | took[1::2]) != shots:
            raise ValueError("every state needs at least one draw")
        keep, rows = np.flatnonzero(took), np.cumsum(took)[keys] - 1
    vec, prob = branches.take(keep, axis=0), prob.take(keep)
    drawn = prob if index is None else prob[rows]
    impossible = drawn < _BRANCH_EPS
    if np.count_nonzero(impossible):
        i = int(np.argmax(impossible))
        name = basis.value if isinstance(basis, Basis) else "XY"[int(ys[i if index is None else index[i]])]
        raise ValueError(f"branch (qubit={qubit}, basis={name}, outcome={outcomes[i]}) has probability ~0")
    vec *= np.reciprocal(np.sqrt(prob), dtype=complex)[:, None]
    _check_unit_norms(vec)
    return (outcomes, drawn, vec) if index is None else (outcomes, drawn, vec, rows)


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


def measure_string(amps: np.ndarray, ops: str, uniforms: np.ndarray, index: np.ndarray | None = None):
    """Measure qubit 0 of every row of a (shots, 2^n) amplitude array once
    per character of ``ops`` (``X``, ``Y`` or ``Z``); every shot is measured
    in the same bases, column i with column i of ``uniforms``, a (shots, m)
    array of uniforms. Returns the (shots, m) outcome bits and the
    (shots, 2^(n-m)) states of the qubits left unmeasured. With the kernel's
    ``index``, shot i reads ``amps[index[i]]``, each column measures each
    distinct row once per outcome, and a third array gives each shot's row.
    """
    bits = np.empty((len(amps) if index is None else len(index), len(ops)), dtype=np.int8)
    rows = () if index is None else (index,)  # the kernel's optional index, passed on and returned
    for i, (basis, u) in enumerate(zip(ops, uniforms.T, strict=True)):
        bits[:, i], _, amps, *rows = _measure_kernel(amps, 0, basis, u, *rows)
    return bits, amps, *rows


def reorder_qubits(s: StateVector, order: tuple[int, ...]) -> StateVector:
    """Permute the register so new qubit ``i`` is old qubit ``order[i]``."""
    if sorted(order) != list(range(s.n_qubits)):
        raise ValueError(f"order {order} is not a permutation of 0..{s.n_qubits - 1}")
    t = np.transpose(s.as_tensor(), order)
    return StateVector(s.n_qubits, t.reshape(-1))


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


def density_from_ensemble(e: NoiseEnsemble) -> DensityMatrix:
    """The mixture's density matrix p * |c><c| + (1 - p) * I / 2^n."""
    if e.n_qubits > MAX_DENSITY_QUBITS:
        raise SizeError(f"density matrices support at most {MAX_DENSITY_QUBITS} qubits")
    c = e.coherent.amplitudes
    mat = e.p * np.outer(c, c.conj()) + (1.0 - e.p) / c.size * np.eye(c.size)
    return DensityMatrix(e.n_qubits, mat)


def sample_ensemble(e: NoiseEnsemble, rng: np.random.Generator, shots: int):
    """Draw ``shots`` pure states of the mixture, one uniform ``u`` each, as
    (states, index): the coherent state, then the distinct basis states
    drawn, and draw i's row ``states[index[i]]``.

    The states are laid out on [0, 1) in the order coherent state, then basis
    states 0 .. 2^n - 1: ``u < p`` gives the coherent state, otherwise the
    basis state in whose (1 - p)/2^n slice ``u`` falls.
    """
    u = rng.random(shots)
    noise = u >= e.p
    index = np.zeros(shots, dtype=np.intp)
    if not np.count_nonzero(noise):  # the coherent state's own read-only row, not a copy
        return e.coherent.amplitudes[None], index
    dim = 2**e.n_qubits
    basis = np.minimum(((u[noise] - e.p) / ((1.0 - e.p) / dim)).astype(np.int64), dim - 1)
    seen = np.zeros(dim, dtype=bool)
    seen[basis] = True
    drawn = np.flatnonzero(seen)
    index[noise] = np.searchsorted(drawn, basis) + 1
    states = np.zeros((len(drawn) + 1, dim), dtype=complex)
    states[0] = e.coherent.amplitudes
    states[np.arange(1, len(drawn) + 1), drawn] = 1.0
    return states, index


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
    GHZ state up to numerical noise (a trace distance of at most 1e-12).
    """
    coherent = ghz if ghz is not None else ghz_state(n)
    if coherent.n_qubits != n:
        raise DimensionMismatchError("coherent component has the wrong register size")
    if ghz is not None and (distance := ghz_trace_distance(ghz)) > 1e-12:
        raise ValueError(f"coherent component is {distance:.3g} from GHZ in trace distance")
    return NoiseEnsemble(coherent, p)


def ghz_trace_distance(entry: StateVector | NoiseEnsemble) -> float:
    """Trace distance from a pure state or a mixture p|c><c| + (1 - p) I/2^n
    to the GHZ state of the same size, in O(2^n) without an eigensolver.

    A pure state is the case p = 1. Write c = a |GHZ> + b |e> with |e> a
    unit vector orthogonal to GHZ; as GHZ lives on the first and last basis
    states, |a|^2 and b^2 are sums of squares with no cancellation. The
    difference of the two density matrices has the eigenvalue (1 - p)/2^n on
    the complement of span{GHZ, e}, and inside that span it is the 2x2 block
    [[(1-p)/2^n - (1-p) - p b^2, p|a|b], [p|a|b, (1-p)/2^n + p b^2]] (using
    |a|^2 + b^2 = 1).
    """
    if isinstance(entry, NoiseEnsemble):
        c, p = entry.coherent.amplitudes, entry.p
    else:
        c, p = entry.amplitudes, 1.0
    along = abs(c[0] + c[-1]) / np.sqrt(2.0)
    across = np.sqrt(abs(c[0] - c[-1]) ** 2 / 2.0 + _squared_norms(c[None, 1:-1])[0])
    noise = (1.0 - p) / c.size
    mean = noise - (1.0 - p) / 2.0
    radius = np.hypot((1.0 - p) / 2.0 + p * across**2, p * along * across)
    return float(0.5 * ((c.size - 2) * noise + abs(mean + radius) + abs(mean - radius)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b), via a Hermitian eigensolver."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"{a.n_qubits}-qubit vs {b.n_qubits}-qubit matrix")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.abs(eigs).sum())
