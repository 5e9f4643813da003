"""Unit and property tests for the statevector core."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncka import qsim
from anoncka.qsim import Basis

from anoncka.netmodel import RoleAssignment
from anoncka.protocols import ParityDraws, carve, carve_draws, parity_draws, parity_measure
from anoncka.rng import RngBundle

from oracles import (
    born_probabilities,
    density_from_pure,
    even_y_settings,
    exact_verification_acceptance,
    fidelity_pure,
    forcing,
    materialized_density,
    materialized_werner,
    project,
    pure_state_trace_distance,
    sample_materialized,
    single_state_measure,
    states_equal,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def random_state(n: int, rng: np.random.Generator) -> qsim.StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qsim.StateVector(n, amps / np.linalg.norm(amps))


# --- construction and fixed states ---------------------------------------------------


def test_ghz_single_qubit_is_plus():
    s = qsim.ghz_state(1)
    assert np.allclose(s.amplitudes, [SQRT_HALF, SQRT_HALF])


def test_ghz_two_qubits():
    s = qsim.ghz_state(2)
    assert np.allclose(s.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF])


@pytest.mark.parametrize("n", [4, 7])
def test_ghz_support(n):
    s = qsim.ghz_state(n)
    nonzero = np.flatnonzero(np.abs(s.amplitudes) > 0)
    assert list(nonzero) == [0, 2**n - 1]
    assert np.allclose(s.amplitudes[nonzero], SQRT_HALF)


@pytest.mark.parametrize("n", [0, 17, -3])
def test_ghz_size_errors(n):
    with pytest.raises(qsim.SizeError):
        qsim.ghz_state(n)


def test_ghz_state_is_one_shared_read_only_state():
    s = qsim.ghz_state(5)
    assert qsim.ghz_state(5) is s
    assert not s.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s.amplitudes[0] = 0.0
    before = s.amplitudes.tobytes()
    qsim.rotated_ghz(5, 1.0)
    qsim.apply_rz(s, 3, 0.7)
    qsim.apply_pauli_x(s, 2)
    assert s.amplitudes.tobytes() == before
    assert qsim.ghz_state(5).amplitudes.tobytes() == before
    for _ in range(2):  # a bad n is not cached
        with pytest.raises(qsim.SizeError):
            qsim.ghz_state(17)


def test_statevector_rejects_bad_norm():
    with pytest.raises(ValueError, match="norm"):
        qsim.StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="norm"):
        qsim.StateVector(1, np.array([1.0, np.nan]))


def test_statevector_rejects_bad_length():
    with pytest.raises(ValueError, match="amplitudes"):
        qsim.StateVector(2, np.array([1.0, 0.0]))


def test_ghz_prime_support_and_signs():
    s = qsim.ghz_prime_state()
    assert abs(s.amplitudes[0b0110] - SQRT_HALF) < 1e-15
    assert abs(s.amplitudes[0b1001] + SQRT_HALF) < 1e-15
    assert np.count_nonzero(np.abs(s.amplitudes) > 1e-15) == 2
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_ghz_prime_orthogonal_to_ghz4():
    assert fidelity_pure(qsim.ghz_prime_state(), qsim.ghz_state(4)) == 0.0


def test_local_correction_maps_prime_to_ghz4():
    corrected = qsim.local_correct_ghz_prime(qsim.ghz_prime_state())
    assert fidelity_pure(corrected, qsim.ghz_state(4)) == pytest.approx(1.0, abs=1e-12)


def test_local_correction_is_involution():
    once = qsim.local_correct_ghz_prime(qsim.ghz_prime_state())
    twice = qsim.local_correct_ghz_prime(once)
    assert states_equal(twice, qsim.ghz_prime_state(), tol=1e-12)


def test_local_correction_sends_ghz4_to_prime_support():
    mapped = qsim.local_correct_ghz_prime(qsim.ghz_state(4))
    support = set(np.flatnonzero(np.abs(mapped.amplitudes) > 1e-15))
    assert support == {0b0110, 0b1001}
    assert states_equal(mapped, qsim.ghz_prime_state(), tol=1e-12)


def test_local_correction_rejects_wrong_size():
    with pytest.raises(qsim.SizeError):
        qsim.local_correct_ghz_prime(qsim.ghz_state(3))


# --- gates ---------------------------------------------------------------------------


def test_pauli_z_fixes_ghz_minus():
    minus = qsim.rotated_ghz(2, np.pi)
    fixed = qsim.apply_pauli_z(minus, 0)
    assert states_equal(fixed, qsim.ghz_state(2), tol=1e-12)


def test_pauli_z_is_involution():
    s = random_state(3, np.random.default_rng(0))
    assert np.allclose(qsim.apply_pauli_z(qsim.apply_pauli_z(s, 1), 1).amplitudes, s.amplitudes)


def test_pauli_z_position_independent_on_ghz():
    a = qsim.apply_pauli_z(qsim.ghz_state(2), 0)
    b = qsim.apply_pauli_z(qsim.ghz_state(2), 1)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_rz_zero_is_identity():
    s = random_state(2, np.random.default_rng(1))
    assert np.allclose(qsim.apply_rz(s, 0, 0.0).amplitudes, s.amplitudes)


def test_rz_pi_equals_pauli_z():
    s = random_state(3, np.random.default_rng(2))
    assert states_equal(qsim.apply_rz(s, 2, np.pi), qsim.apply_pauli_z(s, 2), tol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_rz_on_ghz_is_qubit_independent(n):
    # the rotation only touches the all-ones amplitude, so the amplitude
    # vectors must match bit for bit across target qubits
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for theta in thetas:
        reference = qsim.apply_rz(qsim.ghz_state(n), 0, theta).amplitudes
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = SQRT_HALF
        expected[-1] = SQRT_HALF * np.exp(1j * theta)
        assert np.allclose(reference, expected, atol=1e-15)
        for qubit in range(1, n):
            rotated = qsim.apply_rz(qsim.ghz_state(n), qubit, theta).amplitudes
            assert np.array_equal(rotated, reference)


def test_x_basis_expansion_of_ghz3():
    # X-measuring the last qubit of GHZ3 leaves (|00> + (-1)^outcome |11>)/sqrt(2)
    # on the participants, the Hamming-weight sign rule at one bystander.
    s = qsim.ghz_state(3)
    for outcome in (0, 1):
        prob, post = project(s, 2, Basis.X, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.array([SQRT_HALF, 0, 0, (-1) ** outcome * SQRT_HALF])
        assert np.allclose(post.amplitudes, expected, atol=1e-12)


def test_gate_index_errors():
    s = qsim.ghz_state(2)
    for fn in (qsim.apply_pauli_z, qsim.apply_pauli_x):
        with pytest.raises(IndexError):
            fn(s, 2)
    with pytest.raises(IndexError):
        qsim.apply_rz(s, 5, 0.3)


# --- measurement ---------------------------------------------------------------------


def test_x_measure_plus_is_deterministic():
    rng = np.random.default_rng(4)
    for _ in range(20):
        outcome, post = qsim.measure(qsim.ghz_state(1), 0, Basis.X, rng)
        assert outcome == 0
        assert post.n_qubits == 0


def test_z_measure_ghz2_branches():
    for outcome in (0, 1):
        prob, post = project(qsim.ghz_state(2), 0, Basis.Z, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.amplitudes, qsim.basis_state(1, outcome).amplitudes)


def test_x_measure_ghz3_branches():
    for outcome in (0, 1):
        prob, post = project(qsim.ghz_state(3), 0, Basis.X, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.array([SQRT_HALF, 0, 0, (-1) ** outcome * SQRT_HALF])
        assert np.allclose(post.amplitudes, expected, atol=1e-12)


def test_measure_invalid_qubit():
    with pytest.raises(IndexError):
        qsim.measure(qsim.ghz_state(2), 3, Basis.Z, np.random.default_rng(0))


def test_project_zero_probability_branch_rejected():
    # Forced branches go through the batch rounds: an impossible forced
    # outcome raises there as it did in the per-state projection.
    with pytest.raises(ValueError, match="probability"):
        project(qsim.basis_state(1, 0), 0, Basis.Z, 1)
    # |0>|+>: bystander 1 X-measures |+>, so outcome 1 cannot happen
    plus = np.kron([1.0, 0.0], [SQRT_HALF, SQRT_HALF]).astype(complex)
    roles = RoleAssignment(n=2, alice=0, receivers=frozenset())
    coins, _ = carve_draws(roles, RngBundle.from_seed(0, 2), 1)
    carve(plus[None], np.zeros(1, dtype=np.intp), roles, (coins, forcing([[0, 0]])))
    with pytest.raises(ValueError, match="probability"):
        carve(plus[None], np.zeros(1, dtype=np.intp), roles, (coins, forcing([[0, 1]])))
    # the verifier of GHZ2 after an X outcome 0 can only see outcome 0
    ghz2 = qsim.ghz_state(2).amplitudes[None]
    both_x = ParityDraws(np.zeros((1, 2), dtype=np.int8), forcing([[1, 0]]), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="probability"):
        parity_measure(ghz2, (0, 1), 0, both_x)


def test_outcome_one_is_normalised_by_its_own_branch_norm():
    # A valid state whose norm is off by 9e-13: dividing the outcome-1 branch
    # by 1 - p0 instead of its own norm would scale that error up ~100-fold.
    amps = np.array([np.sqrt(0.99), np.sqrt(0.01)], dtype=complex) * (1 + 9e-13)
    s = qsim.StateVector(1, amps)
    outcome, post = qsim.measure(s, 0, Basis.Z, np.random.default_rng(82))
    assert outcome == 1
    assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_long_measurement_chains_at_16_qubits_keep_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = qsim.ghz_state(16)
        for _ in range(15):
            _, s = qsim.measure(s, 0, Basis.X, rng)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-14


# Prints one hash of the kernel's outcomes, probabilities and kept rows on
# fixed rows of 2^15 and 2^16 amplitudes: X at qubit 0, per-row Y bits at qubit 1;
# then of ``ghz_trace_distance`` on fixed states of 14 to 16 qubits, whose
# 2^n - 2 middle entries leave a remainder after the whole chunks.
_KERNEL_HASH_SCRIPT = """
import hashlib
import numpy as np
from anoncka.qsim import StateVector, _measure_kernel, ghz_trace_distance
rng, digest = np.random.default_rng(3), hashlib.md5()
for n in (15, 16):
    amps = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    amps /= np.sqrt((amps.real**2 + amps.imag**2).sum(axis=1))[:, None]
    for qubit, basis in ((0, "X"), (1, np.array([0, 1, 1]))):
        for part in _measure_kernel(amps, qubit, basis, np.full(3, 0.5)):
            digest.update(part.tobytes())
for n in (14, 15, 16):
    amps = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    amps /= np.sqrt((amps.real**2 + amps.imag**2).sum(axis=1))[:, None]
    for row in amps:
        digest.update(float(ghz_trace_distance(StateVector(n, row))).hex().encode())
print(digest.hexdigest())
"""


def test_kernel_gives_the_same_bits_at_one_and_two_blas_threads():
    # OpenBLAS threads a complex dot product from 2^14 entries on, and the
    # threaded sum rounds differently; the kernel's sums and the trace
    # distance's must not depend on it. Where OpenBLAS starts only one
    # thread, both runs agree regardless.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    hashes = [
        subprocess.run(
            [sys.executable, "-c", _KERNEL_HASH_SCRIPT],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert hashes[0] == hashes[1] != ""


def test_single_shot_measure_is_bit_identical_to_one_state_reference():
    # measure is the one-row case of the batch kernel: same uniforms, same
    # outcomes and the same amplitude bytes as the one-state computation.
    for seed in range(10):
        rng, ref_rng, picks = (np.random.default_rng(seed) for _ in range(3))
        s = qsim.ghz_state(16)
        ref = s.amplitudes
        while s.n_qubits > 1:
            qubit = int(picks.integers(0, s.n_qubits))
            outcome, s = qsim.measure(s, qubit, Basis.X, rng)
            ref_outcome, ref = single_state_measure(ref, qubit, "X", ref_rng)
            assert outcome == ref_outcome
            assert s.amplitudes.tobytes() == ref.tobytes()
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    s = random_state(5, np.random.default_rng(98))
    bits, rest = qsim.measure_string(s.amplitudes[None], "XYZX", rng.random((4, 1)).T)
    ref = s.amplitudes
    for ch, bit in zip("XYZX", bits[0]):
        ref_bit, ref = single_state_measure(ref, 0, ch, ref_rng)
        assert bit == ref_bit
    assert rest[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_forced_branches_match_born_oracle(n):
    rng = np.random.default_rng(100 + n)
    shots = 24
    amps = np.vstack([random_state(n, rng).amplitudes for _ in range(shots)])
    ybits = rng.integers(0, 2, size=shots)
    forced = rng.integers(0, 2, size=shots)
    qubit = int(rng.integers(0, n))
    # Per-row X/Y bits, then Z on every row.
    for basis, letters in ((ybits, ["XY"[y] for y in ybits]), ("Z", ["Z"] * shots)):
        outcomes, probs, post = qsim._measure_kernel(amps, qubit, basis, forcing(forced))
        assert np.array_equal(outcomes, forced)
        assert post.shape == (shots, 2 ** (n - 1))
        for row in range(shots):
            expected = born_probabilities(amps[row], qubit, letters[row])[forced[row]]
            assert probs[row] == pytest.approx(expected, abs=1e-12)
            one_prob, one_post = project(qsim.StateVector(n, amps[row]), qubit, Basis(letters[row]), int(forced[row]))
            assert one_prob == pytest.approx(probs[row], abs=1e-15)
            assert np.allclose(one_post.amplitudes, post[row], atol=1e-15)
        # sampled: outcome 0 exactly when the row's uniform is below its p0
        u = rng.random(shots)
        sampled, _, _ = qsim._measure_kernel(amps, qubit, basis, u=u)
        p0 = np.array([born_probabilities(amps[row], qubit, letters[row])[0] for row in range(shots)])
        assert np.array_equal(sampled == 0, u < p0)


class _Fixed:
    """A generator stand-in whose one draw is a given uniform."""

    def __init__(self, u: float):
        self.u = u

    def random(self):
        return self.u


def test_mixed_xy_batch_matches_one_state_reference_bit_for_bit():
    # Rows of random, GHZ and rotated-GHZ states measured down to one qubit,
    # each column with its own per-row Y bits: every row keeps the outcomes
    # and the amplitude bytes of the one-state reference with the same uniforms.
    rng = np.random.default_rng(21)
    n = 5
    states = [random_state(n, rng) for _ in range(8)]
    states += [qsim.ghz_state(n)] * 4 + [qsim.rotated_ghz(n, float(t)) for t in rng.uniform(0, np.pi, 4)]
    amps = np.vstack([s.amplitudes for s in states])
    refs = [s.amplitudes for s in states]
    for size in range(n, 1, -1):
        ybits = rng.integers(0, 2, size=len(states))
        u = rng.random(len(states))
        qubit = int(rng.integers(0, size))
        outcomes, _, amps = qsim._measure_kernel(amps, qubit, ybits, u=u)
        for row, (y, uniform) in enumerate(zip(ybits, u)):
            ref_bit, refs[row] = single_state_measure(refs[row], qubit, "XY"[y], _Fixed(uniform))
            assert outcomes[row] == ref_bit
            assert amps[row].tobytes() == refs[row].tobytes()
    assert len(set(ybits.tolist())) == 2


@pytest.mark.parametrize("rows", [1, 64])
def test_kernel_normalisation_multiply_keeps_the_division_bits(rows):
    # _measure_kernel normalises by multiplying each row by the complex
    # reciprocal (1/c, -0.0) of its real norm c. numpy divides by a real c as
    # ((a + b*0)/c, (b - a*0)/c), and the multiply by (1/c, -0.0) gives the
    # same bits, signed zeros included. If a numpy release changes either
    # loop, this fails here, before the bit-for-bit kernel tests do.
    rng = np.random.default_rng(rows)
    p = rng.uniform(1e-3, 1.0, size=rows)
    recip = np.reciprocal(np.sqrt(p), dtype=complex)
    assert np.all(np.signbit(recip.imag))
    for cols in (4, 7, 64, 1000):
        shape = (rows, cols)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for part in (v.real, v.imag):  # about a third of each part becomes +0 or -0
            part[...] = np.where(rng.random(shape) < 0.35, np.where(rng.random(shape) < 0.5, 0.0, -0.0), part)
        v[:, :4] = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        divided = v / np.sqrt(p)[:, None]
        multiplied = v * recip[:, None]
        assert multiplied.tobytes() == divided.tobytes()


@pytest.mark.parametrize("basis", ["ybits", "X", "Y"])
def test_all_outcome_one_batch_matches_one_state_reference_bit_for_bit(basis):
    # Uniforms above every row's p0 send the whole batch down the outcome-1
    # branch, which the kernel builds in its branch-0 buffer; the caller's
    # array stays untouched and every row matches the one-state reference.
    rng = np.random.default_rng(41)
    n = 5
    states = [random_state(n, rng) for _ in range(6)]
    states += [qsim.rotated_ghz(n, float(t)) for t in rng.uniform(0.1, np.pi, 4)]
    amps = np.vstack([s.amplitudes for s in states])
    refs = [s.amplitudes for s in states]
    for size in range(n, 1, -1):
        qubit = int(rng.integers(0, size))
        ybits = rng.integers(0, 2, size=len(states)) if basis == "ybits" else np.full(len(states), "XY".index(basis))
        p0 = np.array([born_probabilities(ref, qubit, "XY"[y])[0] for ref, y in zip(refs, ybits)])
        u = p0 + (1.0 - p0) * rng.uniform(0.01, 0.99, size=len(states))
        before = amps.tobytes()
        outcomes, _, post = qsim._measure_kernel(amps, qubit, ybits if basis == "ybits" else basis, u=u)
        assert amps.tobytes() == before
        assert np.all(outcomes == 1)
        for row, (y, uniform) in enumerate(zip(ybits, u)):
            ref_bit, refs[row] = single_state_measure(refs[row], qubit, "XY"[y], _Fixed(uniform))
            assert ref_bit == 1
            assert post[row].tobytes() == refs[row].tobytes()
        amps = post


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    rows=st.integers(1, 40),
    basis=st.sampled_from(["X", "Y", "Z", "ybits"]),
    forced=st.booleans(),
    pattern=st.sampled_from(["zeros", "ones", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_outcome_pattern_matches_one_state_reference_bit_for_bit(n, rows, basis, forced, pattern, seed):
    # All-0, all-1 and mixed outcomes, sampled or forced, take the kernel's
    # one outcome-1 path: every row's outcome, probability and bytes are the
    # one-state reference's, and the caller's array is left untouched.
    rng = np.random.default_rng(seed)
    amps = np.vstack([random_state(n, rng).amplitudes for _ in range(rows)])
    qubit = int(rng.integers(0, n))
    ybits = rng.integers(0, 2, size=rows)
    letters = ["XY"[y] for y in ybits] if basis == "ybits" else [basis] * rows
    want = {"zeros": np.zeros(rows, dtype=int), "ones": np.ones(rows, dtype=int), "mixed": rng.integers(0, 2, size=rows)}[pattern]
    if pattern == "mixed":
        want[:2] = [0, 1][:rows]
    p0 = np.array([project(qsim.StateVector(n, row), qubit, letter, 0)[0] for row, letter in zip(amps, letters)])
    spread = rng.uniform(0.01, 0.99, size=rows)
    u = np.where(want == 1, p0 + (1.0 - p0) * spread, p0 * spread)
    before = amps.tobytes()
    draws = forcing(want) if forced else u
    outcomes, probs, post = qsim._measure_kernel(amps, qubit, ybits if basis == "ybits" else basis, draws)
    assert amps.tobytes() == before
    assert outcomes.tolist() == want.tolist()
    for row, letter in enumerate(letters):
        ref_bit, ref = single_state_measure(amps[row], qubit, letter, _Fixed(u[row]))
        assert outcomes[row] == ref_bit
        assert probs[row] == project(qsim.StateVector(n, amps[row]), qubit, letter, ref_bit)[0]
        assert post[row].tobytes() == ref.tobytes()


def _kernel_peak(amps, basis, outcomes, index=None) -> int:
    """Peak bytes traced while the kernel measures qubit 1 of ``amps``."""
    u = forcing(outcomes)
    tracemalloc.start()
    try:
        qsim._measure_kernel(amps, 1, basis, u, index)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("basis", ["X", "Z", "ybits"])
def test_mixed_outcome_call_allocates_no_more_than_an_all_zero_call(basis):
    # Every call builds both branches of every row in one array and gathers
    # the kept branch of each row from it, so what a call holds does not
    # depend on the outcomes its rows take.
    rng = np.random.default_rng(71)
    rows = 256
    amps = np.vstack([qsim.rotated_ghz(8, float(t)).amplitudes for t in rng.uniform(0.3, 2.8, rows)])
    basis = rng.integers(0, 2, size=rows) if basis == "ybits" else basis
    zeros, mixed = np.zeros(rows, dtype=int), rng.integers(0, 2, size=rows)
    _kernel_peak(amps, basis, mixed)  # warm-up: first-call allocations are not the kernel's
    assert _kernel_peak(amps, basis, mixed) <= 1.05 * _kernel_peak(amps, basis, zeros)


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_indexed_split_call_holds_its_kept_rows_and_one_gathered_copy_of_the_split_halves(basis):
    # Every state is drawn twice and takes both outcomes, so all of them
    # split and keep both branches: the call holds its both-branch array (the
    # size of the states) and the kept rows gathered from it, little beyond.
    rng = np.random.default_rng(72)
    states = np.vstack([random_state(12, rng).amplitudes for _ in range(16)])
    index, outcomes = np.tile(np.arange(16), 2), np.repeat([0, 1], 16)
    kept = len(index) * states.shape[1] // 2 * states.itemsize  # a row of half the length per draw
    _kernel_peak(states, basis, outcomes, index)  # warm-up: first-call allocations are not the kernel's
    assert _kernel_peak(states, basis, outcomes, index) <= 1.1 * (kept + states.nbytes)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_batched_kernel_rejects_impossible_branches_and_bad_rows():
    amps = np.vstack([qsim.ghz_state(2).amplitudes, qsim.basis_state(2, 0).amplitudes])
    with pytest.raises(ValueError, match="probability"):
        qsim._measure_kernel(amps, 0, "Z", forcing([0, 1]))
    # |+>|0> has no X outcome 1 on qubit 0: the per-row path names the row's basis
    plus = np.vstack([amps[0], [SQRT_HALF, 0, SQRT_HALF, 0]])
    with pytest.raises(ValueError, match=r"basis=X, outcome=1\) has probability"):
        qsim._measure_kernel(plus, 0, np.array([1, 0]), forcing([0, 1]))
    # a sampled outcome whose branch has probability 1e-13
    tiny = np.vstack([amps[0], [np.sqrt(1 - 1e-13), np.sqrt(1e-13), 0, 0]])
    with pytest.raises(ValueError, match="probability"):
        qsim._measure_kernel(tiny, 1, "Z", u=np.array([0.5, 1 - 1e-14]))
    with pytest.raises(ValueError, match="Y bits must be 0 or 1, got 2"):
        qsim._measure_kernel(amps, 0, np.array([0, 2]), forcing([0, 0]))
    with pytest.raises(ValueError, match=r"expected 2 Y bits, got shape \(3,\)"):
        qsim._measure_kernel(amps, 0, np.array([0, 1, 0]), u=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="'Q' is not a valid Basis"):
        qsim._measure_kernel(amps, 0, "Q", forcing([0, 0]))
    bad = amps.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="state norm nan"):
        qsim._measure_kernel(bad, 0, "X", u=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="state norm nan"):
        qsim._measure_kernel(bad, 0, np.array([0, 1]), u=np.array([0.5, 0.5]))
    # a NaN state drawn beside a state that splits: every kept row of the
    # index's gather, the split state's outcome-1 row included, is checked
    ghz_and_nan = np.vstack([amps[0], bad[1]])
    for basis in ("X", "Z", np.array([1, 0]), np.array([0, 1])):
        with pytest.raises(ValueError, match="state norm nan"):
            qsim._measure_kernel(ghz_and_nan, 0, basis, np.array([-1, 2, 0.5]), np.array([0, 0, 1]))


def test_kernel_rejects_uniforms_that_are_not_one_per_draw():
    # Too few or too many uniforms raise, with or without an index, instead
    # of one uniform being spread over every draw.
    amps = np.vstack([qsim.ghz_state(2).amplitudes, qsim.basis_state(2, 0).amplitudes])
    with pytest.raises(ValueError, match=r"expected 2 uniforms, got shape \(3,\)"):
        qsim._measure_kernel(amps, 0, "Z", np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match=r"expected 2 uniforms, got shape \(1,\)"):
        qsim._measure_kernel(amps, 0, np.array([0, 1]), np.array([0.5]))
    with pytest.raises(ValueError, match=r"expected 5 uniforms, got shape \(1,\)"):
        qsim._measure_kernel(amps, 0, "X", np.array([0.5]), np.array([0, 1, 1, 0, 1]))
    # a carve of five rounds handed the draws of one
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    ghz = qsim.ghz_state(4).amplitudes[None]
    with pytest.raises(ValueError, match=r"expected 5 uniforms, got shape \(1,\)"):
        carve(ghz, np.zeros(5, dtype=np.intp), roles, carve_draws(roles, RngBundle.from_seed(0, 4), 1))


def indexed_matches_one_call_per_draw(states, index, basis, levels, rng, forced=None):
    """Measure ``states`` through ``index`` down ``levels`` qubits, each
    draw next to its own chain of one-row calls with the same uniform or
    forced outcome: outcomes, probabilities and kept bytes agree. ``basis``
    is a letter, or "XY" for random Y bits, one per kept row at each level.
    Returns the number of kept rows after each level."""
    refs = [states[s][None] for s in index.tolist()]
    kept = []
    for level in range(levels):
        qubit = int(rng.integers(0, states.shape[1].bit_length() - 1))
        u = rng.random(len(index)) if forced is None else forcing(forced[level])
        ybits = rng.integers(0, 2, len(states)) if basis == "XY" else None
        rows = index
        outcomes, probs, states, index = qsim._measure_kernel(states, qubit, basis if ybits is None else ybits, u, index)
        for i, ref in enumerate(refs):
            ref_basis = basis if ybits is None else ybits[rows[i] : rows[i] + 1]
            ref_outcome, ref_prob, refs[i] = qsim._measure_kernel(ref, qubit, ref_basis, u[i : i + 1])
            assert outcomes[i] == ref_outcome[0]
            assert probs[i : i + 1].tobytes() == ref_prob.tobytes()
            assert states[index[i]].tobytes() == refs[i][0].tobytes()
        kept.append(len(states))
    return kept


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_indexed_kernel_matches_one_call_per_draw_bit_for_bit(basis):
    # Distinct states drawn several times each: parents shared by draws that
    # take both outcomes keep one row per outcome, and every draw's row,
    # outcome and probability are those of a one-row call on its own state.
    rng = np.random.default_rng(61)
    n = 5
    # a GHZ row loses its outcome-1 branch after a forced Z outcome 0
    last = random_state(n, rng) if basis == "Z" else qsim.rotated_ghz(n, 0.4)
    states = np.vstack([random_state(n, rng).amplitudes for _ in range(3)] + [last.amplitudes])
    index = np.array([0, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 0, 2, 3])
    kept = indexed_matches_one_call_per_draw(states, index, basis, n - 1, rng)
    assert kept[0] > len(states) and kept[-1] <= len(index)
    # Forced outcomes, per level: all 0; all 1 (built in place); state 3
    # splits while state 1 keeps outcome 1 alone; alternating draws.
    alternating = np.arange(len(index)) % 2
    forced = [0 * alternating, 1 + 0 * alternating, np.where(index == 1, 1, np.where(index == 3, alternating, 0)), alternating]
    kept = indexed_matches_one_call_per_draw(states, index, basis, n - 1, rng, forced=forced)
    assert kept[:2] == [len(states), len(states)] and kept[2] > len(states)
    # States 0 and 2 split while 1 and 3 do not: two runs of split states.
    apart = np.isin(np.arange(len(index)), (13, 14)).astype(int)
    kept = indexed_matches_one_call_per_draw(states, index, basis, n - 1, rng, forced=[apart, *forced[1:]])
    assert kept[0] == len(states) + 2


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_indexed_kernel_with_one_draw_per_state_matches_one_call_per_draw(basis):
    # Each state drawn once, in shuffled order: no state splits, so the kept
    # rows stay one per state, and each draw's row is that of its own call,
    # whether some, none or all of the draws take outcome 1.
    rng = np.random.default_rng(64)
    states = np.vstack([random_state(4, rng).amplitudes for _ in range(5)])
    index = np.array([3, 0, 4, 1, 2])
    assert indexed_matches_one_call_per_draw(states, index, basis, 3, rng) == [5, 5, 5]
    forced = [[1, 0, 0, 1, 0], [0] * 5, [1] * 5]
    assert indexed_matches_one_call_per_draw(states, index, basis, 3, rng, forced=forced) == [5, 5, 5]


def test_indexed_kernel_leaves_a_read_only_source_untouched():
    # A pure source is one read-only row drawn by every round; a read-only
    # broadcast of it may also stand for several states.
    ghz = qsim.ghz_state(6).amplitudes
    before = ghz.tobytes()
    rng = np.random.default_rng(62)
    kept = indexed_matches_one_call_per_draw(ghz[None], np.zeros(24, dtype=np.intp), "X", 5, rng)
    assert kept[0] == 2
    broadcast = np.broadcast_to(ghz, (3, ghz.size))
    indexed_matches_one_call_per_draw(broadcast, np.arange(24) % 3, "Y", 5, rng)
    assert ghz.tobytes() == before and not ghz.flags.writeable


def test_indexed_kernel_checks_only_the_branches_drawn():
    zero = qsim.basis_state(2, 0).amplitudes
    states = np.vstack([zero, qsim.basis_state(2, 3).amplitudes])
    index = np.array([0, 1, 0, 1])
    # outcome 1 of |00> and outcome 0 of |11> have probability 0 but no draw takes them
    outcomes, probs, kept, rows = qsim._measure_kernel(states, 0, "Z", forcing([0, 1, 0, 1]), index)
    assert probs.tolist() == [1.0, 1.0, 1.0, 1.0] and rows.tolist() == [0, 1, 0, 1]
    _, _, kept, _ = qsim._measure_kernel(states, 0, "Z", u=np.array([0.3, 0.3, 0.99, 0.99]), index=index)
    assert kept.tolist() == [[1, 0], [0, 1]]
    # a drawn impossible branch raises the message of a one-row call
    with pytest.raises(ValueError) as one_row:
        qsim._measure_kernel(zero[None], 0, "Z", forcing([1]))
    with pytest.raises(ValueError) as indexed:
        qsim._measure_kernel(states, 0, "Z", forcing([0, 1, 1, 1]), index)
    assert str(indexed.value) == str(one_row.value) == "branch (qubit=0, basis=Z, outcome=1) has probability ~0"
    # Y bits are one per row, as every other basis is: each (row, basis) pair
    # is measured once per outcome, and every draw matches its one-row call.
    rng = np.random.default_rng(65)
    rows = np.vstack([random_state(4, rng).amplitudes for _ in range(3)] + [qsim.rotated_ghz(4, 0.4).amplitudes])
    kept = indexed_matches_one_call_per_draw(rows, np.array([0, 1, 1, 2, 3, 3, 3, 0, 2, 3]), "XY", 3, rng)
    assert kept[0] > len(rows)
    # A drawn impossible Y branch names the basis of the draw's own row.
    y_plus = np.kron([1, 1j], [1, 0]) / np.sqrt(2)  # outcome 1 of Y on qubit 0 has probability 0
    with pytest.raises(ValueError) as one_row:
        qsim._measure_kernel(y_plus[None], 0, np.array([1]), forcing([1]))
    with pytest.raises(ValueError) as indexed:
        qsim._measure_kernel(np.vstack([y_plus, zero]), 0, np.array([1, 0]), forcing([0, 0, 1, 1]), np.array([1, 0, 1, 0]))
    assert str(indexed.value) == str(one_row.value) == "branch (qubit=0, basis=Y, outcome=1) has probability ~0"
    with pytest.raises(ValueError, match="every state needs at least one draw"):
        qsim._measure_kernel(states, 0, "Z", forcing([0, 0]), np.array([0, 0]))


def _distinct_rows(kind: str, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` rows of one family on n qubits: rotated GHZ, GHZ' (n = 4,
    else GHZ), basis states, the drawn rows of a Werner mixture or random
    dense states."""
    if kind == "rotated":
        return np.vstack([qsim.rotated_ghz(n, theta).amplitudes for theta in rng.uniform(0, 2 * np.pi, count)])
    if kind == "ghz_prime":
        return np.tile((qsim.ghz_prime_state() if n == 4 else qsim.ghz_state(n)).amplitudes, (count, 1))
    if kind == "basis":
        return np.vstack([qsim.basis_state(n, int(i)).amplitudes for i in rng.integers(0, 2**n, count)])
    if kind == "werner":
        states, index = qsim.sample_ensemble(qsim.werner_ghz(n, float(rng.uniform())), rng, count)
        return states[np.unique(index)]
    return np.vstack([random_state(n, rng).amplitudes for _ in range(count)])


def _result_or_error(call):
    try:
        return call()
    except ValueError as error:
        return str(error)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 7),
    extra=st.integers(0, 1),
    middle=st.booleans(),
    kinds=st.lists(st.sampled_from(["rotated", "ghz_prime", "basis", "werner", "dense"]), min_size=1, max_size=3),
    repeats=st.booleans(),
    forced=st.sampled_from(["none", "some", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_indexed_readouts_match_gathered_rows_bit_for_bit(k, extra, middle, kinds, repeats, forced, seed):
    # parity_measure and measure_string through an index give the bytes of
    # the same call on the gathered rows ``states[index]``: outcomes,
    # probabilities, verdicts and kept states, or the same ValueError text
    # when a forced uniform draws an impossible branch. The index draws every
    # row, once each or with repeats.
    rng = np.random.default_rng(seed)
    n = k + extra  # qubits past the holders stay unmeasured
    states = np.vstack([_distinct_rows(kind, n, int(rng.integers(1, 4)), rng) for kind in kinds])
    index = rng.permutation(len(states))
    if repeats:
        index = rng.permutation(np.concatenate([index, rng.integers(0, len(states), int(rng.integers(1, 60)))]))
    draws = len(index)

    def uniforms(columns: int) -> np.ndarray:
        u = rng.random((draws, columns))
        if forced == "none":
            return u
        pick = rng.random((draws, columns)) < (0.5 if forced == "some" else 1.0)
        return np.where(pick, rng.choice([-1.0, 2.0], size=(draws, columns)), u)

    holders = tuple(range(k))
    verifier = k // 2 if middle else 0
    drawn = parity_draws(holders, verifier, RngBundle.from_seed(seed % 1000, k), draws)
    drawn = ParityDraws(drawn.bases, uniforms(k), drawn.placeholders)
    indexed = _result_or_error(lambda: parity_measure(states, holders, verifier, drawn, index))
    gathered = _result_or_error(lambda: parity_measure(states[index], holders, verifier, drawn))
    if isinstance(gathered, str):
        assert indexed == gathered
    else:
        assert [field.tobytes() for field in indexed] == [field.tobytes() for field in gathered]

    ops = "".join(rng.choice(list("XYZ"), size=int(rng.integers(1, n + 1))))
    u = uniforms(len(ops))
    indexed = _result_or_error(lambda: qsim.measure_string(states, ops, u, index))
    gathered = _result_or_error(lambda: qsim.measure_string(states[index], ops, u))
    if isinstance(gathered, str):
        assert indexed == gathered
    else:
        bits, rest, rows = indexed
        assert bits.tobytes() == gathered[0].tobytes() and rest[rows].tobytes() == gathered[1].tobytes()


@pytest.mark.parametrize("n", [1, 3, 16])
def test_kernel_and_its_callers_take_zero_rows(n):
    # Zero rows give empty outcomes and probabilities and (0, 2^(n-1)) kept
    # rows, with a Basis, a letter or empty Y bits, uniforms or forced
    # outcomes, and an empty index.
    amps, half = np.empty((0, 2**n), dtype=complex), (0, 2 ** (n - 1))
    draws = (np.empty(0), forcing(np.empty(0, dtype=np.int8)))
    for basis in (Basis.X, "Y", np.empty(0, dtype=np.int8)):
        for drawn in draws:
            outcomes, probs, kept = qsim._measure_kernel(amps, n - 1, basis, drawn)
            assert outcomes.shape == probs.shape == (0,) and kept.shape == half
    for basis in (Basis.Z, "X"):
        for drawn in draws:
            outcomes, probs, kept, rows = qsim._measure_kernel(amps, 0, basis, drawn, np.empty(0, np.intp))
            assert outcomes.shape == probs.shape == rows.shape == (0,) and kept.shape == half
    bits, rest = qsim.measure_string(amps, "ZX"[:n], np.empty((0, min(n, 2))))
    assert bits.shape == (0, min(n, 2)) and rest.shape == (0, 2 ** (n - min(n, 2)))
    # Zero-row parity draws leave every stream where it was.
    bundle = RngBundle.from_seed(3, n)
    before = [s.bit_generator.state for s in bundle.parties]
    test = parity_measure(amps, tuple(range(n)), 0, parity_draws(tuple(range(n)), 0, bundle, 0))
    assert [s.bit_generator.state for s in bundle.parties] == before
    assert test.bases.shape == test.outcomes.shape == (0, n) and test.accepted.shape == test.probability.shape == (0,)


def test_batched_measure_string_matches_per_shot_readout():
    # One ops string for every shot: column i reads one uniform per shot,
    # drawn from rngs[i], shot by shot as a one-shot readout would.
    rng = np.random.default_rng(7)
    states = [random_state(4, rng) for _ in range(6)]
    for ops in ("XYZ", "ZZZ"):
        rngs = [np.random.default_rng(10 + i) for i in range(3)]
        drawn = np.column_stack([r.random(len(states)) for r in rngs])
        bits, rest = qsim.measure_string(np.vstack([s.amplitudes for s in states]), ops, drawn)
        uniforms = [np.random.default_rng(10 + i).random(len(states)) for i in range(3)]
        for shot, s in enumerate(states):
            ref = s.amplitudes
            for column, ch in enumerate(ops):
                ref_bit, ref = single_state_measure(ref, 0, ch, _Fixed(uniforms[column][shot]))
                assert bits[shot, column] == ref_bit
            assert rest[shot].tobytes() == ref.tobytes()


def test_measurement_statistics_match_born():
    rng = np.random.default_rng(5)
    s = qsim.apply_rz(qsim.ghz_state(1), 0, 0.7)
    p0_expected, _ = born_probabilities(s.amplitudes, 0, "X")
    hits = sum(qsim.measure(s, 0, Basis.X, rng)[0] == 0 for _ in range(20000))
    assert hits / 20000 == pytest.approx(p0_expected, abs=4 * np.sqrt(0.25 / 20000))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    qubit_pick=st.integers(0, 4),
    basis=st.sampled_from([Basis.X, Basis.Y, Basis.Z]),
)
def test_born_completeness_and_norm(n, seed, qubit_pick, basis):
    s = random_state(n, np.random.default_rng(seed))
    qubit = qubit_pick % n
    probs = born_probabilities(s.amplitudes, qubit, basis.value)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    for outcome in (0, 1):
        prob, _ = project(s, qubit, basis, outcome)
        assert prob == pytest.approx(probs[outcome], abs=1e-12)
    outcome, post = qsim.measure(s, qubit, basis, np.random.default_rng(seed + 1))
    assert post.n_qubits == n - 1
    assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000), theta=st.floats(-7.0, 7.0))
def test_gates_preserve_norm(n, seed, theta):
    s = random_state(n, np.random.default_rng(seed))
    for qubit in range(n):
        for out in (
            qsim.apply_pauli_z(s, qubit),
            qsim.apply_pauli_x(s, qubit),
            qsim.apply_rz(s, qubit, theta),
        ):
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 6))
def test_ghz_stabilizer_parities_exhaustive(n):
    # every X/Y string with an even Y count yields outcome signs whose
    # product is (-1)^(#Y/2), in every branch
    for bits in even_y_settings(n):
        stack = [(qsim.ghz_state(n), 0, 0)]  # state, next qubit, outcome parity
        while stack:
            state, qubit, parity = stack.pop()
            if qubit == n:
                assert parity == (sum(bits) // 2) % 2
                continue
            basis = Basis.Y if bits[qubit] else Basis.X
            probs = born_probabilities(state.amplitudes, 0, basis.value)
            for outcome in (0, 1):
                if probs[outcome] < 1e-12:
                    continue
                _, post = project(state, 0, basis, outcome)
                stack.append((post, qubit + 1, parity ^ outcome))


def test_reorder_qubits():
    s = qsim.basis_state(3, 0b011)  # q0=0 q1=1 q2=1
    swapped = qsim.reorder_qubits(s, (2, 0, 1))  # new order: q2, q0, q1
    assert np.argmax(np.abs(swapped.amplitudes)) == 0b101


def test_reorder_rejects_non_permutation():
    with pytest.raises(ValueError):
        qsim.reorder_qubits(qsim.ghz_state(2), (0, 0))


# --- density matrices, ensembles, metrics --------------------------------------------


def test_density_from_pure_projector():
    rho = density_from_pure(qsim.ghz_state(2))
    assert np.trace(rho.entries) == pytest.approx(1.0)
    assert np.linalg.matrix_rank(rho.entries, tol=1e-10) == 1


def test_density_uniform_mixture_is_maximally_mixed():
    n = 3
    rho = qsim.density_from_ensemble(qsim.werner_ghz(n, 0.0))
    assert np.allclose(rho.entries, np.eye(2**n) / 2**n)


def test_werner_half_matches_explicit_matrix():
    rho = qsim.density_from_ensemble(qsim.werner_ghz(2, 0.5))
    ghz = qsim.ghz_state(2).amplitudes
    expected = 0.5 * np.outer(ghz, ghz.conj()) + 0.125 * np.eye(4)
    assert np.allclose(rho.entries, expected, atol=1e-12)


def test_werner_fidelity_formula():
    for n, p in [(2, 0.0), (2, 1.0), (3, 0.4), (4, 0.7973333333333333)]:
        rho = qsim.density_from_ensemble(qsim.werner_ghz(n, p))
        ghz = qsim.ghz_state(n).amplitudes
        expected = p + (1 - p) / 2**n
        assert np.vdot(ghz, rho.entries @ ghz).real == pytest.approx(expected, abs=1e-12)


def test_werner_calibration_hits_081():
    p = qsim.werner_p_for_fidelity(4, 0.81)
    assert p == pytest.approx(0.7973333333333333, abs=1e-12)
    rho = qsim.density_from_ensemble(qsim.werner_ghz(4, p))
    ghz = qsim.ghz_state(4).amplitudes
    assert np.vdot(ghz, rho.entries @ ghz).real == pytest.approx(0.81, abs=1e-6)


def test_werner_infeasible_fidelity():
    with pytest.raises(ValueError):
        qsim.werner_p_for_fidelity(4, 0.05)
    with pytest.raises(ValueError):
        qsim.werner_ghz(3, 1.5)


def test_ensemble_validation():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            qsim.werner_ghz(2, p)
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.werner_ghz(2, 0.5, ghz=qsim.ghz_state(3))
    with pytest.raises(ValueError, match="from GHZ in trace distance"):
        qsim.werner_ghz(2, 0.5, ghz=qsim.rotated_ghz(2, 0.3))


def gathered(draws):
    """One amplitude row per draw from ``sample_ensemble``'s (states, index)."""
    states, index = draws
    return states[index]


def test_sample_singleton_ensemble():
    e = qsim.werner_ghz(2, 1.0)
    states, index = qsim.sample_ensemble(e, np.random.default_rng(0), 1)
    (amps,) = states[index]
    assert states_equal(qsim.StateVector(2, amps), qsim.ghz_state(2))


def test_sample_ensemble_frequencies():
    e = qsim.werner_ghz(1, 0.0)
    rng = np.random.default_rng(6)
    draws = 100_000
    ones = sum(abs(gathered(qsim.sample_ensemble(e, rng, 1))[0, 1]) > 0.5 for _ in range(draws))
    assert ones / draws == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("n", range(1, 7))
def test_sample_ensemble_matches_materialized_oracle(n):
    coherent = qsim.ghz_state(n)
    for p, seed in [(0.0, 1), (0.3, 2), (0.8, 3), (0.97, 4)]:
        e = qsim.werner_ghz(n, p)
        weights, vectors = materialized_werner(coherent.amplitudes, p)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10_000):
            expected = sample_materialized(weights, vectors, oracle_rng)
            assert np.array_equal(gathered(qsim.sample_ensemble(e, rng, 1))[0], expected)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.97, 1.0])
def test_batched_sample_ensemble_matches_single_draws(p):
    e = qsim.werner_ghz(3, p)
    batch = gathered(qsim.sample_ensemble(e, np.random.default_rng(5), 500))
    rng = np.random.default_rng(5)
    single = np.vstack([gathered(qsim.sample_ensemble(e, rng, 1)) for _ in range(500)])
    assert np.array_equal(batch, single)


def test_density_from_ensemble_matches_materialized_oracle():
    coherent = qsim.local_correct_ghz_prime(qsim.ghz_prime_state())
    for n in range(1, 6):
        for p in (0.0, 0.25, 0.7973333333333333, 1.0):
            ghz = coherent if n == 4 else qsim.ghz_state(n)
            rho = qsim.density_from_ensemble(qsim.werner_ghz(n, p, ghz=ghz))
            expected = materialized_density(*materialized_werner(ghz.amplitudes, p))
            assert np.max(np.abs(rho.entries - expected)) <= 1e-12


def test_sampled_z_statistics_match_density_diagonal():
    p = 0.6
    ensemble = qsim.werner_ghz(4, p)
    rho = qsim.density_from_ensemble(ensemble)
    rng = np.random.default_rng(7)
    draws = 100_000
    amps = gathered(qsim.sample_ensemble(ensemble, rng, draws))
    bits, _ = qsim.measure_string(amps, "ZZZZ", rng.random((4, draws)).T)
    counts = np.bincount(bits.astype(np.int64) @ (1 << np.arange(3, -1, -1)), minlength=16)
    freqs = counts / draws
    diag = np.diag(rho.entries).real
    stderr = np.sqrt(diag * (1 - diag) / draws)
    assert np.all(np.abs(freqs - diag) <= 4 * stderr + 1e-12)


def test_trace_distance_basics():
    rho = density_from_pure(qsim.ghz_state(3))
    assert qsim.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    a = density_from_pure(qsim.basis_state(2, 0))
    b = density_from_pure(qsim.basis_state(2, 3))
    assert qsim.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_rotated_ghz():
    a = density_from_pure(qsim.ghz_state(3))
    b = density_from_pure(qsim.rotated_ghz(3, np.pi / 2))
    assert qsim.trace_distance(a, b) == pytest.approx(abs(np.sin(np.pi / 4)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_distance_symmetry_triangle_and_pure_formula(seed):
    rng = np.random.default_rng(seed)
    states = [random_state(2, rng) for _ in range(3)]
    rhos = [density_from_pure(s) for s in states]
    d01 = qsim.trace_distance(rhos[0], rhos[1])
    d10 = qsim.trace_distance(rhos[1], rhos[0])
    d12 = qsim.trace_distance(rhos[1], rhos[2])
    d02 = qsim.trace_distance(rhos[0], rhos[2])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-10
    expected = pure_state_trace_distance(states[0].amplitudes, states[1].amplitudes)
    assert d01 == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("n", range(1, 9))
def test_ghz_trace_distance_matches_the_eigensolver(n):
    rng = np.random.default_rng(70 + n)
    ghz = qsim.ghz_state(n)
    coherent = [ghz, qsim.rotated_ghz(n, np.pi), qsim.apply_rz(ghz, 0, 1e-6), qsim.basis_state(n, 0)]
    coherent += [qsim.rotated_ghz(n, rng.uniform(0, 2 * np.pi)) for _ in range(3)]
    coherent += [random_state(n, rng) for _ in range(3)]
    # a global phase leaves c parallel to GHZ
    coherent.append(qsim.StateVector(n, np.exp(0.7j) * ghz.amplitudes))
    ghz_rho = density_from_pure(ghz)
    for c in coherent:
        pure = qsim.trace_distance(density_from_pure(c), ghz_rho)
        assert qsim.ghz_trace_distance(c) == pytest.approx(pure, abs=1e-12)
        for p in (0.0, 1.0, rng.uniform()):
            ensemble = qsim.NoiseEnsemble(c, p)
            mixed = qsim.trace_distance(qsim.density_from_ensemble(ensemble), ghz_rho)
            assert qsim.ghz_trace_distance(ensemble) == pytest.approx(mixed, abs=1e-12)
    assert qsim.ghz_trace_distance(ghz) == 0.0
    assert qsim.ghz_trace_distance(qsim.werner_ghz(n, 0.0)) == pytest.approx(1 - 2.0**-n, abs=1e-15)


def test_dimension_mismatch_errors():
    a = density_from_pure(qsim.ghz_state(2))
    b = density_from_pure(qsim.ghz_state(3))
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.trace_distance(a, b)


def test_density_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        qsim.DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        qsim.DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        qsim.DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_exact_acceptance_oracle_on_ghz():
    # cross-check the test oracle itself: GHZ passes with certainty
    rho = density_from_pure(qsim.ghz_state(4)).entries
    assert exact_verification_acceptance(rho) == pytest.approx(1.0, abs=1e-12)
