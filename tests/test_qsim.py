"""Unit and property tests for the statevector core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncka import qsim
from anoncka.qsim import Basis

from oracles import (
    born_probabilities,
    even_y_settings,
    exact_verification_acceptance,
    materialized_density,
    materialized_werner,
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
    assert qsim.fidelity_pure(qsim.ghz_prime_state(), qsim.ghz_state(4)) == 0.0


def test_local_correction_maps_prime_to_ghz4():
    corrected = qsim.local_correct_ghz_prime(qsim.ghz_prime_state())
    assert qsim.fidelity_pure(corrected, qsim.ghz_state(4)) == pytest.approx(1.0, abs=1e-12)


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
        prob, post = qsim.project(s, 2, Basis.X, outcome)
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
        prob, post = qsim.project(qsim.ghz_state(2), 0, Basis.Z, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.amplitudes, qsim.basis_state(1, outcome).amplitudes)


def test_x_measure_ghz3_branches():
    for outcome in (0, 1):
        prob, post = qsim.project(qsim.ghz_state(3), 0, Basis.X, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.array([SQRT_HALF, 0, 0, (-1) ** outcome * SQRT_HALF])
        assert np.allclose(post.amplitudes, expected, atol=1e-12)


def test_measure_invalid_qubit():
    with pytest.raises(IndexError):
        qsim.measure(qsim.ghz_state(2), 3, Basis.Z, np.random.default_rng(0))


def test_project_zero_probability_branch_rejected():
    with pytest.raises(ValueError, match="probability"):
        qsim.project(qsim.basis_state(1, 0), 0, Basis.Z, 1)


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
    bits, rest = qsim.measure_string(s, "XYZX", [rng] * 4)
    ref = s.amplitudes
    for ch, bit in zip("XYZX", bits):
        ref_bit, ref = single_state_measure(ref, 0, ch, ref_rng)
        assert bit == ref_bit
    assert rest.amplitudes.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_forced_branches_match_born_oracle(n):
    rng = np.random.default_rng(100 + n)
    shots = 24
    amps = np.vstack([random_state(n, rng).amplitudes for _ in range(shots)])
    bases = rng.choice(["X", "Y", "Z"], size=shots)
    forced = rng.integers(0, 2, size=shots)
    qubit = int(rng.integers(0, n))
    outcomes, probs, post = qsim._measure_kernel(amps, qubit, bases, outcomes=forced)
    assert np.array_equal(outcomes, forced)
    assert post.shape == (shots, 2 ** (n - 1))
    for row in range(shots):
        expected = born_probabilities(amps[row], qubit, bases[row])[forced[row]]
        assert probs[row] == pytest.approx(expected, abs=1e-12)
        one_prob, one_post = qsim.project(qsim.StateVector(n, amps[row]), qubit, Basis(bases[row]), int(forced[row]))
        assert one_prob == pytest.approx(probs[row], abs=1e-15)
        assert np.allclose(one_post.amplitudes, post[row], atol=1e-15)
    # sampled: outcome 0 exactly when the row's uniform is below its p0
    u = rng.random(shots)
    sampled, _, _ = qsim._measure_kernel(amps, qubit, bases, u=u)
    p0 = np.array([born_probabilities(amps[row], qubit, bases[row])[0] for row in range(shots)])
    assert np.array_equal(sampled == 0, u < p0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_batched_kernel_rejects_impossible_branches_and_bad_rows():
    amps = np.vstack([qsim.ghz_state(2).amplitudes, qsim.basis_state(2, 0).amplitudes])
    with pytest.raises(ValueError, match="probability"):
        qsim._measure_kernel(amps, 0, "Z", outcomes=np.array([0, 1]))
    # a sampled outcome whose branch has probability 1e-13
    tiny = np.vstack([amps[0], [np.sqrt(1 - 1e-13), np.sqrt(1e-13), 0, 0]])
    with pytest.raises(ValueError, match="probability"):
        qsim._measure_kernel(tiny, 1, "Z", u=np.array([0.5, 1 - 1e-14]))
    with pytest.raises(ValueError, match="outcome must be 0 or 1"):
        qsim._measure_kernel(amps, 0, "Z", outcomes=np.array([0, 2]))
    with pytest.raises(ValueError, match="X, Y or Z"):
        qsim._measure_kernel(amps, 0, np.array(["X", "Q"]), outcomes=np.array([0, 0]))
    bad = amps.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="state norm nan"):
        qsim._measure_kernel(bad, 0, "X", u=np.array([0.5, 0.5]))


class _Fixed:
    """A generator stand-in whose one draw is a given uniform."""

    def __init__(self, u: float):
        self.u = u

    def random(self):
        return self.u


def test_batched_measure_string_matches_per_shot_readout():
    # One ops string for all shots or a per-shot basis array: column i draws
    # one uniform per shot from rngs[i], shot by shot as a one-shot readout would.
    rng = np.random.default_rng(7)
    states = [random_state(4, rng) for _ in range(6)]
    ops = np.array([list(rng.choice(["X", "Y", "Z"], size=3)) for _ in states])
    for batch_ops in ("XYZ", ops):
        rngs = [np.random.default_rng(10 + i) for i in range(3)]
        bits, rest = qsim.measure_string(np.vstack([s.amplitudes for s in states]), batch_ops, rngs)
        uniforms = [np.random.default_rng(10 + i).random(len(states)) for i in range(3)]
        for shot, s in enumerate(states):
            row_ops = batch_ops if isinstance(batch_ops, str) else "".join(batch_ops[shot])
            ref = s.amplitudes
            for column, ch in enumerate(row_ops):
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
        prob, _ = qsim.project(s, qubit, basis, outcome)
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
                _, post = qsim.project(state, 0, basis, outcome)
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
    rho = qsim.density_from_pure(qsim.ghz_state(2))
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


def test_sample_singleton_ensemble():
    e = qsim.werner_ghz(2, 1.0)
    s = qsim.sample_ensemble(e, np.random.default_rng(0))
    assert states_equal(s, qsim.ghz_state(2))


def test_sample_ensemble_frequencies():
    e = qsim.werner_ghz(1, 0.0)
    rng = np.random.default_rng(6)
    draws = 100_000
    ones = sum(abs(qsim.sample_ensemble(e, rng).amplitudes[1]) > 0.5 for _ in range(draws))
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
            assert np.array_equal(qsim.sample_ensemble(e, rng).amplitudes, expected)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.97, 1.0])
def test_batched_sample_ensemble_matches_single_draws(p):
    e = qsim.werner_ghz(3, p)
    batch = qsim.sample_ensemble(e, np.random.default_rng(5), 500)
    rng = np.random.default_rng(5)
    single = np.vstack([qsim.sample_ensemble(e, rng).amplitudes for _ in range(500)])
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
    counts = np.zeros(16)
    for _ in range(draws):
        state = qsim.sample_ensemble(ensemble, rng)
        bits = []
        for _ in range(4):
            out, state = qsim.measure(state, 0, Basis.Z, rng)
            bits.append(out)
        counts[int("".join(map(str, bits)), 2)] += 1
    freqs = counts / draws
    diag = np.diag(rho.entries).real
    stderr = np.sqrt(diag * (1 - diag) / draws)
    assert np.all(np.abs(freqs - diag) <= 4 * stderr + 1e-12)


def test_trace_distance_basics():
    rho = qsim.density_from_pure(qsim.ghz_state(3))
    assert qsim.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    a = qsim.density_from_pure(qsim.basis_state(2, 0))
    b = qsim.density_from_pure(qsim.basis_state(2, 3))
    assert qsim.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_rotated_ghz():
    a = qsim.density_from_pure(qsim.ghz_state(3))
    b = qsim.density_from_pure(qsim.rotated_ghz(3, np.pi / 2))
    assert qsim.trace_distance(a, b) == pytest.approx(abs(np.sin(np.pi / 4)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_distance_symmetry_triangle_and_pure_formula(seed):
    rng = np.random.default_rng(seed)
    states = [random_state(2, rng) for _ in range(3)]
    rhos = [qsim.density_from_pure(s) for s in states]
    d01 = qsim.trace_distance(rhos[0], rhos[1])
    d10 = qsim.trace_distance(rhos[1], rhos[0])
    d12 = qsim.trace_distance(rhos[1], rhos[2])
    d02 = qsim.trace_distance(rhos[0], rhos[2])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-10
    expected = pure_state_trace_distance(states[0].amplitudes, states[1].amplitudes)
    assert d01 == pytest.approx(expected, abs=1e-8)


def test_dimension_mismatch_errors():
    a = qsim.density_from_pure(qsim.ghz_state(2))
    b = qsim.density_from_pure(qsim.ghz_state(3))
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
    rho = qsim.density_from_pure(qsim.ghz_state(4)).entries
    assert exact_verification_acceptance(rho) == pytest.approx(1.0, abs=1e-12)
