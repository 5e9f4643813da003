"""Tests for bound checking, anonymity estimation, key rate, and the
table-top demonstration."""

from __future__ import annotations

import numpy as np
import pytest

from anoncka import qsim
from anoncka.analysis import (
    CONFIG_LABELS,
    CONFIG_SLOTS,
    MEASUREMENT_TABLE,
    VERIFICATION_SETTINGS,
    ame_anonymity_runner,
    bound_checks_to_csv,
    check_theorem1,
    estimate_anonymity_tvd,
    key_rate,
    keygen_success,
    measurement_settings_for,
    notification_anonymity_runner,
    parity_projection,
    reproduce_experiment,
    serialize_view,
    verification_success,
)
from anoncka.netmodel import Network, RoleAssignment, extract_view
from anoncka.protocols import avka
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle

from oracles import exact_verification_acceptance, keygen_success_probability


# --- acceptance bound -----------------------------------------------------------------


def test_check_theorem1_pure_ghz():
    checks = check_theorem1([ghz_state(4)], 400, np.random.default_rng(0))
    (check,) = checks
    assert check.epsilon == pytest.approx(0.0, abs=1e-8)
    assert check.accept_rate == 1.0
    assert check.bound == pytest.approx(1.0, abs=1e-8)
    assert check.satisfied


def test_check_theorem1_rotated_half_pi():
    checks = check_theorem1([qsim.rotated_ghz(4, np.pi / 2)], 5000, np.random.default_rng(1))
    (check,) = checks
    assert check.epsilon == pytest.approx(np.sin(np.pi / 4), abs=1e-10)
    assert check.bound == pytest.approx(0.75, abs=1e-10)
    assert check.accept_rate == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / 5000))
    assert check.satisfied


def test_check_theorem1_werner_uses_eigensolver_epsilon():
    ensemble = qsim.werner_ghz(3, 0.5)
    checks = check_theorem1([ensemble], 4000, np.random.default_rng(2))
    (check,) = checks
    # closed form for the white-noise mixture: eps = (1 - p)(1 - 2^-n)
    assert check.epsilon == pytest.approx(0.5 * (1 - 1 / 8), abs=1e-10)
    oracle = exact_verification_acceptance(qsim.density_from_ensemble(ensemble).entries)
    assert check.accept_rate == pytest.approx(oracle, abs=4 * check.stderr + 1e-9)
    assert check.satisfied


def test_check_theorem1_computational_basis_states():
    # |0000> and |0101>: overlap with GHZ is 1/2 and 0, eps sqrt(1/2) and 1
    checks = check_theorem1(
        [qsim.basis_state(4, 0), qsim.basis_state(4, 0b0101)], 3000, np.random.default_rng(3)
    )
    assert checks[0].epsilon == pytest.approx(np.sqrt(0.5), abs=1e-10)
    assert checks[1].epsilon == pytest.approx(1.0, abs=1e-10)
    assert all(c.satisfied for c in checks)
    assert checks[0].accept_rate == pytest.approx(0.5, abs=4 * np.sqrt(0.25 / 3000))


def test_check_theorem1_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        check_theorem1([ghz_state(3), ghz_state(4)], 10, np.random.default_rng(0))


@pytest.mark.parametrize("k", [3, 4])
def test_batched_check_theorem1_matches_exact_acceptance(k):
    family = [qsim.rotated_ghz(k, theta) for theta in (0.4, 1.3, 2.5)]
    family += [qsim.werner_ghz(k, p) for p in (0.9, 0.45)]
    trials = 6000
    checks = check_theorem1(family, trials, np.random.default_rng(20 + k))
    for entry, check in zip(family, checks):
        if isinstance(entry, qsim.NoiseEnsemble):
            rho = qsim.density_from_ensemble(entry).entries
        else:
            rho = qsim.density_from_pure(entry).entries
        exact = exact_verification_acceptance(rho)
        assert check.accept_rate == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / trials))


def test_check_theorem1_across_many_batches_at_ten_qubits():
    # 2^16 amplitudes per batch is 64 shots at k=10, so 1500 trials take 24 batches.
    theta, trials = 2.0, 1500
    (check,) = check_theorem1([qsim.rotated_ghz(10, theta)], trials, np.random.default_rng(31))
    exact = (1 + np.cos(theta)) / 2
    assert check.epsilon == pytest.approx(np.sin(theta / 2), abs=1e-9)
    assert check.accept_rate == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / trials))


def test_monte_carlo_needs_a_trial():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            check_theorem1([ghz_state(3)], trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials"):
            reproduce_experiment(0.9, trials, np.random.default_rng(0))


def test_bound_checks_csv_shape():
    checks = check_theorem1([ghz_state(3)], 50, np.random.default_rng(3))
    csv = bound_checks_to_csv(checks)
    lines = csv.strip().splitlines()
    assert lines[0] == "epsilon,accept_rate,stderr,bound,satisfied"
    assert len(lines) == 2
    assert bound_checks_to_csv([]).strip() == "epsilon,accept_rate,stderr,bound,satisfied"


# --- anonymity ------------------------------------------------------------------------


def test_serialize_view_is_canonical():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    bundle = RngBundle.from_seed(4, 4)
    net = Network(4, bundle.network)
    ame_anonymity_runner()(roles, net, bundle)
    view = extract_view(net.transcript, frozenset({3}), 4)
    text = serialize_view(view)
    assert text.count(";") == len(view.visible_entries) - 1
    # stable under shuffling of the entry list
    shuffled = view.__class__(view.coalition, tuple(reversed(view.visible_entries)))
    assert serialize_view(shuffled) == text
    proj = parity_projection(view)
    assert proj.startswith("ame:announce=")


def test_tvd_identical_hypotheses_consistent_with_zero():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    est = estimate_anonymity_tvd(
        ame_anonymity_runner(), roles, roles, frozenset({3}), 2000, np.random.default_rng(5)
    )
    assert est.tvd < 4 * est.stderr
    assert not est.projected
    assert est.guessing_bound >= 1 / 3


def test_tvd_ame_swapped_roles_indistinguishable():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0, 2}))
    est = estimate_anonymity_tvd(
        ame_anonymity_runner(), hyp_a, hyp_b, frozenset({3}), 4000, np.random.default_rng(6)
    )
    assert est.tvd < 4 * est.stderr


def test_tvd_notification_receiver_swap_projected():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=0, receivers=frozenset({2}))
    est = estimate_anonymity_tvd(
        notification_anonymity_runner(), hyp_a, hyp_b, frozenset({3}), 2000, np.random.default_rng(7)
    )
    assert est.projected  # raw notification views are almost surely distinct
    assert est.tvd < 4 * est.stderr


def test_tvd_identical_hypotheses_repeated_experiments():
    # the null-calibrated estimate stays below 4 standard errors in at least
    # 95 of 100 repetitions
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    rng = np.random.default_rng(42)
    passes = sum(
        est.tvd < 4 * est.stderr
        for est in (
            estimate_anonymity_tvd(ame_anonymity_runner(), roles, roles, frozenset({3}), 400, rng)
            for _ in range(100)
        )
    )
    assert passes >= 95


def test_tvd_detects_a_leaky_protocol():
    # sanity check that the estimator is not blind: leak Alice's identity
    def leaky(roles, net, rng):
        net.broadcast_round({roles.alice: "1"}, "leak")

    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0}))
    est = estimate_anonymity_tvd(leaky, hyp_a, hyp_b, frozenset({3}), 500, np.random.default_rng(8))
    assert est.tvd > 0.9
    assert est.guessing_bound == 1.0


def test_tvd_validation_errors():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="receiver count"):
        estimate_anonymity_tvd(ame_anonymity_runner(), hyp_a, hyp_b, frozenset({3}), 10, rng)
    hyp_c = RoleAssignment(n=5, alice=0, receivers=frozenset({1}))
    with pytest.raises(ValueError, match="network size"):
        estimate_anonymity_tvd(ame_anonymity_runner(), hyp_a, hyp_c, frozenset({3}), 10, rng)
    with pytest.raises(ValueError, match="Alice"):
        estimate_anonymity_tvd(ame_anonymity_runner(), hyp_a, hyp_a, frozenset({0}), 10, rng)
    with pytest.raises(ValueError, match="corruption"):
        estimate_anonymity_tvd(ame_anonymity_runner(), hyp_a, hyp_a, frozenset({1, 2, 3}), 10, rng)


# --- key rate -------------------------------------------------------------------------


def run_avka(seed: int, num_states: int, denom: int):
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    bundle = RngBundle.from_seed(seed, 4)
    net = Network(4, bundle.network)
    return avka(roles, num_states, denom, lambda: ghz_state(4), net, bundle)


def test_key_rate_denominator_one_exact():
    results = [run_avka(seed, 25, 1) for seed in range(3)]
    report = key_rate(results, 25, 1)
    assert report.empirical_rate == 25.0
    assert report.expected == 25.0
    assert report.tolerance == 0.0
    assert report.within_ci


def test_key_rate_small_probability():
    results = [run_avka(seed, 10, 1000) for seed in range(40)]
    report = key_rate(results, 10, 1000)
    assert report.expected == pytest.approx(0.01)
    assert report.empirical_rate <= 1.0


def test_key_rate_requires_results():
    with pytest.raises(ValueError):
        key_rate([], 10, 2)


# --- measurement table ----------------------------------------------------------------


def test_table_lookup_examples():
    assert measurement_settings_for("AB1B2P4", "keygen") == "ZZZX"
    assert measurement_settings_for("AP2B1B2", (0, 1, 1)) == "XXYY"
    assert measurement_settings_for("AB1P3B2", (1, 1, 0)) == "YYXX"


def test_table_lookup_errors():
    with pytest.raises(ValueError, match="unknown configuration"):
        measurement_settings_for("nope", "keygen")
    with pytest.raises(ValueError, match="post-reset"):
        measurement_settings_for("AB1B2P4", (1, 0, 0))


def test_table_matches_slot_derivation():
    # re-derive all 15 cells from the slot layout: participants carry the
    # setting's X/Y bits (keygen: Z), the bystander always measures X
    for label in CONFIG_LABELS:
        slots = CONFIG_SLOTS[label]
        derived = ["?"] * 4
        derived[slots["alice"]] = "Z"
        for bob in slots["bobs"]:
            derived[bob] = "Z"
        derived[slots["bystander"]] = "X"
        assert "".join(derived) == MEASUREMENT_TABLE[label]["keygen"]
        for setting in VERIFICATION_SETTINGS:
            derived = ["?"] * 4
            participants = (slots["alice"], *slots["bobs"])
            for position, bit in zip(participants, setting):
                derived[position] = "Y" if bit else "X"
            derived[slots["bystander"]] = "X"
            assert "".join(derived) == MEASUREMENT_TABLE[label][setting]


def test_table_invariants():
    for label in CONFIG_LABELS:
        for setting in VERIFICATION_SETTINGS:
            assert MEASUREMENT_TABLE[label][setting].count("Y") % 2 == 0
        keygen = MEASUREMENT_TABLE[label]["keygen"]
        slots = CONFIG_SLOTS[label]
        assert keygen[slots["bystander"]] == "X"
        assert all(keygen[p] == "Z" for p in (slots["alice"], *slots["bobs"]))


# --- demonstration --------------------------------------------------------------------


def test_experiment_perfect_fidelity_all_ones():
    report = reproduce_experiment(1.0, 300, np.random.default_rng(10))
    assert report.avg_keygen == 1.0
    assert report.avg_verification == 1.0
    for config in report.configurations:
        assert config.keygen_rate == 1.0
        assert config.per_setting == (1.0, 1.0, 1.0, 1.0)


def test_experiment_ghz_prime_route_matches_ideal():
    report = reproduce_experiment(1.0, 300, np.random.default_rng(11), from_ghz_prime=True)
    assert report.avg_keygen == 1.0
    assert report.avg_verification == 1.0


def test_experiment_rates_match_closed_form_at_081():
    # white-noise mixture: p_k = p + (1-p)/4 and p_v = p + (1-p)/2
    report = reproduce_experiment(0.81, 4000, np.random.default_rng(12))
    weight = report.mixture_weight
    assert weight == pytest.approx(0.7973333333333333, abs=1e-12)
    p_k_expected = weight + (1 - weight) / 4
    p_v_expected = weight + (1 - weight) / 2
    assert report.avg_keygen == pytest.approx(p_k_expected, abs=5 * report.avg_keygen_stderr)
    assert report.avg_verification == pytest.approx(p_v_expected, abs=5 * report.avg_verification_stderr)
    payload = report.to_dict()
    assert payload["reference_p_k"] == 0.92974
    assert payload["reference_p_v"] == 0.87178
    assert payload["gap_p_k"] == pytest.approx(report.avg_keygen - 0.92974)


def test_experiment_keygen_rate_matches_diagonal_oracle():
    fid = 0.7
    weight = qsim.werner_p_for_fidelity(4, fid)
    rho = qsim.density_from_ensemble(qsim.werner_ghz(4, weight)).entries
    report = reproduce_experiment(fid, 4000, np.random.default_rng(13))
    for config in report.configurations:
        slots = CONFIG_SLOTS[config.label]
        exact = keygen_success_probability(rho, (slots["alice"], *slots["bobs"]))
        assert config.keygen_rate == pytest.approx(exact, abs=5 * config.keygen_stderr)


def test_experiment_verification_strictly_decreasing_in_noise():
    rates = []
    for fid in np.arange(1.0, 0.45, -0.1):
        report = reproduce_experiment(float(fid), 2500, np.random.default_rng(14))
        rates.append(report.avg_verification)
    for previous, current in zip(rates, rates[1:]):
        assert current < previous


def test_experiment_infeasible_fidelity():
    with pytest.raises(ValueError):
        reproduce_experiment(0.05, 10, np.random.default_rng(0))


def test_success_predicates():
    assert keygen_success((0, 0, 0, 1), "AB1B2P4")
    assert not keygen_success((0, 1, 0, 0), "AB1B2P4")
    assert keygen_success((0, 1, 0, 0), "AP2B1B2")  # bobs at slots 2, 3
    assert verification_success((0, 0, 0, 0), "XXXX")
    assert not verification_success((1, 0, 0, 0), "XXXX")
    assert verification_success((1, 0, 0, 0), "XYYX")  # odd parity, Y count 2


def test_experiment_csv_layout():
    report = reproduce_experiment(0.9, 100, np.random.default_rng(15))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "config,p_k,p_k_stderr,p_v,p_v_stderr"
    assert len(lines) == 1 + 3 + 2  # header, configs, average, reference
    assert lines[-1].startswith("reference,")
