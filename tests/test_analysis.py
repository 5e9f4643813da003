"""Tests for bound checking, anonymity estimation, key rate, and the
table-top demonstration."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncka import analysis, qsim
from anoncka.analysis import (
    CONFIG_LABELS,
    CONFIG_SLOTS,
    MEASUREMENT_TABLE,
    VERIFICATION_SETTINGS,
    ame_views,
    bound_checks_to_csv,
    check_theorem1,
    estimate_anonymity_tvd,
    keygen_success,
    measurement_settings_for,
    notification_views,
    parity_projection,
    reproduce_experiment,
    serialize_view,
    verification_success,
)
from anoncka.netmodel import Network, RoleAssignment, extract_view
from anoncka import protocols
from anoncka.protocols import ame, avka, notification
from anoncka.qsim import ghz_state
from anoncka.rng import RngBundle

from oracles import (
    ame_view_keys,
    anonymity_tvd_by_permutation,
    density_from_pure,
    exact_verification_acceptance,
    experiment_hits_by_batch,
    key_rate,
    keygen_success_probability,
    notification_view_keys,
    theorem1_state_by_state,
)


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
            rho = density_from_pure(entry).entries
        exact = exact_verification_acceptance(rho)
        assert check.accept_rate == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / trials))


def test_check_theorem1_across_many_batches_at_ten_qubits():
    # 2^20 bytes per batch is 64 shots at k=10, so 1500 trials take 24 batches.
    theta, trials = 2.0, 1500
    (check,) = check_theorem1([qsim.rotated_ghz(10, theta)], trials, np.random.default_rng(31))
    exact = (1 + np.cos(theta)) / 2
    assert check.epsilon == pytest.approx(np.sin(theta / 2), abs=1e-9)
    assert check.accept_rate == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / trials))


def _family(k: int, thetas, ps):
    return [qsim.rotated_ghz(k, t) for t in thetas] + [qsim.werner_ghz(k, p) for p in ps]


def _streams(bundle: RngBundle) -> list:
    return [g.bit_generator.state for g in (*bundle.parties, bundle.network, bundle.coin, bundle.source, bundle.adversary)]


@pytest.mark.parametrize(
    "k, trials, family",
    [
        (2, 700, _family(2, (0.0, 0.7, 2.0, np.pi), (1.0, 0.9, 0.4))),  # many states per measurement
        (4, 300, _family(4, (0.3, 1.1, 2.6), (0.8, 0.3))),
        (10, 150, _family(10, (0.0, 1.0, 2.5), (0.9, 0.5))),  # batches of 64, 64 and 22 per state
        (10, 20, _family(10, (0.2, 0.9, 1.7, 2.4), (0.7, 0.2))),  # remainders of three states merge
        (3, 1, _family(3, (0.0, 1.2, 2.2), (0.6, 0.1))),  # one shot: scalar coins
    ],
    ids=["k2-many-states", "k4", "k10-split", "k10-merge", "one-shot"],
)
def test_check_theorem1_matches_one_parity_round_per_state_bit_for_bit(monkeypatch, k, trials, family):
    bundles = []
    spawn = RngBundle.from_generator
    monkeypatch.setattr(RngBundle, "from_generator", staticmethod(lambda rng, n: bundles.append(spawn(rng, n)) or bundles[-1]))
    checks = check_theorem1(family, trials, np.random.default_rng(70 + k))
    reference = spawn(np.random.default_rng(70 + k), k)
    assert checks == theorem1_state_by_state(family, trials, reference)
    assert _streams(bundles[0]) == _streams(reference)


@st.composite
def theorem1_runs(draw):
    """A ``check_theorem1`` run: k in 2..6, one to four states (a rotated
    GHZ state, a basis state or a Werner mixture with p in [0, 1], ends
    included), trials in 1..200, a batch size from 1 byte to 2^20 (half the
    time a few shots per batch, so that queues join batches) and a seed."""
    k = draw(st.integers(2, 6))
    state = st.one_of(
        st.floats(0.0, 2 * np.pi).map(lambda theta: qsim.rotated_ghz(k, theta)),
        st.integers(0, 2**k - 1).map(lambda i: qsim.basis_state(k, i)),
        (st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])).map(lambda p: qsim.werner_ghz(k, p)),
    )
    few_shots = st.integers(1, 8).map(lambda rows: rows * 16 * 2**k)
    return (
        draw(st.lists(state, min_size=1, max_size=4)),
        draw(st.integers(1, 200)),
        draw(st.one_of(few_shots, st.integers(0, 20).map(lambda e: 2**e), st.integers(1, 2**20))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(theorem1_runs())
def test_check_theorem1_matches_the_state_by_state_reference_on_any_family(run):
    # Whatever the family and the batch size, queued shots make the checks
    # and leave the streams of one parity round per state and batch.
    family, trials, batch_bytes, seed = run
    bundles = []
    spawn = RngBundle.from_generator
    capture = staticmethod(lambda rng, n: bundles.append(spawn(rng, n)) or bundles[-1])
    with mock.patch.object(protocols, "_BATCH_BYTES", batch_bytes), mock.patch.object(RngBundle, "from_generator", capture):
        checks = check_theorem1(family, trials, np.random.default_rng(seed))
        reference = spawn(np.random.default_rng(seed), family[0].n_qubits)
        expected = theorem1_state_by_state(family, trials, reference)
    assert checks == expected
    assert _streams(bundles[0]) == _streams(reference)


def test_all_accepting_small_angle_satisfies_the_bound():
    # eps = sin(0.01) and P(accept) = 0.99995: every one of 100 shots accepts,
    # a rate above the bound but well within four standard errors of it.
    (check,) = check_theorem1([qsim.rotated_ghz(4, 0.02)], 100, np.random.default_rng(7))
    assert check.accept_rate == 1.0 and check.stderr == 0.0
    assert check.epsilon > 0 and check.accept_rate > check.bound
    assert check.satisfied


def test_all_accepting_run_above_a_low_bound_is_a_violation(monkeypatch):
    # GHZ accepts every shot; claimed at eps 0.9, its bound is 0.595.
    monkeypatch.setattr(analysis, "ghz_trace_distance", lambda entry: 0.9)
    (check,) = check_theorem1([ghz_state(4)], 200, np.random.default_rng(8))
    assert check.accept_rate == 1.0 and check.bound == pytest.approx(0.595)
    assert not check.satisfied


def test_check_theorem1_queue_stays_within_its_row_budget():
    # At k=12 a batch is 16 shots of 64 KB, about 1 MB. Ten Werner states of
    # 64 shots would hold 40 MB if every drawn batch queued before measuring.
    family = [qsim.werner_ghz(12, p) for p in np.linspace(0.1, 0.9, 10)]
    tracemalloc.start()
    try:
        checks = check_theorem1(family, 64, np.random.default_rng(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checks) == 10
    assert peak < 6 * 2**20


def test_check_theorem1_reads_its_states_through_the_index():
    # At k=10 a queue is 64 shots of 16 KB rows of one state. Gathered one
    # row per shot, a queue holds 1 MB; read through the index, each column
    # keeps a few rows per (state, basis bit) pair.
    family = [qsim.rotated_ghz(10, 0.3)]
    check_theorem1(family, 10, np.random.default_rng(5))  # lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        check_theorem1(family, 1000, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    ame(ghz_state(4), roles, net, bundle)
    view = extract_view(net.transcript, frozenset({3}), 4)
    text = serialize_view(view)
    assert text.count(";") == len(view.visible_entries) - 1
    # stable under shuffling of the entry list
    shuffled = view.__class__(view.coalition, tuple(reversed(view.visible_entries)))
    assert serialize_view(shuffled) == text
    proj = parity_projection(view)
    assert proj.startswith("ame:announce=")


def per_party_views(protocol, roles, coalition, trials, bundle):
    """The coalition's view of ``trials`` per-party runs on one bundle."""
    views = []
    for _ in range(trials):
        net = Network(roles.n, bundle.network)
        protocol(roles, net, bundle)
        views.append(extract_view(net.transcript, coalition, roles.n))
    return views


def assert_same_partition(keys, texts):
    """Two runs share a key exactly when their serialized views agree."""
    pairs = set(zip(keys, texts))
    assert len(pairs) == len(set(keys)) == len(set(texts))


def coalitions(n, alice):
    """Coalitions of size 0, 1 and n - 2 that leave Alice out."""
    others = [p for p in range(n) if p != alice]
    return [frozenset(), frozenset(others[-1:]), frozenset(others[1:])]


AME_ROLES = [
    RoleAssignment(n=4, alice=1, receivers=frozenset({0, 3})),
    RoleAssignment(n=5, alice=2, receivers=frozenset({4})),
]


@pytest.mark.parametrize("roles", AME_ROLES, ids=lambda r: f"n{r.n}")
@pytest.mark.parametrize("batch_runs", [None, 7])
def test_ame_view_keys_match_the_per_party_transcript(roles, batch_runs, monkeypatch):
    # batch_runs=7 makes the sampler run in chunks of 7 runs
    if batch_runs is not None:
        monkeypatch.setattr(protocols, "_BATCH_BYTES", batch_runs * 16 * 2**roles.n)
    trials = 300
    for index, coalition in enumerate(coalitions(roles.n, roles.alice)):
        seed = 40 + index
        raw, projected = ame_views(roles, coalition, trials, RngBundle.from_seed(seed, roles.n))
        views = per_party_views(
            lambda r, net, b: ame(ghz_state(r.n), r, net, b), roles, coalition, trials, RngBundle.from_seed(seed, roles.n)
        )
        assert raw.dtype == projected.dtype == np.int64
        assert [int(k) for k in raw] == [ame_view_keys(v, roles.n)[0] for v in views]
        assert [int(k) for k in projected] == [ame_view_keys(v, roles.n)[1] for v in views]
        assert [parity_projection(v) for v in views] == [f"ame:announce={int(k)}" for k in projected]
        assert_same_partition(raw.tolist(), [serialize_view(v) for v in views])


NOTIFICATION_ROLES = [
    RoleAssignment(n=4, alice=0, receivers=frozenset({2})),
    RoleAssignment(n=6, alice=3, receivers=frozenset({0, 5})),
    RoleAssignment(n=5, alice=1, receivers=frozenset({0, 4})),
]


def assert_notification_keys_match(roles, coalition, raw, projected, views):
    expected = [notification_view_keys(v, parity_projection(v), roles.n) for v in views]
    assert [k.tobytes() for k in raw] == [e[0] for e in expected]
    assert [k.tobytes() for k in projected] == [e[1] for e in expected]
    assert_same_partition([k.tobytes() for k in raw], [serialize_view(v) for v in views])
    assert_same_partition([k.tobytes() for k in projected], [parity_projection(v) for v in views])


@pytest.mark.parametrize("roles", NOTIFICATION_ROLES, ids=lambda r: f"n{r.n}")
@pytest.mark.parametrize("batch_runs", [None, 3])
def test_notification_view_keys_match_the_per_party_transcript(roles, batch_runs, monkeypatch):
    # at any n, a dealer's t tables in one call equal its tables of t one-run calls
    if batch_runs is not None:
        monkeypatch.setattr(protocols, "_BATCH_BYTES", batch_runs * roles.n**3)
    trials = 40
    for index, coalition in enumerate(coalitions(roles.n, roles.alice)):
        seed = 50 + index
        raw, projected = notification_views(roles, coalition, trials, RngBundle.from_seed(seed, roles.n))
        views = per_party_views(notification, roles, coalition, trials, RngBundle.from_seed(seed, roles.n))
        assert_notification_keys_match(roles, coalition, raw, projected, views)


def test_numpy_draws_split_anywhere_as_the_rechunked_samplers_rely_on():
    # ame_views sizes its chunks by bytes per run, so a chunk boundary may
    # fall anywhere in a run of the network stream's permutations, and the
    # avka reference draws the public coins batch by batch where a queue
    # draws them at once: a draw split in two equals the joined draw and
    # leaves the stream where the joined draw does.
    n = 5
    draws = {
        "random": lambda g, rows: g.random(rows),
        "permuted": lambda g, rows: g.permuted(np.tile(np.arange(n), (rows, 1)), axis=1),
    }
    sizes = (1, 3, 5, 7, 11, 16)
    for (name, draw), a, b in itertools.product(draws.items(), sizes, sizes):
        split, joined = np.random.default_rng(a * 100 + b), np.random.default_rng(a * 100 + b)
        parts = np.concatenate([draw(split, a), draw(split, b)])
        assert np.array_equal(parts, draw(joined, a + b)), (name, a, b)
        assert split.bit_generator.state == joined.bit_generator.state, (name, a, b)
    # permuted over stacked rows is one permutation per row, row by row
    stacked, by_row = np.random.default_rng(9), np.random.default_rng(9)
    rows = draws["permuted"](stacked, 16)
    assert np.array_equal(rows, np.stack([by_row.permuted(np.arange(n)) for _ in range(16)]))
    assert stacked.bit_generator.state == by_row.bit_generator.state


def test_tvd_identical_hypotheses_consistent_with_zero():
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    est = estimate_anonymity_tvd(
        ame_views, roles, roles, frozenset({3}), 2000, np.random.default_rng(5)
    )
    assert est.tvd < 4 * est.stderr
    assert not est.projected
    assert est.guessing_bound >= 1 / 3


def test_tvd_ame_swapped_roles_indistinguishable():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0, 2}))
    est = estimate_anonymity_tvd(
        ame_views, hyp_a, hyp_b, frozenset({3}), 4000, np.random.default_rng(6)
    )
    assert est.tvd < 4 * est.stderr


def test_tvd_notification_receiver_swap_projected():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=0, receivers=frozenset({2}))
    est = estimate_anonymity_tvd(
        notification_views, hyp_a, hyp_b, frozenset({3}), 2000, np.random.default_rng(7)
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
            estimate_anonymity_tvd(ame_views, roles, roles, frozenset({3}), 400, rng)
            for _ in range(100)
        )
    )
    assert passes >= 95


def test_tvd_detects_a_leaky_protocol():
    # sanity check that the estimator is not blind: leak Alice's identity
    def leaky(roles, coalition, trials, bundle):
        keys = np.full(trials, roles.alice)
        return keys, keys

    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0}))
    est = estimate_anonymity_tvd(leaky, hyp_a, hyp_b, frozenset({3}), 500, np.random.default_rng(8))
    assert est.tvd > 0.9
    assert est.guessing_bound == 1.0


def test_tvd_detects_a_leak_through_the_projection():
    # every raw view is distinct, so the estimate falls back to the
    # projection, which carries Alice's identity
    def leaky(roles, coalition, trials, bundle):
        return bundle.party(0).integers(0, 2**62, size=trials), np.full(trials, roles.alice)

    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0}))
    est = estimate_anonymity_tvd(leaky, hyp_a, hyp_b, frozenset({3}), 500, np.random.default_rng(8))
    assert est.projected
    assert est.tvd > 0.9
    assert est.guessing_bound == 1.0


def test_tvd_validation_errors():
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="receiver count"):
        estimate_anonymity_tvd(ame_views, hyp_a, hyp_b, frozenset({3}), 10, rng)
    hyp_c = RoleAssignment(n=5, alice=0, receivers=frozenset({1}))
    with pytest.raises(ValueError, match="network size"):
        estimate_anonymity_tvd(ame_views, hyp_a, hyp_c, frozenset({3}), 10, rng)
    with pytest.raises(ValueError, match="Alice"):
        estimate_anonymity_tvd(ame_views, hyp_a, hyp_a, frozenset({0}), 10, rng)
    with pytest.raises(ValueError, match="corruption"):
        estimate_anonymity_tvd(ame_views, hyp_a, hyp_a, frozenset({1, 2, 3}), 10, rng)


def test_tvd_null_matches_one_permutation_call_per_round(monkeypatch):
    # The null shuffles a chunk of rounds' pooled views in one ``permuted``
    # call and histograms it in one ``bincount``. On random keys of any
    # support, raw or projected, with chunks of any number of rounds, every
    # field of the estimate and the generator's final state match one
    # ``permutation`` call and one histogram per round.
    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0}))
    plan = np.random.default_rng(28)
    cases = [int(t) for t in plan.integers(2, 301, size=60)] + [2, 3, 4097, 12345]
    for case, trials in enumerate(cases):
        raw_support, projected_support = (int(plan.choice([1, plan.integers(1, 2 * trials + 1)])) for _ in range(2))

        def sampler(roles, coalition, trials, bundle):
            stream = bundle.party(roles.alice)
            return stream.integers(0, raw_support, size=trials), stream.integers(0, projected_support, size=trials)

        monkeypatch.setattr(protocols, "_BATCH_BYTES", int(plan.integers(1, 40 * 32 * trials)))
        rng, reference_rng = np.random.default_rng(case), np.random.default_rng(case)
        est = estimate_anonymity_tvd(sampler, hyp_a, hyp_b, frozenset({3}), trials, rng)
        reference = anonymity_tvd_by_permutation(sampler, hyp_a, hyp_b, frozenset({3}), trials, reference_rng)
        assert dataclasses.asdict(est) == dataclasses.asdict(reference), (case, trials, raw_support, projected_support)
        assert rng.bit_generator.state == reference_rng.bit_generator.state, case


def test_tvd_null_stays_within_a_few_megabytes_on_distinct_views():
    # 2T distinct views at T = 10,000: every null round histograms 20,000
    # keys, so 32 rounds in one pass would hold about 55 MB; in chunks within
    # ``_BATCH_BYTES`` the estimate peaks near 3 MB.
    def distinct(roles, coalition, trials, bundle):
        keys = np.arange(trials) + roles.alice * trials
        return keys, keys

    hyp_a = RoleAssignment(n=4, alice=0, receivers=frozenset({1}))
    hyp_b = RoleAssignment(n=4, alice=1, receivers=frozenset({0}))
    estimate_anonymity_tvd(distinct, hyp_a, hyp_b, frozenset({3}), 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        est = estimate_anonymity_tvd(distinct, hyp_a, hyp_b, frozenset({3}), 10_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.projected and est.raw_tvd == 1.0
    assert peak < 8 * 2**20


def test_empirical_tvds_are_half_the_fsum_of_the_frequency_differences():
    # Each TVD is summed in whole quanta ulp(1 / trials); it must be the very
    # double that half the ``math.fsum`` of the float differences gives, as a
    # Python float, at trial counts around powers of two and up to 2^21 + 1.
    rng = np.random.default_rng(38)
    for trials in (2, 127, 128, 129, 1023, 1024, 1025, 99991, 10**6, 2**21 + 1):
        rows = 1 if trials > 10**5 else 3
        for support in sorted({1, max(1, min(2 * trials, 4096) // 3), min(2 * trials, 4096)}):
            uniform = rng.integers(0, support, size=(rows, 2 * trials))
            skewed = uniform.copy()
            skewed[:, :trials][rng.random((rows, trials)) < 0.9] = 0
            for views in (uniform, skewed):
                got = analysis._empirical_tvds(views, trials, support)
                counts = [np.bincount(half, minlength=support) / trials for half in views.reshape(-1, trials)]
                want = [0.5 * math.fsum(np.abs(a - b).tolist()) for a, b in zip(counts[0::2], counts[1::2])]
                assert all(type(x) is float for x in got), (trials, support)
                assert [x.hex() for x in got] == [x.hex() for x in want], (trials, support)


# --- key rate -------------------------------------------------------------------------


def run_avka(seed: int, num_states: int, denom: int):
    roles = RoleAssignment(n=4, alice=0, receivers=frozenset({1, 2}))
    bundle = RngBundle.from_seed(seed, 4)
    net = Network(4, bundle.network)
    return avka(roles, num_states, denom, ghz_state(4), net, bundle)


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
    # anything but "keygen" or one of the four settings is a ValueError,
    # never a TypeError from iterating it
    for setting in ((1, 0, 0), 5, None, (0, 1), "XYZ"):
        with pytest.raises(ValueError, match="post-reset"):
            measurement_settings_for("AB1B2P4", setting)


def test_table_matches_the_demonstration_cells():
    # the demonstration's 15 operator strings, written out by hand: the
    # table is derived from CONFIG_SLOTS, so only literal cells can catch a
    # wrong slot layout or a wrong derivation rule
    cells = {
        "AB1B2P4": {"keygen": "ZZZX", (0, 0, 0): "XXXX", (0, 1, 1): "XYYX", (1, 0, 1): "YXYX", (1, 1, 0): "YYXX"},
        "AP2B1B2": {"keygen": "ZXZZ", (0, 0, 0): "XXXX", (0, 1, 1): "XXYY", (1, 0, 1): "YXXY", (1, 1, 0): "YXYX"},
        "AB1P3B2": {"keygen": "ZZXZ", (0, 0, 0): "XXXX", (0, 1, 1): "XYXY", (1, 0, 1): "YXXY", (1, 1, 0): "YYXX"},
    }
    assert MEASUREMENT_TABLE == cells
    assert [list(row) for row in MEASUREMENT_TABLE.values()] == [list(row) for row in cells.values()]
    assert CONFIG_LABELS == tuple(cells)


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


@pytest.mark.parametrize("fidelity", [0.81, 0.5, 1.0])
@pytest.mark.parametrize("from_ghz_prime", [False, True])
@pytest.mark.parametrize("trials, batch_bytes", [(5000, None), (37, 1000)], ids=["two-batches", "many-queues"])
def test_experiment_matches_the_batch_by_batch_reference(monkeypatch, fidelity, from_ghz_prime, trials, batch_bytes):
    # 5000 shots cross the 4096-shot batch; 1000 bytes make batches of 3
    # shots. Each batch draws its states, then its uniforms, and the rng ends
    # where the batch-by-batch reference leaves it.
    if batch_bytes is not None:
        monkeypatch.setattr(protocols, "_BATCH_BYTES", batch_bytes)
    rng, reference = np.random.default_rng(16), np.random.default_rng(16)
    report = reproduce_experiment(fidelity, trials, rng, from_ghz_prime=from_ghz_prime)
    counts = experiment_hits_by_batch(fidelity, trials, reference, from_ghz_prime=from_ghz_prime)
    for stats, (keygen, verification) in zip(report.configurations, counts, strict=True):
        assert stats.keygen_rate == keygen / trials
        assert stats.per_setting == tuple(hits / trials for hits in verification)
    assert rng.bit_generator.state == reference.bit_generator.state


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
