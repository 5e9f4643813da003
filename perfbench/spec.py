"""What the benchmark measures: workloads, metrics and the predictions that
tie each per-layer metric to the end-to-end metric it should move.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics in the form the benchmark contract fixes; ``selfcheck.py`` asserts
that the two agree. This module imports nothing outside the standard library,
so ``run.py`` can read it without loading numpy.
"""

from __future__ import annotations

# Each workload drives one CLI command on configs generated from the seed.
# ``op`` is the unit that ``ops_per_s`` and the op counts refer to.
WORKLOADS = {
    "verify-mc": {
        "command": "theorem1",
        "op": "one k=4 verification shot of `theorem1` (9 rotated-GHZ angles + 5 Werner fidelities per slice)",
        "why": (
            "Small-register Monte Carlo path: qsim.measure and StateVector validation take about 60% "
            "of the time, netmodel about 15% (one broadcast_round and one Network per shot), no "
            "private channels. A batched shot engine shows its gain here."
        ),
        "check": (
            "every row's epsilon equals |sin(theta/2)| or 1-F and bound = 1-eps^2/2; the "
            "accept rate pooled over the run's slices lies within 4 sigma of (1+cos theta)/2 or p+(1-p)/2"
        ),
        "known_failure": (
            "the same absolute 1e-12 norm check as on avka-n16 raises ValueError in about 1 slice of "
            "200 (4 of 800 over seeds 1-10 at 20 s); all 1400 ops of that slice count as failed"
        ),
    },
    "anon-notify": {
        "command": "anonymity",
        "op": "one n=6 notification run plus view extraction under one hypothesis, coalition {3,4}",
        "why": (
            "qsim does no work. netmodel.send_private and keep_share take about 40% (n^3+n^2 = 252 "
            "channel uses per run); view serialisation, projection and the permutation null most "
            "of the rest. A qsim change is predicted to show no change here."
        ),
        "check": (
            "tvd = max(0, raw_tvd - null_mean) and guessing bound = min(1, 1/(n-t) + tvd) per slice; "
            "the debiased TVD averaged over the run's slices lies within 4 stderr of 0"
        ),
    },
    "avka-n16": {
        "command": "run",
        "op": "one n=16 avka run of L=16 rounds, D=4, pure source, honest-curious coalition {3..15}",
        "why": (
            "Each ame works on a 2^16-amplitude vector, so time is bound by bytes moved, not by the "
            "interpreter; each run also does one 16-party notification (4352 channel uses) and one "
            "extract_view over about 4.8k transcript entries. A small-register gain that costs large registers "
            "shows here."
        ),
        "check": (
            "exit 0, validated and not aborted, L rounds, identical participant keys of length = "
            "keygen rounds, adversary view size = 4199 + 17 L + 16 (verification rounds)"
        ),
        "known_failure": (
            "StateVector's absolute 1e-12 norm check raises ValueError on long chains of "
            "renormalised n=16 measurements; such runs count as failed ops"
        ),
    },
}

# name -> (unit, better, bound). Bounds are the share of the parent's median
# by which a metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "op_ok_ratio": ("ratio", "higher", 0.1),
}

_ALL = ("verify-mc", "anon-notify", "avka-n16")

# name -> (unit, prediction). A prediction names the end-to-end metric and the
# workload(s) the layer metric should move; "zero on W" records a count that
# must stay 0 on workload W, because W never reaches that layer.
PER_LAYER = {
    "qsim.measure.calls": ("count", "ops_per_s on verify-mc; zero on anon-notify"),
    "qsim.measure.self_s": ("s", "ops_per_s on verify-mc"),
    "qsim.measure.us_p50": ("us", "ops_per_s on verify-mc"),
    "qsim.statevector.constructions": ("count", "ops_per_s on verify-mc; zero on anon-notify"),
    "qsim.statevector.self_s": ("s", "ops_per_s on verify-mc"),
    "qsim.statevector.amps_validated": ("count", "ops_per_s on avka-n16 (sum of 2^n over constructions)"),
    "qsim.sample_ensemble.calls": ("count", "ops_per_s on verify-mc (Werner rows); zero on anon-notify, avka-n16"),
    "qsim.sample_ensemble.self_s": ("s", "ops_per_s on verify-mc (Werner rows)"),
    "qsim.apply_pauli_z.self_s": ("s", "ops_per_s on avka-n16"),
    "qsim.reorder_qubits.self_s": ("s", "ops_per_s on avka-n16"),
    "qsim.werner_ghz.self_s": ("s", "ops_per_s and peak_rss_mb on verify-mc (exact-epsilon set-up)"),
    "qsim.density_from_ensemble.self_s": ("s", "ops_per_s and peak_rss_mb on verify-mc (exact-epsilon set-up)"),
    "qsim.trace_distance.self_s": ("s", "ops_per_s and peak_rss_mb on verify-mc (exact-epsilon set-up)"),
    "netmodel.send_private.calls": ("count", "ops_per_s on anon-notify (about 5% of avka-n16); zero on verify-mc"),
    "netmodel.send_private.self_s": ("s", "ops_per_s on anon-notify"),
    "netmodel.keep_share.calls": ("count", "ops_per_s on anon-notify; zero on verify-mc"),
    "netmodel.keep_share.self_s": ("s", "ops_per_s on anon-notify"),
    "netmodel.broadcast_round.calls": ("count", "ops_per_s on verify-mc; zero on anon-notify"),
    "netmodel.broadcast_round.self_s": ("s", "ops_per_s on verify-mc"),
    "netmodel.broadcast_round.us_p50": ("us", "ops_per_s on verify-mc"),
    "netmodel.network.constructions": ("count", "ops_per_s on verify-mc (one Network per shot)"),
    "netmodel.extract_view.calls": ("count", "ops_per_s on anon-notify and avka-n16; zero on verify-mc"),
    "netmodel.extract_view.self_s": ("s", "ops_per_s on anon-notify and avka-n16"),
    "netmodel.private_bits": ("bit", "peak_rss_mb on anon-notify and avka-n16; zero on verify-mc"),
    "netmodel.broadcast_bits": ("bit", "peak_rss_mb on avka-n16; zero on anon-notify"),
    "netmodel.transcript_entries": ("count", "peak_rss_mb on anon-notify and avka-n16"),
    "protocols.verification.calls": ("count", "ops_per_s on verify-mc; zero on anon-notify, avka-n16"),
    "protocols.verification.self_s": ("s", "ops_per_s on verify-mc"),
    "protocols.verification.us_p50": ("us", "ops_per_s on verify-mc"),
    "protocols.notification.calls": ("count", "ops_per_s on anon-notify; zero on verify-mc"),
    "protocols.notification.self_s": ("s", "ops_per_s on anon-notify"),
    "protocols.notification.us_p50": ("us", "ops_per_s on anon-notify"),
    "protocols.ame.calls": ("count", "ops_per_s on avka-n16; zero on verify-mc, anon-notify"),
    "protocols.ame.self_s": ("s", "ops_per_s on avka-n16"),
    "protocols.ame.us_p50": ("us", "ops_per_s on avka-n16"),
    "protocols.avka.calls": ("count", "ops_per_s on avka-n16; zero on verify-mc, anon-notify"),
    "protocols.avka.self_s": ("s", "ops_per_s on avka-n16"),
    "protocols.avka.round_us": ("us", "ops_per_s on avka-n16 (inclusive avka time per ame round)"),
    "adversary.run_with_adversary.calls": ("count", "ops_per_s on avka-n16; zero on verify-mc, anon-notify"),
    "adversary.run_with_adversary.self_s": ("s", "ops_per_s on avka-n16"),
    "analysis.check_theorem1.self_s": ("s", "ops_per_s on verify-mc"),
    "analysis.estimate_anonymity_tvd.self_s": ("s", "ops_per_s on anon-notify (histogram and permutation null)"),
    "analysis.serialize_view.calls": ("count", "ops_per_s on anon-notify; zero on verify-mc, avka-n16"),
    "analysis.serialize_view.self_s": ("s", "ops_per_s on anon-notify"),
    "analysis.parity_projection.calls": ("count", "ops_per_s on anon-notify; zero on verify-mc, avka-n16"),
    "analysis.parity_projection.self_s": ("s", "ops_per_s on anon-notify"),
    "rng.bundle.constructions": ("count", "setup_s and ops_per_s on all workloads"),
    "rng.bundle.self_s": ("s", "setup_s and ops_per_s on all workloads"),
    "rng.draws.party": ("count", "none: draws per stream should not move; when they do they explain changed output bytes"),
    "rng.draws.network": ("count", "none: should not move; zero on anon-notify"),
    "rng.draws.coin": ("count", "none: should not move; zero on verify-mc, anon-notify"),
    "rng.draws.source": ("count", "none: should not move; zero on anon-notify, avka-n16"),
    "rng.draws.adversary": ("count", "none: should not move; zero on all three workloads"),
    "cli.main.self_s": ("s", "setup_s and ops_per_s on all workloads (config parsing, JSON/CSV emission)"),
    "bench.trace_overhead_ratio": ("ratio", "none: traced wall time over untraced wall time of the same slices"),
}

# Counts that depend only on the seed; two traced runs with one seed must
# report them identically.
EXACT_UNITS = ("count", "bit")


def exact_metrics() -> list[str]:
    return [name for name, (unit, _) in PER_LAYER.items() if unit in EXACT_UNITS]


def predicted_zeros() -> dict[str, list[str]]:
    """Workload -> count metrics predicted to read 0 on it."""
    zeros: dict[str, list[str]] = {w: [] for w in _ALL}
    for name, (_, prediction) in PER_LAYER.items():
        for clause in prediction.split(";"):
            clause = clause.strip()
            if not clause.startswith("zero on "):
                continue
            where = clause[len("zero on "):]
            targets = _ALL if where.startswith("all") else [w.strip() for w in where.split(",")]
            for w in targets:
                zeros[w].append(name)
    return zeros
