"""Statistical evaluation of the protocols.

Covers four jobs:

* acceptance-bound checking for the verification test (accept rate vs
  1 - eps^2/2 where eps is the exact trace distance to GHZ),
* anonymity estimation as a total-variation distance between the adversary's
  view distributions under two identity hypotheses,
* key-rate measurement for the verifiable key agreement run,
* reproduction of the four-photon table-top demonstration (three network
  configurations, keygen and verification success rates at fidelity 0.81).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .netmodel import AdversaryView, Network, RoleAssignment, extract_view
from .protocols import AvkaResult, ame, notification, verification
from .qsim import (
    NoiseEnsemble,
    StateVector,
    density_from_ensemble,
    density_from_pure,
    ghz_prime_state,
    ghz_state,
    local_correct_ghz_prime,
    measure_string,
    sample_ensemble,
    trace_distance,
    werner_ghz,
    werner_p_for_fidelity,
)
from .rng import RngBundle

# Averages reported by the four-photon polarisation demonstration at state
# fidelity 0.81 (keygen and verification success, as fractions).
REFERENCE_KEYGEN_RATE = 0.92974
REFERENCE_VERIFICATION_RATE = 0.87178
REFERENCE_FIDELITY = 0.81


# --- acceptance bound ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """Monte Carlo acceptance rate of the verification test against the
    1 - eps^2/2 bound, with 4-sigma slack on the estimate."""

    epsilon: float
    accept_rate: float
    stderr: float
    bound: float
    satisfied: bool
    trials: int

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "accept_rate": self.accept_rate,
            "stderr": self.stderr,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "trials": self.trials,
        }


def check_theorem1(
    state_family: Sequence[Union[StateVector, NoiseEnsemble]],
    trials: int,
    rng: np.random.Generator,
) -> list[BoundCheck]:
    """Verify the acceptance bound on a family of states.

    For each state: compute eps exactly as the trace distance to the GHZ
    state of the same size, run the verification protocol ``trials`` times
    with party 0 as verifier, and flag whether the acceptance rate stays
    below 1 - eps^2/2 within four standard errors.
    """
    if not state_family:
        return []
    sizes = {s.n_qubits for s in state_family}
    if len(sizes) != 1:
        raise ValueError(f"state family spans register sizes {sorted(sizes)}")
    k = sizes.pop()
    ghz_rho = density_from_pure(ghz_state(k))

    checks = []
    bundle = RngBundle.from_generator(rng, k)
    for entry in state_family:
        if isinstance(entry, NoiseEnsemble):
            rho = density_from_ensemble(entry)
            draw = lambda: sample_ensemble(entry, bundle.source)
        else:
            rho = density_from_pure(entry)
            draw = lambda: entry
        eps = min(1.0, max(0.0, trace_distance(rho, ghz_rho)))
        accepted = 0
        for _ in range(trials):
            net = Network(k, bundle.network)
            record = verification(draw(), 0, net, bundle)
            accepted += record.accepted
        rate = accepted / trials
        stderr = float(np.sqrt(rate * (1.0 - rate) / trials))
        bound = 1.0 - eps**2 / 2.0
        checks.append(
            BoundCheck(
                epsilon=eps,
                accept_rate=rate,
                stderr=stderr,
                bound=bound,
                satisfied=rate <= bound + 4.0 * stderr,
                trials=trials,
            )
        )
    return checks


def bound_checks_to_csv(checks: Sequence[BoundCheck]) -> str:
    lines = ["epsilon,accept_rate,stderr,bound,satisfied"]
    for c in checks:
        lines.append(f"{c.epsilon!r},{c.accept_rate!r},{c.stderr!r},{c.bound!r},{c.satisfied}")
    return "\n".join(lines) + "\n"


# --- anonymity ----------------------------------------------------------------------


ProtocolRunner = Callable[[RoleAssignment, Network, RngBundle], None]


def ame_anonymity_runner() -> ProtocolRunner:
    """Runner executing one entanglement round on a fresh pure GHZ state."""

    def run(roles: RoleAssignment, net: Network, rng: RngBundle) -> None:
        ame(ghz_state(roles.n), roles, net, rng)

    return run


def notification_anonymity_runner() -> ProtocolRunner:
    """Runner executing one full notification."""

    def run(roles: RoleAssignment, net: Network, rng: RngBundle) -> None:
        notification(roles, net, rng)

    return run


def serialize_view(view: AdversaryView) -> str:
    """Canonical serialization for histogramming view distributions.

    Entries are sorted by (phase, kind, position, sender, receiver) and all
    fields are concatenated, so two views collide iff the coalition saw
    identical content.
    """
    def key(e):
        return (
            e.phase,
            e.kind,
            -1 if e.position is None else e.position,
            -1 if e.sender is None else e.sender,
            -1 if e.receiver is None else e.receiver,
        )

    parts = [
        f"{e.phase},{e.kind},{e.sender},{e.receiver},{e.position},{e.bits}"
        for e in sorted(view.visible_entries, key=key)
    ]
    return ";".join(parts)


def parity_projection(view: AdversaryView) -> str:
    """Coarse view feature: the XOR of all visible bits, per phase.

    Used when the raw view space is too large to histogram.
    """
    parities: dict[str, int] = {}
    for e in view.visible_entries:
        acc = parities.setdefault(e.phase, 0)
        for ch in e.bits:
            acc ^= ch == "1"
        parities[e.phase] = acc
    return ";".join(f"{phase}={bit:d}" for phase, bit in sorted(parities.items()))


def _empirical_tvd(xs: Sequence[str], ys: Sequence[str]) -> float:
    ca, cb = Counter(xs), Counter(ys)
    na, nb = len(xs), len(ys)
    # fsum is exact, so the result does not depend on the set's iteration
    # order, which varies with the per-process string-hash seed.
    return 0.5 * math.fsum(abs(ca[k] / na - cb[k] / nb) for k in ca.keys() | cb.keys())


@dataclass(frozen=True)
class TvdEstimate:
    """Debiased total-variation distance between two view distributions.

    The raw plug-in TVD between two finite samples is biased upward by about
    sqrt(support / trials) even for identical distributions, so ``tvd`` is
    the raw estimate minus a permutation-null mean (clamped at 0) and
    ``stderr`` is the permutation-null spread. ``guessing_bound`` is the
    adversary's best identity-guess probability 1/(n - t) plus the tvd.
    """

    tvd: float
    stderr: float
    trials_per_hypothesis: int
    guessing_bound: float
    raw_tvd: float
    null_mean: float
    projected: bool

    def to_dict(self) -> dict:
        return {
            "tvd": self.tvd,
            "stderr": self.stderr,
            "trials_per_hypothesis": self.trials_per_hypothesis,
            "guessing_bound": self.guessing_bound,
            "raw_tvd": self.raw_tvd,
            "null_mean": self.null_mean,
            "projected": self.projected,
        }


def estimate_anonymity_tvd(
    protocol_runner: ProtocolRunner,
    hypothesis_a: RoleAssignment,
    hypothesis_b: RoleAssignment,
    coalition: frozenset[int],
    trials: int,
    rng: np.random.Generator,
    *,
    max_support: int = 4096,
    null_rounds: int = 32,
) -> TvdEstimate:
    """Estimate how well a coalition can distinguish two identity hypotheses.

    Runs the protocol ``trials`` times under each hypothesis, projects every
    run onto the coalition's view, and measures the total-variation distance
    between the two view distributions. If the samples contain more distinct
    raw views than ``max_support``, or more than ``trials`` (so the histogram
    cannot resolve repeats), the per-phase parity projection is used instead
    and the result is flagged as projected.
    """
    coalition = frozenset(coalition)
    if hypothesis_a.n != hypothesis_b.n:
        raise ValueError("hypotheses must share the network size")
    if hypothesis_a.m != hypothesis_b.m:
        raise ValueError("hypotheses must share the receiver count")
    n = hypothesis_a.n
    if len(coalition) > n - 2:
        raise ValueError(f"coalition of {len(coalition)} exceeds the corruption bound {n - 2}")
    for hyp in (hypothesis_a, hypothesis_b):
        if hyp.alice in coalition:
            raise ValueError("coalition must exclude Alice under both hypotheses")
    if trials < 2:
        raise ValueError("need at least two trials per hypothesis")

    raw: dict[int, list[str]] = {0: [], 1: []}
    proj: dict[int, list[str]] = {0: [], 1: []}
    for side, hyp in enumerate((hypothesis_a, hypothesis_b)):
        bundle = RngBundle.from_generator(rng, n)
        for _ in range(trials):
            net = Network(n, bundle.network)
            protocol_runner(hyp, net, bundle)
            view = extract_view(net.transcript, coalition, n)
            raw[side].append(serialize_view(view))
            proj[side].append(parity_projection(view))

    projected = len(set(raw[0]) | set(raw[1])) > min(max_support, trials)
    xs, ys = (proj[0], proj[1]) if projected else (raw[0], raw[1])

    raw_tvd = _empirical_tvd(xs, ys)
    pool = xs + ys
    null = np.empty(null_rounds)
    for r in range(null_rounds):
        order = rng.permutation(len(pool))
        left = [pool[i] for i in order[:trials]]
        right = [pool[i] for i in order[trials:]]
        null[r] = _empirical_tvd(left, right)
    null_mean = float(null.mean())
    null_sd = float(null.std(ddof=1))

    tvd = max(0.0, raw_tvd - null_mean)
    stderr = max(null_sd, 0.5 / trials)
    guessing_bound = min(1.0, 1.0 / (n - len(coalition)) + tvd)
    return TvdEstimate(
        tvd=tvd,
        stderr=stderr,
        trials_per_hypothesis=trials,
        guessing_bound=guessing_bound,
        raw_tvd=raw_tvd,
        null_mean=null_mean,
        projected=projected,
    )


# --- key rate -----------------------------------------------------------------------


@dataclass(frozen=True)
class KeyRateReport:
    empirical_rate: float
    expected: float
    within_ci: bool
    tolerance: float
    num_trials: int

    def to_dict(self) -> dict:
        return {
            "empirical_rate": self.empirical_rate,
            "expected": self.expected,
            "within_ci": self.within_ci,
            "tolerance": self.tolerance,
            "num_trials": self.num_trials,
        }


def key_rate(results: Sequence[AvkaResult], num_states: int, keygen_denom: int) -> KeyRateReport:
    """Compare the mean generated key length against num_states/keygen_denom.

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


# --- table-top demonstration --------------------------------------------------------

CONFIG_LABELS = ("AB1B2P4", "AP2B1B2", "AB1P3B2")

# Slot layout per configuration label: which of the four wire positions hold
# Alice, the two receivers, and the bystander (left to right, 0-based).
CONFIG_SLOTS = {
    "AB1B2P4": {"alice": 0, "bobs": (1, 2), "bystander": 3},
    "AP2B1B2": {"alice": 0, "bobs": (2, 3), "bystander": 1},
    "AB1P3B2": {"alice": 0, "bobs": (1, 3), "bystander": 2},
}

VERIFICATION_SETTINGS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))

# Reference measurement operators, one string per (configuration, round).
# Verification rows are indexed by the participants' post-reset basis bits
# (Alice, Bob1, Bob2); the bystander always measures X. Keygen rows put Z on
# the participants and X on the bystander.
MEASUREMENT_TABLE = {
    "AB1B2P4": {
        "keygen": "ZZZX",
        (0, 0, 0): "XXXX",
        (0, 1, 1): "XYYX",
        (1, 0, 1): "YXYX",
        (1, 1, 0): "YYXX",
    },
    "AP2B1B2": {
        "keygen": "ZXZZ",
        (0, 0, 0): "XXXX",
        (0, 1, 1): "XXYY",
        (1, 0, 1): "YXXY",
        (1, 1, 0): "YXYX",
    },
    "AB1P3B2": {
        "keygen": "ZZXZ",
        (0, 0, 0): "XXXX",
        (0, 1, 1): "XYXY",
        (1, 0, 1): "YXXY",
        (1, 1, 0): "YYXX",
    },
}


def measurement_settings_for(config: str, setting: Union[str, tuple[int, int, int]]) -> str:
    """Operator string for one configuration and round.

    ``setting`` is ``"keygen"`` or the participants' post-reset basis bits
    (Alice, Bob1, Bob2), whose sum must be even.
    """
    if config not in MEASUREMENT_TABLE:
        raise ValueError(f"unknown configuration {config!r}; choose from {CONFIG_LABELS}")
    if setting == "keygen":
        return MEASUREMENT_TABLE[config]["keygen"]
    bits = tuple(setting)
    if bits not in VERIFICATION_SETTINGS:
        raise ValueError(f"{setting!r} is not a valid post-reset verification setting")
    return MEASUREMENT_TABLE[config][bits]


@dataclass(frozen=True)
class ConfigStats:
    label: str
    keygen_rate: float
    keygen_stderr: float
    verification_rate: float
    verification_stderr: float
    per_setting: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "config": self.label,
            "p_k": self.keygen_rate,
            "p_k_stderr": self.keygen_stderr,
            "p_v": self.verification_rate,
            "p_v_stderr": self.verification_stderr,
            "per_setting": list(self.per_setting),
        }


@dataclass(frozen=True)
class ExperimentReport:
    fidelity: float
    mixture_weight: float
    trials: int
    configurations: tuple[ConfigStats, ...]
    avg_keygen: float
    avg_keygen_stderr: float
    avg_verification: float
    avg_verification_stderr: float
    reference_keygen: float = REFERENCE_KEYGEN_RATE
    reference_verification: float = REFERENCE_VERIFICATION_RATE

    def to_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "mixture_weight": self.mixture_weight,
            "trials": self.trials,
            "configurations": [c.to_dict() for c in self.configurations],
            "avg_p_k": self.avg_keygen,
            "avg_p_k_stderr": self.avg_keygen_stderr,
            "avg_p_v": self.avg_verification,
            "avg_p_v_stderr": self.avg_verification_stderr,
            "reference_p_k": self.reference_keygen,
            "reference_p_v": self.reference_verification,
            "gap_p_k": self.avg_keygen - self.reference_keygen,
            "gap_p_v": self.avg_verification - self.reference_verification,
        }

    def to_csv(self) -> str:
        lines = ["config,p_k,p_k_stderr,p_v,p_v_stderr"]
        for c in self.configurations:
            lines.append(
                f"{c.label},{c.keygen_rate!r},{c.keygen_stderr!r},"
                f"{c.verification_rate!r},{c.verification_stderr!r}"
            )
        lines.append(
            f"average,{self.avg_keygen!r},{self.avg_keygen_stderr!r},"
            f"{self.avg_verification!r},{self.avg_verification_stderr!r}"
        )
        lines.append(
            f"reference,{self.reference_keygen!r},,{self.reference_verification!r},"
        )
        return "\n".join(lines) + "\n"


def keygen_success(bits: Sequence[int], config: str) -> bool:
    """All participant Z-bits agree (the bystander's X bit is irrelevant)."""
    slots = CONFIG_SLOTS[config]
    values = {bits[slots["alice"]], *(bits[b] for b in slots["bobs"])}
    return len(values) == 1


def verification_success(bits: Sequence[int], ops: str) -> bool:
    """Joint-outcome parity equals half the Y count mod 2.

    Alice's phase correction (Z iff the bystander's announced X outcome is 1)
    flips her own X/Y outcome, so folding the bystander's bit into one joint
    parity is exactly the corrected participant test.
    """
    y_count = ops.count("Y")
    return sum(bits) % 2 == (y_count // 2) % 2


def reproduce_experiment(
    fidelity_target: float,
    trials: int,
    rng: np.random.Generator,
    *,
    from_ghz_prime: bool = False,
) -> ExperimentReport:
    """Simulate the three-configuration demonstration at a given fidelity.

    Calibrates the Werner-like mixture so its GHZ fidelity hits
    ``fidelity_target``; with ``from_ghz_prime`` the coherent component is
    the locally corrected photonic state instead of the ideal GHZ state.
    Reports keygen and verification success rates per configuration plus the
    averages, next to the reference values of the demonstration.
    """
    weight = werner_p_for_fidelity(4, fidelity_target)
    base = local_correct_ghz_prime(ghz_prime_state()) if from_ghz_prime else ghz_state(4)
    ensemble = werner_ghz(4, weight, ghz=base)

    stats = []
    for label in CONFIG_LABELS:
        ops = measurement_settings_for(label, "keygen")
        hits = sum(
            keygen_success(measure_string(sample_ensemble(ensemble, rng), ops, [rng] * len(ops))[0], label)
            for _ in range(trials)
        )
        p_k = hits / trials
        p_k_err = float(np.sqrt(p_k * (1.0 - p_k) / trials))

        setting_rates = []
        setting_vars = []
        for setting in VERIFICATION_SETTINGS:
            ops = measurement_settings_for(label, setting)
            hits = sum(
                verification_success(measure_string(sample_ensemble(ensemble, rng), ops, [rng] * len(ops))[0], ops)
                for _ in range(trials)
            )
            rate = hits / trials
            setting_rates.append(rate)
            setting_vars.append(rate * (1.0 - rate) / trials)
        p_v = float(np.mean(setting_rates))
        p_v_err = float(np.sqrt(np.sum(setting_vars)) / len(setting_rates))
        stats.append(
            ConfigStats(
                label=label,
                keygen_rate=p_k,
                keygen_stderr=p_k_err,
                verification_rate=p_v,
                verification_stderr=p_v_err,
                per_setting=tuple(setting_rates),
            )
        )

    avg_k = float(np.mean([c.keygen_rate for c in stats]))
    avg_k_err = float(np.sqrt(np.sum([c.keygen_stderr**2 for c in stats])) / len(stats))
    avg_v = float(np.mean([c.verification_rate for c in stats]))
    avg_v_err = float(np.sqrt(np.sum([c.verification_stderr**2 for c in stats])) / len(stats))
    return ExperimentReport(
        fidelity=fidelity_target,
        mixture_weight=weight,
        trials=trials,
        configurations=tuple(stats),
        avg_keygen=avg_k,
        avg_keygen_stderr=avg_k_err,
        avg_verification=avg_v,
        avg_verification_stderr=avg_v_err,
    )
