"""Statistical evaluation of the protocols.

Covers three jobs:

* acceptance-bound checking for the verification test (accept rate vs
  1 - eps^2/2 where eps is the exact trace distance to GHZ),
* anonymity estimation as a total-variation distance between the adversary's
  view distributions under two identity hypotheses,
* reproduction of the four-photon table-top demonstration (three network
  configurations, keygen and verification success rates at fidelity 0.81).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .netmodel import AdversaryView, RoleAssignment, check_coalition
from .protocols import _batches, _check_notified, _notification_layout, _parity_test, _queued, _rows, carve, carve_draws
from .protocols import deal_shares, parity_draws, parity_measure
from .qsim import (
    NoiseEnsemble,
    StateVector,
    ghz_prime_state,
    ghz_state,
    ghz_trace_distance,
    local_correct_ghz_prime,
    measure_string,
    werner_ghz,
    werner_p_for_fidelity,
)
from .rng import RngBundle

# Averages reported by the four-photon polarisation demonstration at state
# fidelity 0.81 (keygen and verification success, as fractions).
REFERENCE_KEYGEN_RATE = 0.92974
REFERENCE_VERIFICATION_RATE = 0.87178

# --- acceptance bound ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """Monte Carlo acceptance rate of the verification test against the
    1 - eps^2/2 bound; ``stderr`` is the estimate's plug-in standard error,
    while ``satisfied`` allows four standard errors of a rate at the bound."""

    epsilon: float
    accept_rate: float
    stderr: float
    bound: float
    satisfied: bool
    trials: int


def check_theorem1(
    state_family: Sequence[Union[StateVector, NoiseEnsemble]],
    trials: int,
    rng: np.random.Generator,
) -> list[BoundCheck]:
    """Verify the acceptance bound on a family of states.

    For each state: compute eps exactly as the trace distance to the GHZ
    state of the same size, run the verification test ``trials`` times with
    party 0 as verifier, and flag whether the acceptance rate stays below
    1 - eps^2/2 within four standard errors.

    ``_queued`` joins each state's shots, in batches, across states (a
    mixture draws from the source stream of one bundle spawned from ``rng``);
    ``parity_draws`` makes a queue's draws with one raw-word call per party
    stream, and one ``parity_measure`` runs its shots through its ``index``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not state_family:
        return []
    sizes = {s.n_qubits for s in state_family}
    if len(sizes) != 1:
        raise ValueError(f"state family spans register sizes {sorted(sizes)}")
    k = sizes.pop()

    bundle = RngBundle.from_generator(rng, k)
    holders = tuple(range(k))
    accepted = np.zeros(len(state_family), dtype=np.int64)
    done = 0
    # A queued shot may hold a kept row of its own and two 8-byte draws per holder.
    family = ((entry, trials) for entry in state_family)
    for states, index, sizes in _queued(family, bundle.source, 16 * 2**k + 16 * k):
        verdicts = parity_measure(states, holders, 0, parity_draws(holders, 0, bundle, sizes), index).accepted
        accepted += np.bincount((np.arange(done, done + len(index)) // trials)[verdicts], minlength=len(accepted))
        done += len(index)

    eps = np.clip([ghz_trace_distance(entry) for entry in state_family], 0.0, 1.0)
    # ``float_power`` squares by the C library's ``pow``, as Python's ``**`` does; numpy's ``**``
    # multiplies, and glibc 2.36's pow rounds 0.08% of uniform doubles in [0, 1) one ulp apart.
    rate, bound = accepted / trials, 1.0 - np.float_power(eps, 2) / 2.0
    stderr = np.sqrt(rate * (1.0 - rate) / trials)
    satisfied = rate <= bound + 4.0 * np.sqrt(bound * (1.0 - bound) / trials)
    columns = (eps, rate, stderr, bound, satisfied)
    return [BoundCheck(*row, trials) for row in zip(*(column.tolist() for column in columns))]


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    """``header``, then one line per row: a string field as itself, any other as its ``repr``."""
    lines = [header, *(",".join([v if isinstance(v, str) else repr(v) for v in row]) for row in rows)]
    return "\n".join(lines) + "\n"


def bound_checks_to_csv(checks: Sequence[BoundCheck]) -> str:
    return _csv(
        "epsilon,accept_rate,stderr,bound,satisfied",
        [(c.epsilon, c.accept_rate, c.stderr, c.bound, c.satisfied) for c in checks],
    )


# --- anonymity ----------------------------------------------------------------------


# A view sampler runs one protocol ``trials`` times under one role
# assignment and returns two arrays with one key per run: the coalition's
# raw view and its per-phase parity projection. Two runs get equal keys
# exactly when the coalition saw identical content (or parities).
ViewSampler = Callable[[RoleAssignment, frozenset[int], int, RngBundle], tuple[np.ndarray, np.ndarray]]


def _bit_keys(bits: np.ndarray) -> np.ndarray:
    """One key per row of a (rows, width) 0/1 array: the row packed by
    ``np.packbits`` into a void scalar of at least one byte."""
    packed = np.packbits(bits.reshape(len(bits), -1), axis=1)
    keys = np.zeros((len(bits), max(1, packed.shape[1])), dtype=np.uint8)
    keys[:, : packed.shape[1]] = packed
    return keys.view(np.dtype((np.void, keys.shape[1])))[:, 0]


def _permutation_ranks(order: np.ndarray) -> np.ndarray:
    """Lehmer rank in [0, n!) of each row of a (rows, n) permutation array."""
    rows, n = order.shape
    later_smaller = (order[:, None, :] < order[:, :, None]) & np.triu(np.ones((n, n), dtype=bool), 1)
    digits = later_smaller.sum(axis=2)
    ranks = np.zeros(rows, dtype=np.int64)
    for position in range(n):
        ranks = ranks * (n - position) + digits[:, position]
    return ranks


def ame_views(
    roles: RoleAssignment, coalition: frozenset[int], trials: int, bundle: RngBundle
) -> tuple[np.ndarray, np.ndarray]:
    """Coalition views of ``trials`` ame rounds on a fresh pure GHZ state.

    Each chunk of about 1 MB of runs is one ``carve`` tree, drawing what
    ``ame`` draws run by run; the network stream permutes the announcement
    order. Every announcement is broadcast, so any coalition sees the whole
    round: the raw key packs the order's Lehmer rank and the n announced bits
    into one int64 (n! 2^n < 2^63 up to n = 16), the projection their XOR.
    """
    n = roles.n
    ghz = ghz_state(n)

    def chunk(size: int):
        bits = carve(*_rows(ghz, bundle.source, size), roles, carve_draws(roles, bundle, size), source=ghz).announced
        order = bundle.network.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        raw = _permutation_ranks(order) << n | bits @ (1 << np.arange(n - 1, -1, -1))
        return raw, bits.sum(axis=1) % 2

    # A run holds its carved row and about four 8-byte entries per party.
    raw, projected = zip(*map(chunk, _batches(trials, 16 * 2 ** (roles.m + 1) + 32 * n)))
    return np.concatenate(raw), np.concatenate(projected)


def notification_views(
    roles: RoleAssignment, coalition: frozenset[int], trials: int, bundle: RngBundle
) -> tuple[np.ndarray, np.ndarray]:
    """Coalition views of ``trials`` notifications, dealt by ``deal_shares``.

    The raw key packs the bits of every message the coalition sees, in
    transcript order; the projection packs, per target round, the XOR of the
    visible share bits and the XOR of the visible partial bits.
    """
    n = roles.n
    member = np.zeros(n, dtype=bool)
    member[list(coalition)] = True
    senders, receivers = _notification_layout(n)[:2]
    visible = (member[senders] | member[receivers]).reshape(n, -1)

    def chunk(size: int):
        shares = deal_shares(roles, bundle, size)
        partials = np.einsum("tjdh->tjh", shares) & 1
        _check_notified(roles, np.einsum("tjh->tj", partials) & 1)
        messages = np.concatenate([shares.reshape(size, n, n * n), partials], axis=2)
        parities = np.bitwise_xor.reduceat(messages & visible, [0, n * n], axis=2)
        return _bit_keys(messages[:, visible]), _bit_keys(parities)

    raw, projected = zip(*map(chunk, _batches(trials, n**3)))
    return np.concatenate(raw), np.concatenate(projected)


def serialize_view(view: AdversaryView) -> str:
    """Canonical serialization of a per-party view.

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
    """Coarse view feature of a per-party view: the XOR of all visible bits,
    per phase."""
    parities: dict[str, int] = {}
    for e in view.visible_entries:
        acc = parities.setdefault(e.phase, 0)
        for ch in e.bits:
            acc ^= ch == "1"
        parities[e.phase] = acc
    return ";".join(f"{phase}={bit:d}" for phase, bit in sorted(parities.items()))


# Raw views are histogrammed only up to this many distinct values; past it
# the estimator falls back to the parity projection.
MAX_SUPPORT = 4096
# Permutations of the pooled runs behind the null mean and spread.
NULL_ROUNDS = 32


def _empirical_tvds(views: np.ndarray, trials: int, support: int) -> list[float]:
    """Plug-in TVD per row of ``views``, a (rows, 2 trials) array of view
    indices in [0, support): between a row's first ``trials`` and its last.

    One ``bincount`` histograms every (row, half, view) key; a row's TVD is
    half the correctly rounded sum of its absolute differences, the double
    ``0.5 * math.fsum`` gives. As no nonzero frequency is below 1 / trials, each
    difference is a whole number of quanta q = ulp(1 / trials), below 2^(52 +
    ceil(log2 trials)); its high and low 32 bits sum exactly in int64 for trials
    below 2^30, ``float`` of the joined int rounds once, and q and 0.5 scale exactly.
    """
    keys = views.reshape(-1, trials) + support * np.arange(2 * len(views))[:, None]
    halves = (np.bincount(keys.ravel(), minlength=len(keys) * support) / trials).reshape(len(views), 2, support)
    quantum = math.ulp(1.0 / trials)
    quanta = np.abs(halves[:, 0] - halves[:, 1]) / quantum
    high = np.floor(quanta * 2.0**-32)
    low = (quanta - high * 2.0**32).astype(np.int64).sum(axis=1).tolist()
    return [0.5 * quantum * float((h << 32) + l) for h, l in zip(high.astype(np.int64).sum(axis=1).tolist(), low)]


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


def estimate_anonymity_tvd(
    view_sampler: ViewSampler,
    hypothesis_a: RoleAssignment,
    hypothesis_b: RoleAssignment,
    coalition: frozenset[int],
    trials: int,
    rng: np.random.Generator,
) -> TvdEstimate:
    """Estimate how well a coalition can distinguish two identity hypotheses.

    ``view_sampler`` (``ame_views``, ``notification_views``) runs the
    protocol ``trials`` times under each hypothesis, on a bundle spawned from
    ``rng`` per hypothesis, and keys every run's coalition view. The keys are
    histogrammed and the total-variation distance between the two view
    distributions is debiased by a permutation null over the pooled runs:
    ``NULL_ROUNDS`` rows of the pooled views, shuffled by one ``permuted``
    call per chunk of rows within ``_BATCH_BYTES`` (the draws and values of
    one ``permutation`` call per row) and histogrammed by one
    ``_empirical_tvds`` call. If
    the samples contain more distinct raw views than ``MAX_SUPPORT``, or
    more than ``trials`` (so the histogram cannot resolve repeats), the
    per-phase parity projection is used instead and the result is flagged
    as projected. ``trials`` must satisfy 2 <= trials < 2^30, the range where
    ``_empirical_tvds`` is exact; any other value raises ``ValueError``
    before any draw.
    """
    if hypothesis_a.n != hypothesis_b.n:
        raise ValueError("hypotheses must share the network size")
    if hypothesis_a.m != hypothesis_b.m:
        raise ValueError("hypotheses must share the receiver count")
    n = hypothesis_a.n
    coalition = check_coalition(coalition, n, (hypothesis_a.alice, hypothesis_b.alice))
    if not 2 <= trials < 2**30:
        raise ValueError(f"trials per hypothesis must satisfy 2 <= trials < 2**30, got {trials}")

    samples = [
        view_sampler(hyp, coalition, trials, RngBundle.from_generator(rng, n)) for hyp in (hypothesis_a, hypothesis_b)
    ]
    support, index = np.unique(np.concatenate([raw for raw, _ in samples]), return_inverse=True)
    projected = len(support) > min(MAX_SUPPORT, trials)
    if projected:
        support, index = np.unique(np.concatenate([proj for _, proj in samples]), return_inverse=True)

    (raw_tvd,) = _empirical_tvds(index[None], trials, len(support))
    null = []
    # A row holds its shuffled views and their keys (2 trials int64 each), two
    # frequency rows and at most five 8-byte rows of quanta, high and low parts.
    for rows in _batches(NULL_ROUNDS, 32 * trials + 56 * len(support)):
        views = np.tile(index, (rows, 1))
        null += _empirical_tvds(rng.permuted(views, axis=1, out=views), trials, len(support))
    null_mean = float(np.mean(null))
    null_sd = float(np.std(null, ddof=1))

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


# --- table-top demonstration --------------------------------------------------------

# Slot layout per configuration label: which of the four wire positions hold
# Alice, the two receivers, and the bystander (left to right, 0-based).
CONFIG_SLOTS = {
    "AB1B2P4": {"alice": 0, "bobs": (1, 2), "bystander": 3},
    "AP2B1B2": {"alice": 0, "bobs": (2, 3), "bystander": 1},
    "AB1P3B2": {"alice": 0, "bobs": (1, 3), "bystander": 2},
}
CONFIG_LABELS = tuple(CONFIG_SLOTS)

VERIFICATION_SETTINGS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def measurement_settings_for(config: str, setting: Union[str, tuple[int, int, int]]) -> str:
    """Operator string for one configuration and round, by wire left to right.

    The bystander measures X. Alice and the two receivers measure Z if
    ``setting`` is ``"keygen"``, else X or Y by their post-reset basis bits
    ``setting`` (Alice, Bob1, Bob2), whose sum must be even.
    """
    if config not in CONFIG_SLOTS:
        raise ValueError(f"unknown configuration {config!r}; choose from {CONFIG_LABELS}")
    if setting not in ("keygen", *VERIFICATION_SETTINGS):
        raise ValueError(f"{setting!r} is neither 'keygen' nor a valid post-reset verification setting")
    slots = CONFIG_SLOTS[config]
    letters = "ZZZ" if setting == "keygen" else ["XY"[bit] for bit in setting]
    by_wire = {slots["bystander"]: "X", **dict(zip((slots["alice"], *slots["bobs"]), letters))}
    return "".join(by_wire[wire] for wire in range(4))


# Every configuration's keygen string, then its verification strings by setting.
MEASUREMENT_TABLE = {
    label: {setting: measurement_settings_for(label, setting) for setting in ("keygen", *VERIFICATION_SETTINGS)}
    for label in CONFIG_LABELS
}


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
        return _csv(
            "config,p_k,p_k_stderr,p_v,p_v_stderr",
            [
                *((c.label, c.keygen_rate, c.keygen_stderr, c.verification_rate, c.verification_stderr)
                  for c in self.configurations),
                ("average", self.avg_keygen, self.avg_keygen_stderr, self.avg_verification, self.avg_verification_stderr),
                ("reference", self.reference_keygen, "", self.reference_verification, ""),
            ],
        )


def keygen_success(bits, config: str):
    """All participant Z-bits agree (the bystander's X bit is irrelevant).

    ``bits`` is one shot's readout or a (shots, 4) array of them.
    """
    bits = np.asarray(bits)
    slots = CONFIG_SLOTS[config]
    alice = bits[..., slots["alice"]]
    return np.logical_and.reduce([bits[..., b] == alice for b in slots["bobs"]])


def verification_success(bits, ops: str):
    """The parity test on a readout under ``ops``: joint-outcome parity
    equals half the Y count mod 2.

    Alice's phase correction (Z iff the bystander's announced X outcome is 1)
    flips her own X/Y outcome, so folding the bystander's bit into one joint
    parity is exactly the corrected participant test. ``bits`` is one shot's
    readout or a (shots, 4) array of them.
    """
    return _parity_test([int(ch == "Y") for ch in ops], np.transpose(bits))


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
    averages, next to the reference values of the demonstration. Each batch
    draws its states, then its uniforms, from ``rng`` itself, so it runs alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    weight = werner_p_for_fidelity(4, fidelity_target)
    base = local_correct_ghz_prime(ghz_prime_state()) if from_ghz_prime else ghz_state(4)
    ensemble = werner_ghz(4, weight, ghz=base)

    def hits(label: str, setting: Union[str, tuple[int, int, int]]) -> int:
        """Successful shots of one configuration and setting out of ``trials``,
        each on a fresh draw of the source."""
        ops = measurement_settings_for(label, setting)
        total = 0
        for shots in _batches(trials, 16 * 2**4):
            states, index = _rows(ensemble, rng, shots)
            if not np.count_nonzero(index == 0):  # the kernel measures only states drawn
                states, index = states[1:], index - 1
            bits = measure_string(states, ops, rng.random((len(ops), shots)).T, index)[0]
            total += int((keygen_success(bits, label) if setting == "keygen" else verification_success(bits, ops)).sum())
        return total

    settings = ("keygen", *VERIFICATION_SETTINGS)
    rates = np.array([[hits(label, setting) for setting in settings] for label in CONFIG_LABELS]) / trials
    variances = rates * (1.0 - rates) / trials
    # One row per configuration, in ConfigStats' order: p_k, its stderr, p_v (the mean over settings), its stderr.
    p_v_stderr = np.sqrt(variances[:, 1:].sum(axis=1)) / len(VERIFICATION_SETTINGS)
    table = np.column_stack([rates[:, 0], np.sqrt(variances[:, 0]), rates[:, 1:].mean(axis=1), p_v_stderr])
    # Over configurations: each rate's mean and each stderr's root-sum-square (squared as in
    # ``check_theorem1``), divided by their number.
    averages = table.mean(axis=0)
    averages[1::2] = np.sqrt(np.float_power(table[:, 1::2], 2).sum(axis=0)) / len(table)
    configurations = tuple(
        ConfigStats(label, *row, per_setting=tuple(per_setting))
        for label, row, per_setting in zip(CONFIG_LABELS, table.tolist(), rates[:, 1:].tolist())
    )
    return ExperimentReport(fidelity_target, weight, trials, configurations, *averages.tolist())
