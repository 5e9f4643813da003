"""Batch experiment runner.

Commands (see README for config key documentation):

* ``run``          -- execute a verifiable key agreement run (or the
                      unverified variant when ``D`` is absent) and print the
                      result as JSON.
* ``theorem1``     -- acceptance-bound checks over a rotated-GHZ and/or
                      Werner-fidelity grid, printed as CSV (or JSON).
* ``anonymity``    -- total-variation distance between a coalition's views
                      under two identity hypotheses, printed as JSON.
* ``experiment``   -- the three-configuration table-top demonstration at a
                      given fidelity, printed as JSON (or CSV).
* ``notify-demo``  -- print the XOR share table of one notification round.

Exit codes: 0 on success/validated, 1 on usage or config errors, 2 when the
protocol rejected or aborted. Same config + same seed gives byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Callable

import numpy as np

from . import adversary as adv
from .analysis import (
    ame_views,
    bound_checks_to_csv,
    check_theorem1,
    estimate_anonymity_tvd,
    notification_views,
    reproduce_experiment,
)
from .netmodel import Network, RoleAssignment
from .protocols import aka, avka, notification
from .qsim import (
    Basis,
    MAX_QUBITS,
    NoiseEnsemble,
    StateVector,
    basis_state,
    ghz_prime_state,
    ghz_state,
    local_correct_ghz_prime,
    rotated_ghz,
    werner_ghz,
    werner_p_for_fidelity,
)
from .rng import RngBundle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


class CliError(Exception):
    """Invalid usage or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise CliError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, kind: type, check: Callable[[Any], bool] = lambda v: True):
    if key not in cfg:
        raise CliError(f"missing config key {key!r}")
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise CliError(f"config key {key!r} is too large for a float") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise CliError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    if not check(value):
        raise CliError(f"config key {key!r} has invalid value {value!r}")
    return value


def _require_list(cfg: dict, key: str, kind: type, default: list | None = None) -> list:
    """A list of finite ``kind`` values (int, or float which admits int, as a float)."""
    values = _require(cfg, key, list) if default is None else cfg.get(key, default)
    if not isinstance(values, list) or not all(
        isinstance(v, (int, kind)) and not isinstance(v, bool) and -math.inf < v < math.inf for v in values
    ):
        raise CliError(f"config key {key!r} must be a list of {kind.__name__}, got {values!r}")
    return [_require({key: v}, key, kind) for v in values]


def _parties(cfg: dict, key: str) -> frozenset[int]:
    """Config key ``key``: a list of parties, none named twice."""
    parties = _require_list(cfg, key, int)
    if repeated := [p for i, p in enumerate(parties) if p in parties[:i]]:
        raise CliError(f"config key {key!r} names party {repeated[0]} more than once")
    return frozenset(parties)


def _size_from(cfg: dict, least: int) -> int:
    """Config key ``n``, the network size: least <= n <= MAX_QUBITS, the
    statevector simulator's limit, which every command keeps."""
    n = _require(cfg, "n", int)
    if not least <= n <= MAX_QUBITS:
        raise CliError(f"config key 'n' must satisfy {least} <= n <= {MAX_QUBITS}, got {n}")
    return n


def _roles_from(cfg: dict) -> RoleAssignment:
    n = _size_from(cfg, 1)
    alice = _require(cfg, "alice", int)
    receivers = _parties(cfg, "receivers")
    try:
        return RoleAssignment(n=n, alice=alice, receivers=receivers)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _seed_from(cfg: dict) -> int:
    return _require(cfg, "seed", int, lambda v: v >= 0)


def _emit(command: str, seed: int, payload: dict) -> None:
    print(json.dumps({**payload, "command": command, "seed": seed}, indent=2, sort_keys=True))


def _werner(n: int, fidelity: float, ghz: StateVector | None = None) -> NoiseEnsemble:
    """The white-noise mixture of ``ghz`` (default GHZ) at ``fidelity``; infeasible is a CliError."""
    try:
        return werner_ghz(n, werner_p_for_fidelity(n, fidelity), ghz=ghz)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _make_source(cfg: dict, roles: RoleAssignment) -> StateVector | NoiseEnsemble:
    noise = cfg.get("noise", {"model": "pure"})
    if not isinstance(noise, dict):
        raise CliError("config key 'noise' must be an object")
    model = noise.get("model", "pure")
    if model == "pure":
        return ghz_state(roles.n)
    if model == "werner":
        return _werner(roles.n, _require(noise, "fidelity", float))
    if model == "ghz_prime":
        if roles.n != 4:
            raise CliError("noise model 'ghz_prime' needs n=4")
        base = local_correct_ghz_prime(ghz_prime_state())
        fidelity = _require(noise, "fidelity", float) if "fidelity" in noise else 1.0
        return base if fidelity == 1.0 else _werner(4, fidelity, base)
    raise CliError(f"unknown noise model {model!r}")


def _make_strategy(cfg: dict, roles: RoleAssignment) -> adv.AdversaryStrategy | None:
    spec = cfg.get("adversary")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise CliError("config key 'adversary' must be an object")
    kind = spec.get("kind")
    if kind == "honest_curious":
        return adv.HonestCurious(coalition=_parties(spec, "coalition"))
    if kind == "withholding":
        party = _require(spec, "party", int)
        basis = spec.get("basis", "Z")
        if basis not in ("X", "Y", "Z"):
            raise CliError(f"withholding basis must be X, Y or Z, got {basis!r}")
        return adv.WithholdingAgent(party=party, later_basis=Basis(basis))
    if kind == "dishonest_source":
        return adv.DishonestSource(generator=_dishonest_generator(spec, roles.n))
    raise CliError(f"unknown adversary kind {kind!r}")


def _dishonest_generator(spec: dict, n: int) -> StateVector | NoiseEnsemble:
    state = spec.get("state")
    if state == "ghz":
        return ghz_state(n)
    if state == "ghz_minus":
        return rotated_ghz(n, math.pi)
    if state == "zeros":
        return basis_state(n, 0)
    if state == "rotated":
        return rotated_ghz(n, _require(spec, "theta", float, math.isfinite))
    if state == "werner":
        return _werner(n, _require(spec, "fidelity", float))
    raise CliError(f"unknown dishonest source state {state!r}")


def cmd_run(cfg: dict, fmt: str) -> int:
    roles = _roles_from(cfg)
    seed = _seed_from(cfg)
    num_states = _require(cfg, "L", int, lambda v: v >= 0)
    bundle = RngBundle.from_seed(seed, roles.n)
    net = Network(roles.n, bundle.network)
    source = _make_source(cfg, roles)
    strategy = _make_strategy(cfg, roles)
    payload = {"roles": {"n": roles.n, "alice": roles.alice, "receivers": sorted(roles.receivers)}}

    if cfg.get("D") is None:
        if strategy is not None:
            raise CliError("adversary strategies need the verifiable variant (set D)")
        keys = aka(roles, num_states, source, net, bundle)
        _emit("aka", seed, {**payload, "keys": {str(p): bits for p, bits in sorted(keys.items())}})
        return EXIT_OK

    keygen_denom = _require(cfg, "D", int, lambda v: v >= 1)
    if strategy is None:
        result = avka(roles, num_states, keygen_denom, source, net, bundle)
    else:
        try:
            run = adv.run_with_adversary(
                roles, num_states, keygen_denom, strategy, net, bundle, source=source
            )
        except adv.ConfigurationError as exc:
            raise CliError(str(exc)) from exc
        result = run.result
        payload["adversary"] = {
            "kind": cfg["adversary"]["kind"],
            "view_entries": len(run.view.visible_entries),
            "key_guess": run.adversary_key_guess,
        }
    _emit("avka", seed, {**result.to_dict(), **payload})
    return EXIT_OK if result.validated else EXIT_REJECTED


def cmd_theorem1(cfg: dict, fmt: str) -> int:
    seed = _seed_from(cfg)
    trials = _require(cfg, "trials", int, lambda v: v >= 1)
    k = _size_from({"n": 4, **cfg}, 2)
    theta_grid = _require_list(cfg, "theta_grid", float, default=[])
    fidelity_grid = _require_list(cfg, "fidelity_grid", float, default=[])
    family: list[StateVector | NoiseEnsemble] = [rotated_ghz(k, t) for t in theta_grid]
    family += [_werner(k, f) for f in fidelity_grid]

    checks = check_theorem1(family, trials, np.random.default_rng(seed))
    if fmt == "csv":
        sys.stdout.write(bound_checks_to_csv(checks))
    else:
        _emit("theorem1", seed, {"checks": [asdict(c) for c in checks]})
    return EXIT_OK


def cmd_anonymity(cfg: dict, fmt: str) -> int:
    seed = _seed_from(cfg)
    trials = _require(cfg, "trials", int, lambda v: v >= 2)
    n = _size_from(cfg, 2)
    protocol = _require(cfg, "protocol", str, lambda v: v in ("ame", "notification"))
    coalition = _parties(cfg, "coalition")

    def hyp(key: str) -> RoleAssignment:
        spec = _require(cfg, key, dict)
        if spec.get("n", n) != n:
            raise CliError(f"config key {key!r} has n {spec['n']!r}, but the hypotheses share the top-level n {n}")
        return _roles_from({"n": n, **spec})

    hyp_a, hyp_b = hyp("hypothesis_a"), hyp("hypothesis_b")
    sampler = ame_views if protocol == "ame" else notification_views
    try:
        estimate = estimate_anonymity_tvd(
            sampler, hyp_a, hyp_b, coalition, trials, np.random.default_rng(seed)
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit("anonymity", seed, {**asdict(estimate), "protocol": protocol})
    return EXIT_OK


def cmd_experiment(cfg: dict, fmt: str) -> int:
    seed = _seed_from(cfg)
    trials = _require(cfg, "trials", int, lambda v: v >= 1)
    fidelity = _require(cfg, "fidelity", float, lambda v: 0.0 < v <= 1.0)
    source = cfg.get("source", "werner")
    if source not in ("werner", "ghz_prime"):
        raise CliError(f"config key 'source' must be 'werner' or 'ghz_prime', got {source!r}")
    try:
        report = reproduce_experiment(
            fidelity,
            trials,
            np.random.default_rng(seed),
            from_ghz_prime=source == "ghz_prime",
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit("experiment", seed, report.to_dict())
    return EXIT_OK


def cmd_notify_demo(cfg: dict, fmt: str) -> int:
    roles = _roles_from(cfg)
    seed = _seed_from(cfg)
    target = cfg.get("target")
    if target is None:
        target = min(roles.receivers) if roles.receivers else 0
    if not isinstance(target, int) or isinstance(target, bool) or not 0 <= target < roles.n:
        raise CliError(f"config key 'target' must be a party id, got {target!r}")

    bundle = RngBundle.from_seed(seed, roles.n)
    net = Network(roles.n, bundle.network)
    outcome = notification(roles, net, bundle)

    table = outcome.shares[target].tolist()
    partials = np.bitwise_xor.reduce(outcome.shares[target], axis=0).tolist()
    n = roles.n
    print(f"notification share table for target {target} (seed {seed})")
    header = "dealer\\holder | " + " ".join(f"{k}" for k in range(n)) + " | parity"
    print(header)
    print("-" * len(header))
    for dealer, row in enumerate(table):
        tag = " (alice)" if dealer == roles.alice else ""
        print(f"{dealer:>13} | " + " ".join(map(str, row)) + f" | {sum(row) % 2}{tag}")
    print("-" * len(header))
    print(f"{'column xor':>13} | " + " ".join(map(str, partials)) + f" | {sum(partials) % 2}")
    print(f"notified bits: {''.join(map(str, outcome.notified))} (receivers {sorted(roles.receivers)})")
    return EXIT_OK


# name: (handler, *the formats it prints); the first format is the default.
COMMANDS = {
    "run": (cmd_run, "json"),
    "theorem1": (cmd_theorem1, "csv", "json"),
    "anonymity": (cmd_anonymity, "json"),
    "experiment": (cmd_experiment, "json", "csv"),
    "notify-demo": (cmd_notify_demo, "json"),
}

_PARSER = _Parser(prog="anoncka", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to the JSON run configuration")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
_PARSER.add_argument(
    "--format",
    help="; ".join(f"{name}: {' or '.join(formats)}" for name, (_, *formats) in COMMANDS.items())
    + " (the first is the default)",
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        handler, *formats = COMMANDS[args.command]
        fmt = formats[0] if args.format is None else args.format
        if fmt not in formats:
            raise CliError(f"command {args.command!r} only supports --format {' or '.join(formats)}")
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg = {**cfg, "seed": args.seed}
        return handler(cfg, fmt)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
