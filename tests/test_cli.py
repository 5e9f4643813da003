"""End-to-end tests for the batch runner: exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anoncka.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from anoncka.netmodel import Network, RoleAssignment
from anoncka.protocols import notification
from anoncka.rng import RngBundle


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_RUN = {
    "n": 4,
    "alice": 0,
    "receivers": [1, 2],
    "L": 40,
    "D": 4,
    "noise": {"model": "pure"},
    "seed": 7,
}


def test_run_pure_source_validates(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_RUN)
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["validated"] is True
    assert payload["command"] == "avka"
    assert set(payload["key_bits"]) == {"0", "1", "2"}
    lengths = {len(v) for v in payload["key_bits"].values()}
    assert len(lengths) == 1


@pytest.mark.parametrize("n, receivers", [(5, [1]), (6, [2, 4])])
def test_run_view_entries_count_every_visible_message(tmp_path, capsys, n, receivers):
    # the coalition is every bystander, so only the h participants are honest:
    # it sees (n+1)(n^2 - h^2) notification messages, the n announcements and
    # the coin of each of the L rounds, and n more per verification round
    honest = 1 + len(receivers)
    bystanders = [p for p in range(1, n) if p not in receivers]
    length = 12
    cfg = write_config(
        tmp_path,
        {**BASE_RUN, "n": n, "receivers": receivers, "L": length, "D": 2,
         "adversary": {"kind": "honest_curious", "coalition": bystanders}},
    )
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    payload = json.loads(out)
    verify_rounds = payload["round_types"].count("verification")
    assert code == EXIT_OK and 0 < verify_rounds < length
    expected = (n + 1) * (n**2 - honest**2) + (n + 1) * length + n * verify_rounds
    assert payload["adversary"]["view_entries"] == expected


def test_run_dishonest_ghz_minus_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {**BASE_RUN, "L": 60, "D": 2, "adversary": {"kind": "dishonest_source", "state": "ghz_minus"}},
    )
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    assert code == EXIT_REJECTED
    payload = json.loads(out)
    assert payload["validated"] is False
    accepted = [r["accepted"] for r in payload["rounds"] if r["type"] == "verification"]
    assert accepted and not any(accepted)


def test_run_with_a_denominator_too_large_for_a_float_verifies_every_round(tmp_path, capsys):
    # 1 / D underflows to 0, so every round is a verification round, and a
    # pure source passes every test.
    code, out, err = run_cli(capsys, "run", "--config", write_config(tmp_path, {**BASE_RUN, "D": 10**400}))
    payload = json.loads(out)
    assert (code, err) == (EXIT_OK, "") and payload["validated"]
    assert payload["round_types"] == ["verification"] * BASE_RUN["L"]
    assert all(r["accepted"] for r in payload["rounds"])


# Coalitions over the corruption bound n - 2: a withholder (a coalition of one)
# at n=2, and a dishonest source (no corrupted party) at n=1.
OVER_BOUND_RUNS = {
    "withholding_n2": {
        **{"n": 2, "alice": 0, "receivers": [], "L": 3, "D": 2, "seed": 1},
        "adversary": {"kind": "withholding", "party": 1},
    },
    "dishonest_source_n1": {
        **{"n": 1, "alice": 0, "receivers": [], "L": 3, "D": 2, "seed": 1},
        "adversary": {"kind": "dishonest_source", "state": "ghz"},
    },
}


@pytest.mark.parametrize("name", OVER_BOUND_RUNS)
def test_run_coalition_over_the_bound_is_usage_error(name, tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "--config", write_config(tmp_path, OVER_BOUND_RUNS[name]))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "corruption bound" in err


def test_run_missing_receivers_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {k: v for k, v in BASE_RUN.items() if k != "receivers"})
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert code == EXIT_USAGE
    assert out == ""
    assert "receivers" in err


def test_run_without_denominator_runs_unverified_variant(tmp_path, capsys):
    cfg = write_config(tmp_path, {k: v for k, v in BASE_RUN.items() if k != "D"})
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "aka"
    assert len(payload["keys"]["0"]) == 40
    assert len(set(payload["keys"].values())) == 1


def test_run_werner_noise_and_withholding(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            **BASE_RUN,
            "L": 30,
            "D": 2,
            "noise": {"model": "werner", "fidelity": 0.95},
            "adversary": {"kind": "withholding", "party": 3, "basis": "Z"},
        },
    )
    code, out, _ = run_cli(capsys, "run", "--config", cfg)
    payload = json.loads(out)
    assert payload["adversary"]["kind"] == "withholding"
    assert code in (EXIT_OK, EXIT_REJECTED)  # detection is probabilistic per round
    assert len(payload["adversary"]["key_guess"]) == len(payload["key_bits"]["0"])


@pytest.mark.parametrize(
    "cfg",
    [
        {**BASE_RUN, "n": 12, "L": 24, "noise": {"model": "werner", "fidelity": 0.9}},
        {
            **BASE_RUN,
            "n": 16,
            "L": 16,
            "adversary": {"kind": "dishonest_source", "state": "werner", "fidelity": 0.9},
        },
    ],
)
def test_run_werner_noise_beyond_ten_qubits(cfg, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code in (EXIT_OK, EXIT_REJECTED)
    payload = json.loads(out)
    assert payload["roles"]["n"] == cfg["n"]
    assert payload["num_rounds"] == cfg["L"]


@pytest.mark.parametrize("L, D", [(4, 1), (1, 4)])
def test_run_at_sixteen_qubits_without_bystanders_with_one_round_type(L, D, tmp_path, capsys):
    # Every other party a receiver: the carve is dense, its rows 2^15 amplitudes
    # long. D = 1 draws no verification round; one round at D = 4 (seed 7) is a
    # verification round, so no keygen round: each leaves a kernel call with zero rows.
    cfg = {**BASE_RUN, "n": 16, "receivers": list(range(1, 16)), "L": L, "D": D}
    code, out, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["round_types"] == ["keygen" if D == 1 else "verification"] * L
    assert len(set(payload["key_bits"].values())) == 1


def test_unverified_run_draws_its_source_states_per_batch(tmp_path, capsys):
    # Built before the first round, the source's 2000 draws hold about 1000
    # noise basis states of 2^10 amplitudes (16 KB each): a 22 MB peak. Drawn
    # per batch of about 1 MB, the peak stays near 6 MB.
    cfg = {"n": 10, "alice": 0, "receivers": [1, 2], "L": 2000, "noise": {"model": "werner", "fidelity": 0.5}, "seed": 3}
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(json.loads(out)["keys"]["0"]) == 2000
    assert peak < 10 * 2**20


def test_werner_queues_hold_about_one_batch_of_distinct_states(tmp_path, capsys):
    # At n=14 a state is 256 KB, so a queue holds at most four distinct
    # states and reads one batch of four rounds ahead: the peak stays near
    # 5 MB. A queue bounded only by its per-round arrays would take all 80
    # rounds and the ~40 noise basis states among them: a 40 MB peak.
    cfg = {"n": 14, "alice": 0, "receivers": [1, 2], "L": 80, "D": 2, "noise": {"model": "werner", "fidelity": 0.5}, "seed": 3}
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (EXIT_OK, EXIT_REJECTED)
    assert json.loads(out)["num_rounds"] == 80
    assert peak < 12 * 2**20


def test_theorem1_csv_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"n": 4, "trials": 300, "seed": 3, "theta_grid": [0.0, 0.7853981633974483], "fidelity_grid": [0.9]},
    )
    code, out, _ = run_cli(capsys, "theorem1", "--config", cfg)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,accept_rate,stderr,bound,satisfied"
    assert len(lines) == 4
    assert all(line.endswith("True") for line in lines[1:])


def test_theorem1_empty_grid_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 4, "trials": 10, "seed": 1})
    code, out, _ = run_cli(capsys, "theorem1", "--config", cfg)
    assert code == EXIT_OK
    assert out.strip() == "epsilon,accept_rate,stderr,bound,satisfied"


def test_theorem1_too_many_qubits(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 17, "trials": 10, "seed": 1, "theta_grid": [0.0]})
    code, _, err = run_cli(capsys, "theorem1", "--config", cfg)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "n <= 16" in err


def test_theorem1_at_sixteen_qubits(tmp_path, capsys):
    # theta = 0 is GHZ (every shot accepts), theta = pi the -1 eigenstate of
    # every even-Y parity observable (no shot accepts).
    cfg = write_config(
        tmp_path, {"n": 16, "trials": 200, "seed": 1, "theta_grid": [0.0, 3.141592653589793, 1.0], "fidelity_grid": [0.9]}
    )
    code, out, _ = run_cli(capsys, "theorem1", "--config", cfg)
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    assert [float(rows[0][1]), float(rows[1][1])] == [1.0, 0.0]
    assert all(row[4] == "True" for row in rows)


ANON_CFG = {
    "protocol": "ame",
    "n": 4,
    "hypothesis_a": {"alice": 0, "receivers": [1, 2]},
    "hypothesis_b": {"alice": 1, "receivers": [0, 2]},
    "coalition": [3],
    "trials": 600,
    "seed": 5,
}


def test_anonymity_below_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, ANON_CFG)
    code, out, _ = run_cli(capsys, "anonymity", "--config", cfg)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tvd"] < 4 * payload["stderr"]
    assert payload["guessing_bound"] >= 1 / 3


def test_anonymity_coalition_with_alice_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ANON_CFG, "coalition": [0]})
    code, _, err = run_cli(capsys, "anonymity", "--config", cfg)
    assert code == EXIT_USAGE
    assert "Alice" in err


@pytest.mark.parametrize(
    "protocol, n, trials",
    [("ame", 16, 64), ("notification", 16, 1000)],
)
def test_anonymity_at_sixteen_parties_runs_in_bounded_memory(tmp_path, capsys, protocol, n, trials):
    # Unbatched, the 2 x 64 ame runs would hold 2^16 amplitudes (1 MB) per run
    # at once (97 MB peak), and the 2 x 1000 notifications 18 MB of share
    # tables and messages; batches of about 1 MB keep the peak near 6 MB.
    cfg = write_config(tmp_path, {
        "protocol": protocol,
        "n": n,
        "hypothesis_a": {"alice": 0, "receivers": [1, 2]},
        "hypothesis_b": {"alice": 2, "receivers": [0, 1]},
        "coalition": list(range(3, n)),
        "trials": trials,
        "seed": 16,
    })
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "anonymity", "--config", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trials_per_hypothesis"] == trials
    assert payload["tvd"] < 4 * payload["stderr"]
    assert peak < 12 * 2**20


def test_experiment_perfect_fidelity(tmp_path, capsys):
    cfg = write_config(tmp_path, {"fidelity": 1.0, "trials": 150, "seed": 2})
    code, out, _ = run_cli(capsys, "experiment", "--config", cfg)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["avg_p_k"] == 1.0
    assert payload["avg_p_v"] == 1.0


def test_experiment_includes_reference_values(tmp_path, capsys):
    cfg = write_config(tmp_path, {"fidelity": 0.81, "trials": 200, "seed": 2})
    code, out, _ = run_cli(capsys, "experiment", "--config", cfg)
    payload = json.loads(out)
    assert payload["reference_p_k"] == 0.92974
    assert payload["reference_p_v"] == 0.87178
    assert "gap_p_k" in payload and "gap_p_v" in payload


def test_experiment_infeasible_fidelity(tmp_path, capsys):
    cfg = write_config(tmp_path, {"fidelity": 0.05, "trials": 10, "seed": 2})
    code, _, err = run_cli(capsys, "experiment", "--config", cfg)
    assert code == EXIT_USAGE
    assert "fidelity" in err


def test_notify_demo_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 4, "alice": 0, "receivers": [2], "seed": 9})
    code, out, _ = run_cli(capsys, "notify-demo", "--config", cfg)
    assert code == EXIT_OK
    assert "share table for target 2" in out
    assert "(alice)" in out
    assert "notified bits: 0010" in out
    # alice's row parity is 1 for a receiver target, everyone else's is 0
    rows = [line for line in out.splitlines() if "|" in line and not line.startswith("dealer")]
    dealer_rows = [r for r in rows if "(alice)" in r or r.strip()[0].isdigit()]
    parities = [int(r.split("|")[2].strip().split()[0]) for r in dealer_rows]
    assert parities == [1, 0, 0, 0]


@pytest.mark.parametrize("n, target", [(4, 2), (5, 3), (5, 0)])
def test_notify_demo_table_matches_transcript_shares(tmp_path, capsys, n, target):
    # The printed table is the dealt table: each (dealer, holder) cell equals
    # the bits of that share's entry in the notification transcript.
    cfg = {"n": n, "alice": 1, "receivers": [3], "target": target, "seed": 17}
    code, out, _ = run_cli(capsys, "notify-demo", "--config", write_config(tmp_path, cfg))
    assert code == EXIT_OK
    rows = [line.split("|") for line in out.splitlines() if "|" in line and not line.startswith("dealer")]
    printed = [cells[1].split() for cells in rows[:n]]
    bundle = RngBundle.from_seed(17, n)
    net = Network(n, bundle.network)
    notification(RoleAssignment(n, 1, frozenset({3})), net, bundle)
    shares = {(e.sender, e.receiver): e.bits for e in net.transcript if e.phase == f"notify[target={target}]:shares"}
    assert printed == [[shares[dealer, holder] for holder in range(n)] for dealer in range(n)]
    partials = [e.bits for e in net.transcript if e.phase == f"notify[target={target}]:partials"]
    assert rows[n][1].split() == partials


def test_unknown_command_is_usage_error(capsys):
    code = main(["bogus"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error" in captured.err


def test_missing_config_file(capsys):
    code = main(["run", "--config", "/nonexistent/cfg.json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "cannot read" in captured.err


def test_config_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    # json.load raises a plain ValueError, not a JSONDecodeError, on an
    # integer of more than 4300 digits.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_RUN).replace('"D": 4', '"D": ' + "1" * 5000))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: config ")


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_RUN)
    _, out_a, _ = run_cli(capsys, "run", "--config", cfg, "--seed", "99")
    _, out_b, _ = run_cli(capsys, "run", "--config", cfg)
    assert json.loads(out_a)["seed"] == 99
    assert out_a != out_b


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("run", BASE_RUN),
        ("theorem1", {"n": 3, "trials": 150, "seed": 4, "theta_grid": [0.3, 1.1]}),
        ("anonymity", {**ANON_CFG, "trials": 300}),
        ("experiment", {"fidelity": 0.85, "trials": 100, "seed": 6}),
        ("notify-demo", {"n": 4, "alice": 1, "receivers": [0, 3], "seed": 12}),
    ],
)
def test_byte_identical_reruns(command, cfg, tmp_path, capsys):
    path = write_config(tmp_path, cfg)
    code_a, out_a, _ = run_cli(capsys, command, "--config", path)
    code_b, out_b, _ = run_cli(capsys, command, "--config", path)
    assert code_a == code_b
    assert out_a == out_b


REPO = Path(__file__).resolve().parents[1]


def run_cli_process(*argv, hash_seed="0"):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-m", "anoncka.cli", *argv], capture_output=True, text=True, env=env, check=False
    )


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("theorem1", {"n": 4, "trials": 10, "seed": 1, "theta_grid": ["x"]}),
        ("anonymity", {**ANON_CFG, "coalition": ["a"]}),
        ("run", {**BASE_RUN, "adversary": {"kind": "honest_curious", "coalition": ["a"]}}),
        ("run", {**BASE_RUN, "noise": {"model": "ghz_prime", "fidelity": [1]}}),
        ("run", {**BASE_RUN, "n": 17}),
        (
            "run",
            {**BASE_RUN, "adversary": {"kind": "dishonest_source", "state": "rotated", "theta": float("nan")}},
        ),
        ("run", {**BASE_RUN, "seed": -1}),
        ("theorem1", {"n": 4, "trials": 10, "seed": -1, "theta_grid": [0.3]}),
        ("notify-demo", {"n": 4, "alice": 0, "receivers": [2], "target": True, "seed": 31}),
        ("notify-demo", {"n": 17, "alice": 0, "receivers": [2], "seed": 31}),
        ("anonymity", {**ANON_CFG, "n": 17}),
        ("anonymity", {**ANON_CFG, "protocol": "notification", "n": 17}),
        ("theorem1", {"n": 4, "trials": 10, "seed": 1, "theta_grid": [10**400]}),
        ("experiment", {"fidelity": 10**400, "trials": 10, "seed": 1}),
        ("run", {**BASE_RUN, "adversary": {"kind": "dishonest_source", "state": "rotated", "theta": 10**400}}),
        (
            "anonymity",
            {**ANON_CFG, **{f"hypothesis_{h}": {**ANON_CFG[f"hypothesis_{h}"], "n": 6} for h in "ab"}, "coalition": [5]},
        ),
    ],
)
def test_malformed_config_is_usage_error_without_traceback(command, cfg, tmp_path):
    proc = run_cli_process(command, "--config", write_config(tmp_path, cfg))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command,cfg,key,party",
    [
        ("run", {**BASE_RUN, "receivers": [1, 1]}, "receivers", 1),
        ("run", {**BASE_RUN, "n": 6, "adversary": {"kind": "honest_curious", "coalition": [3, 3, 4]}}, "coalition", 3),
        ("notify-demo", {"n": 4, "alice": 0, "receivers": [2, 3, 2], "seed": 9}, "receivers", 2),
        ("anonymity", {**ANON_CFG, "coalition": [3, 3]}, "coalition", 3),
        ("anonymity", {**ANON_CFG, "hypothesis_b": {"alice": 1, "receivers": [0, 2, 0]}}, "receivers", 0),
    ],
)
def test_repeated_party_is_usage_error(command, cfg, key, party, tmp_path, capsys):
    """A party named twice is an error, not silently counted once."""
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: config key '{key}' names party {party} more than once\n"


# command: (a small config, the formats it prints, the default first)
FORMAT_RUNS = {
    "run": ({**BASE_RUN, "L": 8}, ("json",)),
    "theorem1": ({"n": 3, "trials": 20, "seed": 4, "theta_grid": [0.3]}, ("csv", "json")),
    "anonymity": ({**ANON_CFG, "trials": 40}, ("json",)),
    "experiment": ({"fidelity": 0.9, "trials": 10, "seed": 6}, ("json", "csv")),
    "notify-demo": ({"n": 4, "alice": 0, "receivers": [2], "seed": 9}, ("json",)),
}


def printed_format(out: str) -> str:
    try:
        json.loads(out)
        return "json"
    except ValueError:
        return "csv" if "," in out.splitlines()[0] else "table"


@pytest.mark.parametrize("fmt", ["json", "csv", None])
@pytest.mark.parametrize("command", FORMAT_RUNS)
def test_format_flag_per_command(command, fmt, tmp_path, capsys):
    cfg, formats = FORMAT_RUNS[command]
    flag = [] if fmt is None else ["--format", fmt]
    if fmt is None or fmt in formats:
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, cfg), *flag)
        assert (code, err) == (EXIT_OK, "")
        # notify-demo's one format is its share table
        assert printed_format(out) == ("table" if command == "notify-demo" else fmt or formats[0])
    else:
        # the format is checked before the config is read
        code, out, err = run_cli(capsys, command, "--config", "/nonexistent/cfg.json", *flag)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: command '{command}' only supports --format {' or '.join(formats)}\n"


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = write_config(tmp_path, FORMAT_RUNS["notify-demo"][0])
    assert [run_cli(capsys, "notify-demo", "--config", cfg)[0] for _ in range(2)] == [EXIT_OK, EXIT_OK]
    assert built == []


def test_anonymity_output_independent_of_hash_seed():
    config = str(REPO / "configs" / "anonymity.json")
    outs = [run_cli_process("anonymity", "--config", config, hash_seed=h).stdout for h in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]


CONFIG_COMMANDS = {
    "run.json": "run",
    "run_withholding.json": "run",
    "theorem1.json": "theorem1",
    "anonymity.json": "anonymity",
    "experiment.json": "experiment",
    "notify_demo.json": "notify-demo",
}
FUZZ_CAPS = {"trials": 20, "L": 16, "n": 12}  # keeps one example well under a second
# negative ints get their own branch so that out-of-range values come up often
JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, -1) | st.integers(0, 20) | st.floats() | st.text(max_size=4)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


def key_paths(cfg: dict, prefix: tuple = ()):
    for key, value in cfg.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


@settings(
    max_examples=800,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_sample_configs_never_raise(data, tmp_path):
    """One key of one sample config set to any JSON value exits 0, 1 or 2 and never raises."""
    name = data.draw(st.sampled_from(sorted(CONFIG_COMMANDS)), label="config")
    cfg = json.loads((REPO / "configs" / name).read_text())
    path = data.draw(st.sampled_from(list(key_paths(cfg))), label="key")
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES, label="value")
    for key, cap in FUZZ_CAPS.items():
        value = cfg.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value > cap:
            cfg[key] = cap
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main([CONFIG_COMMANDS[name], "--config", write_config(tmp_path, cfg)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_REJECTED)


@st.composite
def small_runs(draw):
    """A run config: n in 1..5, L in {0, 1, 3}, D absent, 1 or 2, any or no
    adversary, and parties drawn from -1..n, one out of range on either side."""
    n = draw(st.integers(1, 5), label="n")
    party = st.integers(-1, n)
    parties = st.lists(party, max_size=n)

    def spec(kind, **fields):
        return st.fixed_dictionaries({"kind": st.just(kind), **fields})

    adversary = st.one_of(
        spec("honest_curious", coalition=parties),
        spec("withholding", party=party, basis=st.sampled_from("XYZ")),
        spec("dishonest_source", state=st.sampled_from(["ghz", "ghz_minus", "zeros"])),
        spec("dishonest_source", state=st.just("rotated"), theta=st.sampled_from([0.0, 0.7])),
        spec("dishonest_source", state=st.just("werner"), fidelity=st.sampled_from([0.4, 0.9])),
    )
    required = {
        "n": st.just(n),
        "alice": party,
        "receivers": parties,
        "L": st.sampled_from([0, 1, 3]),
        "seed": st.integers(0, 3),
    }
    optional = {"D": st.sampled_from([1, 2]), "adversary": adversary}
    return draw(st.fixed_dictionaries(required, optional=optional), label="config")


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=small_runs())
def test_small_network_runs_never_raise(cfg, tmp_path):
    """A small network's run, with any adversary and party lists, exits 0, 1 or 2 and never raises."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["run", "--config", write_config(tmp_path, cfg)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_REJECTED)


# The avka-n16 benchmark workload's run: n=16, D=4, honest-but-curious coalition {3..15}.
N16_RUN = {
    "n": 16,
    "alice": 0,
    "receivers": [1, 2],
    "L": 16,
    "D": 4,
    "noise": {"model": "pure"},
    "adversary": {"kind": "honest_curious", "coalition": list(range(3, 16))},
    "seed": 5,
}
# Source paths no sample config takes: a Werner source without D, a dishonest
# Werner mixture (drawn from the adversary stream), and a noisy GHZ' source.
SOURCE_RUNS = {
    "werner_aka": {"n": 6, "alice": 0, "receivers": [1, 3], "L": 300, "noise": {"model": "werner", "fidelity": 0.7}, "seed": 4},
    "dishonest_werner": {
        "n": 5,
        "alice": 0,
        "receivers": [1],
        "L": 150,
        "D": 2,
        "adversary": {"kind": "dishonest_source", "state": "werner", "fidelity": 0.75},
        "seed": 11,
    },
    "ghz_prime_werner": {
        "n": 4,
        "alice": 0,
        "receivers": [1, 2],
        "L": 150,
        "D": 2,
        "noise": {"model": "ghz_prime", "fidelity": 0.85},
        "adversary": {"kind": "honest_curious", "coalition": [3]},
        "seed": 13,
    },
}
# avka queues: an n=14 pure source with a withholder, whose four-round batches
# are carved together; an n=16 pure source with a withholder, carved on its
# support with the withheld qubit kept; an n=14 Werner mixture, whose queues
# hold several distinct states; and an n=16 Werner mixture, whose one-round
# batches are carved one by one.
QUEUE_RUNS = {
    "n14_withholding": {
        "n": 14,
        "alice": 0,
        "receivers": [2, 9],
        "L": 40,
        "D": 2,
        "noise": {"model": "pure"},
        "adversary": {"kind": "withholding", "party": 5, "basis": "X"},
        "seed": 31,
    },
    "n16_withholding": {
        "n": 16,
        "alice": 0,
        "receivers": [2, 11],
        "L": 24,
        "D": 2,
        "noise": {"model": "pure"},
        "adversary": {"kind": "withholding", "party": 7, "basis": "X"},
        "seed": 47,
    },
    "n14_werner": {"n": 14, "alice": 0, "receivers": [1, 2], "L": 40, "D": 2, "noise": {"model": "werner", "fidelity": 0.8}, "seed": 41},
    "n16_werner": {"n": 16, "alice": 0, "receivers": [1, 2], "L": 12, "D": 3, "noise": {"model": "werner", "fidelity": 0.8}, "seed": 37},
}
# An ame anonymity estimate at n=16, whose runs are carved in chunks, and a
# notification estimate at n=6 (projected, as its raw views are distinct).
ANONYMITY_RUNS = {
    "n16_ame_anonymity": {
        "protocol": "ame",
        "n": 16,
        "hypothesis_a": {"alice": 0, "receivers": [1, 2]},
        "hypothesis_b": {"alice": 1, "receivers": [0, 2]},
        "coalition": [3, 4],
        "trials": 300,
        "seed": 43,
    },
    "n6_notification_anonymity": {
        "protocol": "notification",
        "n": 6,
        "hypothesis_a": {"alice": 0, "receivers": [1]},
        "hypothesis_b": {"alice": 2, "receivers": [5]},
        "coalition": [3, 4],
        "trials": 500,
        "seed": 47,
    },
}
# theorem1 grids whose shots span several batches per state at k=10 and
# several states per batch at k=2; no row with eps > 0 accepts every shot.
# At k=6, Werner queues of many distinct states, and batches that split
# across queues.
THEOREM1_RUNS = {
    "theorem1_k10": {"n": 10, "trials": 150, "seed": 23, "theta_grid": [0.0, 1.0, 2.5], "fidelity_grid": [1.0, 0.6]},
    "theorem1_k2": {
        "n": 2,
        "trials": 1000,
        "seed": 29,
        "theta_grid": [0.0, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.14159265],
        "fidelity_grid": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
    },
    "theorem1_k6": {"n": 6, "trials": 777, "seed": 31, "theta_grid": [0.4, 2.9], "fidelity_grid": [0.95, 0.55]},
}
# An experiment whose trials are not a multiple of its 4096-shot batches.
EXPERIMENT_RUNS = {"experiment_werner": {"fidelity": 0.7, "trials": 5000, "source": "werner", "seed": 31}}
# (exit code, md5 of stdout) of each sample config, of N16_RUN, of SOURCE_RUNS,
# of THEOREM1_RUNS, of EXPERIMENT_RUNS, of QUEUE_RUNS and of ANONYMITY_RUNS.
PINNED_STDOUT = {
    "theorem1.json": (EXIT_OK, "9b651550e6336bffb3caa333d53f92d8"),
    "anonymity.json": (EXIT_OK, "70d5e33b2529a1a291bebeb4430b572d"),
    "experiment.json": (EXIT_OK, "92a02081d0e73b6dda69447b76d913d6"),
    "notify_demo.json": (EXIT_OK, "72e3cc0c086f0862d46acc4938489bb6"),
    "run.json": (EXIT_OK, "35dac1d9c159ea6ff9fb772c50d64927"),
    "run_withholding.json": (EXIT_REJECTED, "b558dc68235f0a6dec5d30c06885379b"),
    "n16": (EXIT_OK, "0dcddaec5931a7d7a5412f8bb59114b6"),
    "werner_aka": (EXIT_OK, "d5dbb40bed7b63f711899d0906b1628e"),
    "dishonest_werner": (EXIT_REJECTED, "9fc2154bde232654f4a54b608edfe0d5"),
    "ghz_prime_werner": (EXIT_REJECTED, "651043da57b18d1d785b69212cd697df"),
    "theorem1_k10": (EXIT_OK, "cd49743585bab6c5d917468bb2f4154d"),
    "theorem1_k2": (EXIT_OK, "539ad67e17930a05ac055378bc5e1dab"),
    "theorem1_k6": (EXIT_OK, "dc2703a1d0ce5bc47e9497821489aac6"),
    "experiment_werner": (EXIT_OK, "0bd99564fc5b06498d21a3097d5486b9"),
    "n14_withholding": (EXIT_REJECTED, "53cc7c34d94cf22ad4cc144c2bbd9739"),
    "n16_withholding": (EXIT_REJECTED, "c3a1b3b0ed024860c308879fbeb8f52e"),
    "n16_werner": (EXIT_OK, "b82fef3e0e69bd4f784d3e91ad8af005"),
    "n14_werner": (EXIT_REJECTED, "b4f1ca909358987ffdb135383246408b"),
    "n16_ame_anonymity": (EXIT_OK, "ca490cce46b7500f9ae5031c3eecd6ee"),
    "n6_notification_anonymity": (EXIT_OK, "be30e4c085ea8ccb91fe30f9e78e3d06"),
}


def test_sample_config_stdout_digests_are_pinned(tmp_path):
    """Same seed, same bytes: every sample config, one n=16 run, the
    SOURCE_RUNS, the THEOREM1_RUNS, the EXPERIMENT_RUNS, the QUEUE_RUNS and
    the ANONYMITY_RUNS print exactly the stdout pinned in PINNED_STDOUT, with
    the pinned exit code.

    A change that alters RNG consumption (and so the printed numbers)
    updates the table and lists the changed outputs and fields in
    CHANGES.md; a speed-up never changes it."""
    runs = {name: (command, str(REPO / "configs" / name)) for name, command in CONFIG_COMMANDS.items()}
    runs["n16"] = ("run", write_config(tmp_path, N16_RUN))
    for name, cfg in SOURCE_RUNS.items():
        runs[name] = ("run", write_config(tmp_path, cfg, f"{name}.json"))
    for name, cfg in THEOREM1_RUNS.items():
        runs[name] = ("theorem1", write_config(tmp_path, cfg, f"{name}.json"))
    for name, cfg in EXPERIMENT_RUNS.items():
        runs[name] = ("experiment", write_config(tmp_path, cfg, f"{name}.json"))
    for name, cfg in QUEUE_RUNS.items():
        runs[name] = ("run", write_config(tmp_path, cfg, f"{name}.json"))
    for name, cfg in ANONYMITY_RUNS.items():
        runs[name] = ("anonymity", write_config(tmp_path, cfg, f"{name}.json"))
    seen = {}
    for name, (command, path) in runs.items():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", path])
        seen[name] = (code, hashlib.md5(sink.getvalue().encode()).hexdigest())
    assert seen == PINNED_STDOUT


# (command, sample config, format, md5 of stdout): the one format of each
# command that PINNED_STDOUT, which prints every default, does not cover.
PINNED_SECOND_FORMATS = [
    ("theorem1", "theorem1.json", "json", "a9ead4f4493fd8899e89ece3c8a4596e"),
    ("experiment", "experiment.json", "csv", "47ee63b1e767ddfb38041b2c58c84253"),
]


@pytest.mark.parametrize("command,config,fmt,digest", PINNED_SECOND_FORMATS)
def test_sample_config_second_format_digests_are_pinned(command, config, fmt, digest, capsys):
    code, out, err = run_cli(capsys, command, "--config", str(REPO / "configs" / config), "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest
