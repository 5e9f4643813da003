"""Inputs and output checks of the three workloads.

A workload runs as a sequence of slices. Slice ``i`` is one ``anoncka`` CLI
invocation on the config ``config(i)``, which depends only on the workload
seed and ``i``. ``record`` checks the CLI's stdout of each slice against
exact values; ``finish`` adds the checks that need the whole run and returns
the op tally. An op fails when its slice raised or when its output failed a
check; failures are counted, never retried.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spec import WORKLOADS

Z_LIMIT = 4.0


def describe_exception(error: BaseException) -> dict:
    """Error text, the chain of package functions it passed through, and the
    avka round it was raised in (when it came out of ``avka``)."""
    chain, round_index = [], None
    tb = error.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if Path(code.co_filename).parent.name == "anoncka":
            chain.append(code.co_name)
            if code.co_name == "avka":
                round_index = tb.tb_frame.f_locals.get("index")
        tb = tb.tb_next
    return {"error": f"{type(error).__name__}: {error}", "where": " > ".join(chain), "round": round_index}


class Workload:
    """Base: tallies failed cells. A cell is one row of one slice's output;
    ``rows`` cells of ``ops_per_row`` ops each make up a slice."""

    name = ""
    rows = 1
    ops_per_row = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.plan = np.random.default_rng(seed)
        self.slices = 0
        self.failed_cells: dict[tuple[int, int], str] = {}
        self.failures: list[dict] = []

    @property
    def command(self) -> str:
        return WORKLOADS[self.name]["command"]

    @property
    def ops_per_slice(self) -> int:
        return self.rows * self.ops_per_row

    def slice_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def config(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, index: int, rc: int, stdout: str) -> list[tuple[list[int], str]]:
        """Problems with one slice's output, each as (rows, reason)."""
        raise NotImplementedError

    def fail(self, cells, kind: str, detail: dict) -> None:
        """Mark (slice, row) cells failed and keep one record of why."""
        cells = list(cells)
        for cell in cells:
            self.failed_cells.setdefault(cell, kind)
        slices = sorted({index for index, _ in cells})
        where = {"slice": slices[0], "seed": self.slice_seed(slices[0])} if len(slices) == 1 else {"slices": len(slices)}
        self.failures.append({**where, "ops": len(cells) * self.ops_per_row, "kind": kind, **detail})

    def record(self, index: int, rc, stdout: str, error: BaseException | None) -> None:
        self.slices = max(self.slices, index + 1)
        if error is not None:
            self.fail(((index, row) for row in range(self.rows)), "raised", describe_exception(error))
            return
        try:
            problems = self.check(index, rc, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [(list(range(self.rows)), f"unreadable output: {exc!r}")]
        for rows, reason in problems:
            self.fail(((index, row) for row in rows), "wrong", {"error": reason})

    def finish(self) -> dict:
        kinds = list(self.failed_cells.values())
        return {
            "attempted": self.slices * self.ops_per_slice,
            "failed": len(kinds) * self.ops_per_row,
            "wrong": kinds.count("wrong") * self.ops_per_row,
            "failures": self.failures,
        }


class VerifyMc(Workload):
    """``theorem1`` at k=4 on 9 rotated-GHZ angles (0 and pi included) and 5
    Werner fidelities (1.0 included); the grid is fixed per run, each slice
    runs it with its own seed and ``TRIALS`` shots per row."""

    name = "verify-mc"
    K = 4
    TRIALS = 100
    ops_per_row = TRIALS

    def __init__(self, seed: int):
        super().__init__(seed)
        inner = np.sort(self.plan.uniform(0.0, math.pi, 7))
        self.thetas = [0.0, *map(float, inner), math.pi]
        self.fidelities = [1.0, *map(float, np.sort(self.plan.uniform(0.5, 1.0, 4))[::-1])]
        self.rows = len(self.thetas) + len(self.fidelities)
        floor = 2.0**-self.K
        weights = [(f - floor) / (1.0 - floor) for f in self.fidelities]
        self.exact_eps = [abs(math.sin(t / 2.0)) for t in self.thetas] + [1.0 - f for f in self.fidelities]
        self.exact_accept = [(1.0 + math.cos(t)) / 2.0 for t in self.thetas] + [p + (1.0 - p) / 2.0 for p in weights]
        self.hits = [0] * self.rows
        self.shots = [0] * self.rows

    def config(self, index: int) -> dict:
        return {
            "n": self.K,
            "trials": self.TRIALS,
            "seed": self.slice_seed(index),
            "theta_grid": self.thetas,
            "fidelity_grid": self.fidelities,
        }

    def check(self, index, rc, stdout):
        everything = list(range(self.rows))
        lines = stdout.splitlines()
        if rc != 0 or not lines or lines[0] != "epsilon,accept_rate,stderr,bound,satisfied":
            return [(everything, f"exit {rc}, header {lines[:1]}")]
        if len(lines) != self.rows + 1:
            return [(everything, f"{len(lines) - 1} rows, expected {self.rows}")]
        problems = []
        for row, line in enumerate(lines[1:]):
            # The CLI's own "satisfied" verdict is not gated: its stderr is
            # the plug-in one, 0 when every shot accepts, so at small angles
            # it reads False by chance; the pooled test below replaces it.
            eps, rate, _, bound, _ = line.split(",")
            eps, rate, bound = float(eps), float(rate), float(bound)
            hits = rate * self.TRIALS
            if abs(eps - self.exact_eps[row]) > 1e-9:
                problems.append(([row], f"row {row}: epsilon {eps!r}, exact {self.exact_eps[row]!r}"))
            elif abs(bound - (1.0 - eps**2 / 2.0)) > 1e-12:
                problems.append(([row], f"row {row}: bound {bound!r} for epsilon {eps!r}"))
            elif abs(hits - round(hits)) > 1e-6:
                problems.append(([row], f"row {row}: accept rate {rate!r} is not a count over {self.TRIALS}"))
            else:
                self.hits[row] += round(hits)
                self.shots[row] += self.TRIALS
        return problems

    def finish(self) -> dict:
        for row, exact in enumerate(self.exact_accept):
            if not self.shots[row]:
                continue
            rate = self.hits[row] / self.shots[row]
            sigma = math.sqrt(exact * (1.0 - exact) / self.shots[row])
            if abs(rate - exact) > Z_LIMIT * sigma + 1e-12:
                z = (rate - exact) / sigma if sigma else math.inf
                cells = [(index, row) for index in range(self.slices)]
                self.fail(cells, "wrong", {"error": f"row {row}: pooled accept rate {rate!r}, exact {exact!r}, z {z:.2f}"})
        return super().finish()


class AnonNotify(Workload):
    """``anonymity`` with the notification protocol at n=6, coalition {3,4}.
    Both hypotheses put Alice and the receivers among the honest parties, so
    the coalition's view has the same distribution under both."""

    name = "anon-notify"
    N = 6
    COALITION = (3, 4)
    TRIALS = 100
    ops_per_row = 2 * TRIALS

    def __init__(self, seed: int):
        super().__init__(seed)
        honest = [p for p in range(self.N) if p not in self.COALITION]
        m = int(self.plan.integers(1, 3))

        def hypothesis():
            perm = [int(p) for p in self.plan.permutation(honest)]
            return {"alice": perm[0], "receivers": sorted(perm[1 : 1 + m])}

        self.hypothesis_a = hypothesis()
        self.hypothesis_b = hypothesis()
        while self.hypothesis_b == self.hypothesis_a:
            self.hypothesis_b = hypothesis()
        self.excess: list[tuple[int, float, float]] = []

    def config(self, index: int) -> dict:
        return {
            "protocol": "notification",
            "n": self.N,
            "hypothesis_a": self.hypothesis_a,
            "hypothesis_b": self.hypothesis_b,
            "coalition": list(self.COALITION),
            "trials": self.TRIALS,
            "seed": self.slice_seed(index),
        }

    def check(self, index, rc, stdout):
        out = json.loads(stdout)
        excess = out["raw_tvd"] - out["null_mean"]
        bound = min(1.0, 1.0 / (self.N - len(self.COALITION)) + out["tvd"])
        if rc != 0 or out["trials_per_hypothesis"] != self.TRIALS:
            return [([0], f"exit {rc}, trials {out['trials_per_hypothesis']}")]
        if abs(out["tvd"] - max(0.0, excess)) > 1e-12 or abs(out["guessing_bound"] - bound) > 1e-12:
            return [([0], f"tvd {out['tvd']!r} or guessing bound {out['guessing_bound']!r} inconsistent")]
        self.excess.append((index, excess, out["stderr"]))
        return []

    def finish(self) -> dict:
        # One slice's debiased TVD has a heavy upper tail (its stderr comes
        # from 32 permutations), so the 4-stderr test runs on the mean over
        # the run's slices, where that tail averages out.
        if self.excess:
            mean = sum(e for _, e, _ in self.excess) / len(self.excess)
            stderr = math.sqrt(sum(s * s for _, _, s in self.excess)) / len(self.excess)
            if not mean <= Z_LIMIT * stderr:
                cells = [(index, 0) for index, _, _ in self.excess]
                self.fail(cells, "wrong", {"error": f"mean debiased tvd {mean!r} above {Z_LIMIT} stderr {stderr!r}"})
        return super().finish()


class AvkaN16(Workload):
    """``run`` at n=16: Alice 0, receivers {1,2}, ``L`` rounds, D=4, pure
    source, honest-but-curious coalition {3..15}. One op per slice."""

    name = "avka-n16"
    N = 16
    L = 16
    PARTICIPANTS = ("0", "1", "2")

    def config(self, index: int) -> dict:
        return {
            "n": self.N,
            "alice": 0,
            "receivers": [1, 2],
            "L": self.L,
            "D": 4,
            "noise": {"model": "pure"},
            "adversary": {"kind": "honest_curious", "coalition": list(range(3, self.N))},
            "seed": self.slice_seed(index),
        }

    def check(self, index, rc, stdout):
        out = json.loads(stdout)
        keys = out["key_bits"]
        types = out["round_types"]
        verify_rounds = types.count("verification")
        # The coalition sees every broadcast (ame announcements and coin per
        # round, one more announcement per verification round) and every
        # notification message with an endpoint outside the honest {0,1,2}:
        # 16 targets x (256 - 9) shares plus 16 x 16 - 3 x 3 partials.
        view = 17 * 247 + (self.N + 1) * self.L + self.N * verify_rounds
        if rc != 0 or not out["validated"] or out["aborted"]:
            return [([0], f"exit {rc}, validated {out['validated']}, aborted {out['aborted']}")]
        if out["num_rounds"] != self.L or len(types) != self.L:
            return [([0], f"{out['num_rounds']} rounds, expected {self.L}")]
        if sorted(keys) != list(self.PARTICIPANTS) or len(set(keys.values())) != 1:
            return [([0], f"participant keys differ: {keys}")]
        if len(keys["0"]) != self.L - verify_rounds:
            return [([0], f"key length {len(keys['0'])}, keygen rounds {self.L - verify_rounds}")]
        if out["adversary"]["view_entries"] != view:
            return [([0], f"adversary view has {out['adversary']['view_entries']} entries, expected {view}")]
        return []


WORKLOAD_TYPES = {w.name: w for w in (VerifyMc, AnonNotify, AvkaN16)}
