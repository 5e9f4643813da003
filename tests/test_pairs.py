"""``tools/pairs.py`` summarises alternating parent/change benchmark runs."""

from __future__ import annotations

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import pairs

    return pairs


def metrics(rate: float, rss: float = 38.5) -> dict[str, float]:
    return {"setup_s": 0.25, "ops_per_s": rate, "peak_rss_mb": rss, "op_ok_ratio": 1.0}


def test_summary_gives_quartiles_per_side_and_counts_wins_without_ties(pairs):
    runs = [
        (metrics(100.0), metrics(110.0, 38.6)),
        (metrics(102.0), metrics(101.0, 38.6)),
        (metrics(98.0), metrics(98.0, 38.7)),
        (metrics(104.0), metrics(120.0, 38.8)),
        (metrics(96.0), metrics(105.0, 38.9)),
    ]
    summary = pairs.summarize(runs)
    assert summary["pairs"] == 5
    assert (summary["wins"], summary["losses"]) == (3, 1)  # the tie at 98 counts for neither
    assert summary["parent"]["ops_per_s"] == (98.0, 100.0, 102.0)
    assert summary["change"]["ops_per_s"] == (101.0, 105.0, 110.0)
    assert summary["change"]["peak_rss_mb"] == pytest.approx((38.6, 38.7, 38.8))
    assert summary["parent"]["setup_s"] == (0.25, 0.25, 0.25)
    assert pairs.summarize(runs[:1])["parent"]["ops_per_s"] == (100.0, 100.0, 100.0)


def test_seed_ranges_are_inclusive_and_checkouts_must_match_in_path_length(pairs, tmp_path):
    assert list(pairs.seed_range("31-34")) == [31, 32, 33, 34]
    assert list(pairs.seed_range("7")) == [7]
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_:
        pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "verify-mc", "--seeds", "1-2"])
    assert exit_.value.code == 2


def test_verdicts_follow_the_bound_and_the_parents_quartile_spread(pairs):
    parent = [100.0, 102.0, 98.0, 104.0, 96.0]  # median 100, quartiles 98 to 102
    # 75 is 25% below the parent's median: past a 20% bound on a higher-is-better metric
    assert pairs.verdict(parent, [75.0, 76.0, 74.0], "higher", 0.2) == "worse"
    # a lower-is-better metric 10% over with a 5% bound
    assert pairs.verdict(parent, [110.0, 111.0, 109.0], "lower", 0.05) == "worse"
    # 1% down, but the parent's spread of 4 exceeds a 2% share of its median
    assert pairs.verdict(parent, [99.0, 100.0, 98.0], "higher", 0.02) == "unresolved"
    # ...unless every change run beats every parent run
    assert pairs.verdict(parent, [105.0, 106.0, 107.0], "higher", 0.02) == "within bound"
    assert pairs.verdict(parent, [99.0, 100.0, 98.0], "higher", 0.2) == "within bound"


def test_gates_read_better_and_bound_from_the_checkouts_benchmark(pairs):
    gates = pairs.gates(TOOLS.parent)
    assert set(gates) == set(pairs.METRICS)
    assert all(better in ("higher", "lower") and bound > 0 for better, bound in gates.values())


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_parents_spread(pairs):
    parent = [100.0, 102.0, 98.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 100.0]  # median 100, quartiles 98.25 to 101.75
    shown = [p + 5.0 for p in parent[:9]] + [parent[9] - 1.0]  # 9 wins of 10, median 104.5
    assert pairs.gain(parent, shown, "higher") == "gain shown"
    # 8 wins, a tie and a loss: the median is as far ahead, but the wins fall short
    few_wins = [p + 5.0 for p in parent[:8]] + [parent[8], parent[9] - 1.0]
    assert pairs.gain(parent, few_wins, "higher") == "gain not shown"
    # every pair won, but by a median 2 ahead, inside the parent's spread of 3.5
    narrow = [p + 2.0 for p in parent]
    assert pairs.gain(parent, narrow, "higher") == "gain not shown"
    # a lower-is-better metric gains by going down
    assert pairs.gain(parent, [p - 5.0 for p in parent], "lower") == "gain shown"
    assert pairs.gain(parent, shown, "lower") == "gain not shown"
