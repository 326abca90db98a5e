import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402
from ab_pairs import alternate, quartiles, source_digest, summarize  # noqa: E402


def test_quartiles_match_perfbench():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    rng = random.Random(0)
    for size in range(1, 10):
        values = rng.choices([0.25, 1.0, 1.0, 2.5, 7.0], k=size)  # ties, unsorted
        assert quartiles(values) == perfbench_run.quartiles(values), values


def test_source_digest_matches_perfbench():
    assert source_digest(ROOT) == perfbench_run.source_digest()


def test_summary_counts_wins_and_compares_with_the_parent_spread():
    parent = [1.0, 1.1, 0.9, 1.2, 1.0]
    change = [0.8, 0.9, 0.95, 0.85, 1.05]
    runs = [
        {"parent": {"wall_s": p, "score": p}, "change": {"wall_s": c, "score": c}}
        for p, c in zip(parent, change)
    ]
    out = summarize(runs, {"wall_s": "lower", "score": "higher"})
    wall = out["wall_s"]
    assert wall["parent"] == {"q1": 0.95, "median": 1.0, "q3": 1.15}
    assert wall["change"]["median"] == 0.9
    assert wall["change_wins"] == 3  # it loses 0.95 to 0.9 and 1.05 to 1.0
    assert wall["pairs"] == 5
    assert round(wall["change_vs_parent"], 12) == -0.1
    # A gain of 0.1 does not exceed the parent's spread of 1.15 - 0.95.
    assert wall["gain_exceeds_parent_iqr"] is False
    score = out["score"]
    assert score["change_wins"] == 2 and score["gain_exceeds_parent_iqr"] is False


def test_summary_gain_beyond_the_spread():
    runs = [{"parent": {"t": p}, "change": {"t": p - 0.5}} for p in (2.0, 2.1, 1.9, 2.0)]
    row = summarize(runs, {"t": "lower"})["t"]
    assert row["change_wins"] == 4
    assert row["gain_exceeds_parent_iqr"] is True


def test_alternate_swaps_the_first_side_every_pair(capsys):
    order = []

    def measure(side, k):
        order.append((k, side))
        return {"metrics": {"t": 1.0 if side == "parent" else 0.5}}

    runs = alternate(3, measure)
    assert order == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                     (2, "parent"), (2, "change")]
    assert [run["first"] for run in runs] == ["parent", "change", "parent"]
    assert summarize([{s: r[s]["metrics"] for s in ("parent", "change")} for r in runs],
                     {"t": "lower"})["t"]["change_wins"] == 3
    assert "pair 1 first change: t 1 -> 0.5" in capsys.readouterr().out
