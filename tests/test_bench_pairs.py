"""The summary of ``scripts/bench_pairs.py``, on hand-made pair records; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": parent, "change": change}


PAIRS = [
    pair(1, {"correct": True, "op_p75_ms": 100.0, "accuracy_mean": 0.9, "failed": 0},
         {"correct": True, "op_p75_ms": 80.0, "accuracy_mean": 0.9, "failed": 0}),
    pair(2, {"correct": True, "op_p75_ms": 110.0, "accuracy_mean": 0.8, "failed": 0},
         {"correct": True, "op_p75_ms": 90.0, "accuracy_mean": 0.85, "failed": 1}),
    pair(3, {"correct": True, "op_p75_ms": 90.0, "accuracy_mean": 0.7, "failed": 0},
         {"correct": True, "op_p75_ms": 95.0, "accuracy_mean": 0.6, "failed": 0}),
    pair(4, {"correct": True, "op_p75_ms": 130.0, "accuracy_mean": 1.0, "failed": 0},
         {"correct": True, "op_p75_ms": 70.0, "accuracy_mean": 1.0, "failed": 0}),
]


def test_summary_of_each_metric():
    summary = bench_pairs.summarize(PAIRS)
    assert sorted(summary) == ["accuracy_mean", "failed", "op_p75_ms"]  # not "correct"
    # lower is better: the change reads lower in three pairs
    assert summary["op_p75_ms"] == {
        "parent": {"median": 105.0, "q1": 97.5, "q3": 115.0},
        "change": {"median": 85.0, "q1": 77.5, "q3": 91.25},
        "change_wins": 3,
        "ties": 0,
    }
    # higher is better
    assert summary["accuracy_mean"]["change_wins"] == 1
    assert summary["accuracy_mean"]["ties"] == 2
    assert (summary["failed"]["change_wins"], summary["failed"]["ties"]) == (0, 3)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


@pytest.mark.parametrize("text, seeds", [
    ("401", [401]),
    ("401-404", [401, 402, 403, 404]),
    ("401-402,409", [401, 402, 409]),
])
def test_seed_lists(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_runs_name_a_workload_and_its_seeds():
    assert bench_pairs.parse_runs(["align_wide:1-2", "pipeline_cc:5"]) == {
        "align_wide": [1, 2], "pipeline_cc": [5],
    }
    with pytest.raises(SystemExit):
        bench_pairs.parse_runs(["align_wide"])
