"""The summary and the source line counts of ``scripts/bench_pairs.py``, on
hand-made pair records and temporary trees; no benchmark runs here."""

import importlib.util
import json
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


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_each_side_records_its_source_line_count(tmp_path, monkeypatch):
    change = tmp_path / "change"
    write_tree(change, {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n",
                        "src/pkg/data.txt": "not python\n", "tests/test_a.py": "t = 1\n"})
    parent_files = {"src/pkg/a.py": "x = 1\ny = 2\nw = 4\nv = 5\n"}

    def unpack(rev, directory):
        write_tree(directory, parent_files)
        return "abc1234"

    def bench(tree, workload, seed, seconds, trace):
        metrics = {"op_p75_ms": {"value": 1.0}}
        return {"result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
                "extra": {"op_p50_ms": 1.0}, "host_start": {}}

    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs, "unpack", unpack)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["--parent", "HEAD", "--slug", "t", "--run", "w:1"]) == 0
    report = json.loads((change / "BENCH_t.json").read_text())
    assert report["src_lines"] == {"parent": 4, "change": 3}
    assert bench_pairs.src_lines(change) == 3


def detail(extra):
    metrics = {"op_p75_ms": {"value": 900.0}}
    return {"result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics},
            "extra": {"op_p50_ms": 850.0, "ops": 3, "op_ms": [1.0, 2.0, 3.0], **extra}}


def test_pipeline_stage_medians_are_kept():
    stages = {"align_cli_s": 0.4, "cc_s": 0.1, "proxy_wall_s": 0.35, "proxy_run_s": 0.3,
              "proxy_c_bytes": 34600.0}
    assert bench_pairs.end_to_end(detail(stages)) == {
        "correct": True, "attempted": 3, "failed": 0, "op_p50_ms": 850.0, "op_p75_ms": 900.0,
        **stages,
    }
    # a workload without stages keeps only its metrics; other extras are dropped
    assert sorted(bench_pairs.end_to_end(detail({}))) == [
        "attempted", "correct", "failed", "op_p50_ms", "op_p75_ms",
    ]
    # the summary then shows which stage moved
    pairs = [pair(1, bench_pairs.end_to_end(detail(stages)),
                  bench_pairs.end_to_end(detail(dict(stages, cc_s=0.05))))]
    summary = bench_pairs.summarize(pairs)
    assert summary["cc_s"]["change_wins"] == 1
    assert summary["proxy_run_s"]["ties"] == 1
