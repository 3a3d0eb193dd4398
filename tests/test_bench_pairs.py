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


@pytest.mark.parametrize("settings", [
    {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"},
    {"PYTHONDONTWRITEBYTECODE": None, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": None},
])
def test_the_environment_of_the_runs_is_recorded(tmp_path, monkeypatch, settings):
    for name, value in settings.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    seen = []

    def bench(tree, workload, seed, seconds, trace):
        seen.append({name: bench_pairs.child_env().get(name) for name in settings})
        return detail({}) | {"host_start": {}}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, directory: "abc1234")
    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["--parent", "HEAD", "--slug", "t", "--run", "w:1"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["environment"] == settings
    assert seen == [settings, settings]  # as both runs of the pair saw them


def runs(*values):
    return [float(v) for v in values]


PARENT = runs(100, 102, 98, 101, 99, 103, 97, 100, 101, 99)  # quartiles 99, 101


@pytest.mark.parametrize("change, better, bound, expected", [
    # 10 of 10 wins, median gap 5 > quartile distance 2
    (runs(95, 97, 93, 96, 94, 98, 92, 95, 96, 94), "lower", 0.25, "gain"),
    # 9 of 10 wins is enough
    (runs(95, 97, 93, 96, 94, 98, 92, 95, 96, 104), "lower", 0.25, "gain"),
    # 8 of 10 wins is not
    (runs(95, 97, 93, 96, 94, 98, 92, 95, 106, 104), "lower", 0.25, "no regression"),
    # every pair won, but the median gap 1 is inside the quartile distance 2
    (runs(99, 101, 97, 100, 98, 102, 96, 99, 100, 98), "lower", 0.25, "no regression"),
    # 10% worse against a 5% bound
    (runs(110, 112, 108, 111, 109, 113, 107, 110, 111, 109), "lower", 0.05, "regression"),
    # the same runs stay inside a 25% bound
    (runs(110, 112, 108, 111, 109, 113, 107, 110, 111, 109), "lower", 0.25, "no regression"),
    # identical runs
    (PARENT, "lower", 0.25, "no regression"),
    # higher is better: the same lower runs are a regression
    (runs(95, 97, 93, 96, 94, 98, 92, 95, 96, 94), "higher", 0.02, "regression"),
    (runs(105, 107, 103, 106, 104, 108, 102, 105, 106, 104), "higher", 0.02, "gain"),
])
def test_verdict_on_a_metric(change, better, bound, expected):
    assert bench_pairs.verdict(PARENT, change, better, bound) == expected


WIDE = runs(80, 120, 90, 110, 70, 130, 100, 85, 115, 95)  # quartiles 86.25, 113.75


@pytest.mark.parametrize("change, expected", [
    # the parent's spread (27.5) is wider than the bound (10% of 97.5)
    (runs(81, 121, 91, 111, 71, 131, 101, 86, 116, 96), "unresolved"),
    # a gap wider than the spread is a gain
    (runs(60, 62, 58, 61, 59, 63, 57, 60, 61, 59), "gain"),
    # a median worse by more than the bound, but runs that overlap the
    # parent's, cannot be told from the parent's own spread
    (runs(110, 140, 100, 130, 90, 150, 120, 105, 135, 115), "unresolved"),
    # every change run reads worse than every parent run
    (runs(*[140] * 10), "regression"),
])
def test_a_wide_parent_spread_is_unresolved(change, expected):
    assert bench_pairs.verdict(WIDE, change, "lower", 0.1) == expected


def test_a_wide_spread_is_resolved_when_every_change_run_reads_better():
    parent = runs(70, 130, 70, 130, 70, 130, 70, 130, 70, 130)  # quartiles 70, 130
    # every pair won, but the median gap 31 is inside the quartile distance 60
    assert bench_pairs.verdict(parent, runs(*[69] * 10), "lower", 0.1) == "no regression"
    assert bench_pairs.verdict(parent, runs(*[71] * 10), "lower", 0.1) == "unresolved"


def test_verdicts_cover_the_gated_metrics_the_pairs_record():
    gated = [{"name": "op_p75_ms", "better": "lower", "bound": 0.25},
             {"name": "accuracy_mean", "better": "higher", "bound": 0.02},
             {"name": "setup_s", "better": "lower", "bound": 0.25}]
    assert bench_pairs.verdicts(PAIRS, gated) == {
        "op_p75_ms": "no regression",  # 3 of 4 wins
        # the parent's quartiles (0.775, 0.925) lie further apart than 2%
        "accuracy_mean": "unresolved",
    }


def test_the_benchmark_file_is_read_not_written():
    before = bench_pairs.BENCHMARK.read_bytes()
    gated = json.loads(before)["end_to_end"]
    assert {metric["better"] for metric in gated} <= {"lower", "higher"}
    assert bench_pairs.verdicts(PAIRS, gated)
    assert bench_pairs.BENCHMARK.read_bytes() == before
