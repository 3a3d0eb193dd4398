"""Paired benchmark runs of a parent commit and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --slug my_change \\
        --run align_wide:401-410 --run align_small:411-413 \\
        --traced align_wide:421-422

The parent commit is unpacked with ``git archive`` into a temporary
directory, and the files git sees in the working tree (tracked and untracked
ones that are not ignored, less deleted ones) are copied into another, so
that neither side starts with bytecode, benchmark output or other ignored
files.  For each workload and seed, ``bench/run.py --workload W --seed S
--seconds 30 --trace 0`` runs in both trees back to back, alternating which
side runs first, so that both sides of a pair share the host's speed phase.
``--traced`` adds ``--trace 1`` pairs, of which only the layer times are
kept.  The summary goes to ``BENCH_<slug>.json`` at the repository root:
every pair's metrics, with the stage medians of a ``pipeline_cc`` run that
show which stage moved; each side's median and quartiles per metric; how
many pairs the change won and how many were ties; a verdict on each
end-to-end metric of ``BENCHMARK.json`` (see ``verdict``); the host record
of the first run; the environment settings that change what a run measures
(``ENVIRONMENT``, null where unset); and each side's source line count
(``src_lines``, the lines of its ``src/**/*.py`` files).  Each run takes the
benchmark's own run time plus its set-up.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"  # read for each end-to-end metric's better and bound
SIDES = ("parent", "change")
# metrics where the larger value is the better one; the rest are better lower
HIGHER_IS_BETTER = frozenset(("accuracy_mean", "accuracy_worst_mean", "attempted"))
RUN_TIMEOUT_S = 600
# the medians of the stages of a pipeline_cc op, and its mean proxy.c size
STAGES = ("align_cli_s", "cc_s", "proxy_wall_s", "proxy_run_s", "proxy_c_bytes")
# settings the benchmark's processes inherit that change what pipeline_cc
# measures: with the first set, each fresh align process compiles proxybench
# from source; the other two size the BLAS thread pool
ENVIRONMENT = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
GAIN_SHARE = 0.9  # the share of all pairs the change must win to claim a gain


def parse_seeds(text: str) -> list[int]:
    """``"401-405,409"`` -> ``[401, 402, 403, 404, 405, 409]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_runs(specs: list[str]) -> dict[str, list[int]]:
    """``["align_wide:401-410"]`` -> ``{"align_wide": [401, ..., 410]}``."""
    runs = {}
    for spec in specs:
        workload, sep, seeds = spec.partition(":")
        if not sep:
            raise SystemExit(f"error: expected WORKLOAD:SEEDS, got {spec!r}")
        runs[workload] = parse_seeds(seeds)
    return runs


def quartiles(values) -> dict[str, float]:
    if len(values) == 1:
        values = values * 2  # one run is its own median and quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, the pairs in which the
    change reads better and the pairs that tie."""
    summary = {}
    for metric in sorted(pairs[0]["parent"]):
        if metric == "correct":
            continue
        sign = 1 if metric in HIGHER_IS_BETTER else -1
        gaps = [sign * (p["change"][metric] - p["parent"][metric]) for p in pairs]
        summary[metric] = {
            **{side: quartiles([p[side][metric] for p in pairs]) for side in SIDES},
            "change_wins": sum(gap > 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps),
        }
    return summary


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric over paired runs, ``better``
    being "lower" or "higher" and ``bound`` the share of the parent's median
    by which the change may read worse:

    * "gain": the change reads better in at least ``GAIN_SHARE`` of the
      pairs, ties counting for neither, and its median is better by more than
      the distance between the parent's quartiles;
    * "unresolved": the parent's quartiles lie further apart than the bound,
      and the change's runs and the parent's overlap: neither every change
      run reads better nor every one reads worse than every parent run;
    * "regression": its median is worse by more than the bound;
    * "no regression": every other case."""
    sign = 1 if better == "higher" else -1
    base = quartiles(parent)
    gap = sign * (quartiles(change)["median"] - base["median"])
    spread = base["q3"] - base["q1"]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    limit = bound * abs(base["median"])
    if wins >= GAIN_SHARE * len(parent) and gap > spread:
        return "gain"
    ours, theirs = [sign * c for c in change], [sign * p for p in parent]
    apart = min(ours) > max(theirs) or max(ours) < min(theirs)
    if spread > limit and not apart:
        return "unresolved"
    if -gap > limit:
        return "regression"
    return "no regression"


def verdicts(pairs: list[dict], gated: list[dict]) -> dict[str, str]:
    """The ``verdict`` on each metric of ``gated``, the ``end_to_end`` list of
    ``BENCHMARK.json``, that the pairs record."""
    return {
        metric["name"]: verdict([p["parent"][metric["name"]] for p in pairs],
                                [p["change"][metric["name"]] for p in pairs],
                                metric["better"], metric["bound"])
        for metric in gated if metric["name"] in pairs[0]["parent"]
    }


def unpack(rev: str, directory: Path) -> str:
    """Write the tree of ``rev`` into ``directory``; returns its short hash."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive), mode="r:") as tar:
        tar.extractall(directory, filter="data")
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def snapshot(directory: Path) -> None:
    """Copy into ``directory`` the files of the working tree that git sees:
    tracked and untracked ones that are not ignored, less deleted ones."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in sorted(set(listed.split("\0")) - {""}):
        source, target = ROOT / name, directory / name
        if os.path.lexists(source):  # a tracked file deleted in the working tree is skipped
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)


def src_lines(tree: Path) -> int:
    """The lines of the ``src/**/*.py`` files of ``tree``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/**/*.py"))


def child_env() -> dict:
    """The environment each benchmark run gets: this one, without ``PYTHONPATH``."""
    return {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``; returns the full record it wrote."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, env=child_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S + 4 * seconds)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads((tree / "bench" / "out" / f"{workload}-trace{trace}.json").read_text())


def end_to_end(detail: dict) -> dict:
    """A run's gated metrics, its median op time and the per-stage medians
    (``STAGES``) that its workload records."""
    result, extra = detail["result"], detail["extra"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "op_p50_ms": extra["op_p50_ms"],
        **{stage: extra[stage] for stage in STAGES if stage in extra},
        **{name: entry["value"] for name, entry in result["metrics"].items()},
    }


def layer_seconds(detail: dict) -> dict:
    return {name: stat["s"] for name, stat in sorted(detail["extra"]["layers"].items())}


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float, trace: int,
              hosts: list) -> list[dict]:
    pairs = []
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            detail = bench(trees[side], workload, seed, seconds, trace)
            hosts.append(detail["host_start"])
            pair[side] = layer_seconds(detail) if trace else end_to_end(detail)
        print(f"{workload} seed {seed} trace {trace}: "
              + "  ".join(f"{side} {pair[side].get('op_p75_ms', pair[side].get('op'))}" for side in SIDES),
              file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEEDS",
                        help="untraced pairs, seeds as 401-410 or 401,403")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEEDS",
                        help="traced pairs, of which the layer times are kept")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    runs, traced = parse_runs(args.run), parse_runs(args.traced)
    if not runs:
        parser.error("give at least one --run")

    command = "python3 bench/run.py --workload W --seed S --seconds {:g} --trace {}"
    report = {
        "command": command.format(args.seconds, 0),
        "pair_order": "each pair runs the parent and the change back to back; "
                      "'first' says which ran first",
        "workloads": {},
    }
    env = child_env()
    report["environment"] = {name: env.get(name) for name in ENVIRONMENT}
    gated = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    hosts = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        report["parent_commit"] = unpack(args.parent, Path(parent))
        snapshot(Path(change))
        trees = {"parent": Path(parent), "change": Path(change)}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for workload, seeds in runs.items():
            pairs = run_pairs(trees, workload, seeds, args.seconds, 0, hosts)
            report["workloads"][workload] = {
                "pairs": pairs, "seeds": seeds, "summary": summarize(pairs),
                "verdicts": verdicts(pairs, gated),
            }
        for workload, seeds in traced.items():
            pairs = run_pairs(trees, workload, seeds, args.seconds, 1, hosts)
            report[f"{workload}_traced"] = {
                "command": command.format(args.seconds, 1),
                "layers_s": {side: [pair[side] for pair in pairs] for side in SIDES},
                "seeds": seeds,
            }
    report["host"] = hosts[0]
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
