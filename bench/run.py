"""proxybench benchmark: seeded closed-loop workloads over the synthesis path.

    python3 bench/run.py --workload align_small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30     # every workload, untraced then traced

One caller runs ops back to back for ``--seconds`` and each op is checked.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (input digests, host drift,
every layer, the pipeline's stages) goes to ``bench/out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "proxybench" / "__init__.py").is_file():
    sys.exit(f"error: no proxybench source at {SRC}; run from a proxybench checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import proxybench as pb  # noqa: E402
import proxybench.cli  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

if Path(pb.__file__).resolve().parent != SRC / "proxybench":
    sys.exit(f"error: proxybench was imported from {pb.__file__}, not from {SRC}")

WORKLOADS = ("align_small", "align_wide", "pipeline_cc")
ROUNDS = 10
GROWTH = 0.2
NOISE = "uniform:0.03"
ACCURACY_GATE = 0.92  # the acceptance suite's closed-loop gate
SETUP_REPEATS = 3
IMPORT_PROBES = 5
TAIL_BEYOND = 10
TAIL_CAP = 0.95  # above p95 the tail follows host hiccups, not the program
SUBPROCESS_TIMEOUT_S = 120
ARTIFACTS = ("program.json", "proxy.c", "trace.json", "report.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p75_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "accuracy_mean": "ratio",
    "accuracy_worst_mean": "ratio",
    "rounds_mean": "count",
    "proxy_instructions": "count",
}

# (metric, span name, field, unit): field is a span statistic ("calls", "s",
# "self_s"), an attribute summed over the span's calls, or a ratio
# "attr/calls".  Counts are averaged per input, times per op.
PER_LAYER = (
    ("solver.nnls.calls", "solver.nnls", "calls", "count"),
    ("solver.nnls.s", "solver.nnls", "s", "s"),
    ("solver.nnls.iterations", "solver.nnls", "iterations", "count"),
    ("solver.nnls.cols", "solver.nnls", "cols", "count"),
    ("solver.nnls.certified_ratio", "solver.nnls", "certified/calls", "ratio"),
    ("solver.assemble_initial_system.s", "solver.assemble_initial_system", "s", "s"),
    ("solver.assemble_incremental_system.s", "solver.assemble_incremental_system", "s", "s"),
    ("solver.unreachable_rows.s", "solver.unreachable_rows", "s", "s"),
    ("solver.unreachable_rows.flagged", "solver.unreachable_rows", "flagged", "count"),
    ("solver.select_blocks.s", "solver.select_blocks", "s", "s"),
    ("solver.working_set_blocks", "solver.select_blocks", "working_set_blocks", "count"),
    ("solver.counts_from_solution.s", "solver.counts_from_solution", "s", "s"),
    ("measure.measure.calls", "measure.measure", "calls", "count"),
    ("measure.measure.s", "measure.measure", "s", "s"),
    ("events.predict_events.s", "events.predict_events", "s", "s"),
    ("events.compute_all_metrics.s", "events.compute_all_metrics", "s", "s"),
    ("report.accuracy.calls", "report.accuracy", "calls", "count"),
    ("report.accuracy.s", "report.accuracy", "s", "s"),
    ("blocks.content_hash.calls", "blocks.content_hash", "calls", "count"),
    ("blocks.content_hash.s", "blocks.content_hash", "s", "s"),
    ("align.align.self_s", "align.align", "self_s", "s"),
    ("trace.unwrapped_s", tracing.ROOT, "self_s", "s"),
)
# Layers on the CLI path only; align_small calls align in-process and never
# crosses them, so they are reported in the full record, not as metrics.
CLI_LAYERS = (
    ("report.build_report.s", "report.build_report", "s", "s"),
    ("report.dump_report.s", "report.dump_report", "s", "s"),
    ("blocks.load_library.s", "blocks.load_library", "s", "s"),
    ("blocks.library_bytes", "blocks.load_library", "bytes", "count"),
    ("blocks.render_program.s", "blocks.render_program", "s", "s"),
    ("blocks.render_program.bytes", "blocks.render_program", "bytes", "count"),
    ("align.dump_trace.s", "align.dump_trace", "s", "s"),
    ("align.dump_trace.bytes", "align.dump_trace", "bytes", "count"),
    ("jsonutil.write_text_atomic.calls", "jsonutil.write_text_atomic", "calls", "count"),
    ("jsonutil.write_text_atomic.s", "jsonutil.write_text_atomic", "s", "s"),
    ("jsonutil.write_text_atomic.bytes", "jsonutil.write_text_atomic", "bytes", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)
COUNT_FIELDS = ("calls", "iterations", "cols", "flagged", "working_set_blocks", "bytes")


class CheckFailed(Exception):
    """An op's output is wrong, or a step of it exited nonzero."""


# ---------------------------------------------------------------------------
# statistics


def tail(samples) -> tuple[float, float, int]:
    """The highest order statistic with ``TAIL_BEYOND`` samples above it, at
    most p95 and never below the median: ``(value, percentile, beyond)``."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(min(n - TAIL_BEYOND, math.ceil(TAIL_CAP * n)), n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class Tally:
    """Attempted and failed ops; an op fails on any exception it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def run(self, fn):
        """``(True, fn())``, or ``(False, None)`` when ``fn`` raises."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # a failed op is counted, not fatal
            self.failed += 1
            key = f"{type(exc).__name__}: {exc}"[:300]
            self.errors[key] = self.errors.get(key, 0) + 1
            return False, None

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_trace(trace, rounds: int) -> tuple[float, float]:
    """Round count and monotone execution counts; returns the final round's
    mean and worst per-metric accuracy, gated at ``ACCURACY_GATE``."""
    if len(trace.rounds) != rounds:
        raise CheckFailed(f"trace has {len(trace.rounds)} rounds, expected {rounds}")
    for before, after in zip(trace.rounds, trace.rounds[1:]):
        if after.program.block_ids() != before.program.block_ids():
            raise CheckFailed(f"round {after.round} changed the working set")
        for (block_id, old), (_, new) in zip(before.program.entries, after.program.entries):
            if new < old:
                raise CheckFailed(f"round {after.round}: {block_id} count fell {old} -> {new}")
    values = list(trace.rounds[-1].accuracy.values())
    mean = statistics.fmean(values)
    if mean < ACCURACY_GATE:
        raise CheckFailed(f"accuracy_mean {mean:.4f} < {ACCURACY_GATE}")
    return mean, min(values)


def digest(*texts: str) -> str:
    return hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs, one op per input index, and the op's output checks.

    ``records`` holds each input's first checked result; a repeat of an input
    must reproduce its artifacts byte for byte.
    """

    pool_size = 0
    ins1 = 5e6
    via_cli = True  # the op crosses the CLI layers

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.records: dict[int, dict] = {}
        self.inputs: list[inputs.AlignInput] = []
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        """Build and write the inputs, then warm up with input 0."""
        raise NotImplementedError

    def op(self, index: int, tracer: tracing.Tracer):
        raise NotImplementedError

    def check(self, index: int, outcome) -> dict:
        """Raise :class:`CheckFailed` on wrong output; return stage samples."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _make_inputs(self, library_text: str) -> None:
        self.inputs = inputs.align_inputs(self.seed, self.pool_size)
        self.digests = {
            "library": inputs.input_digest(library_text),
            "targets": inputs.input_digest(*(
                pb.dump_targets(item.targets) + f"noise_seed={item.noise_seed}"
                for item in self.inputs
            )),
        }

    def _write_cli_inputs(self, library_text: str) -> None:
        self.workdir.mkdir(parents=True)
        self.library_path = self.workdir / "library.json"
        self.library_path.write_text(library_text, encoding="utf-8")
        self.target_paths = []
        for i, item in enumerate(self.inputs):
            path = self.workdir / f"targets{i}.json"
            path.write_text(pb.dump_targets(item.targets), encoding="utf-8")
            self.target_paths.append(path)
        self.out = self.workdir / "out"

    def _align_argv(self, index: int) -> list[str]:
        return [
            "align", str(self.target_paths[index]),
            "--library", str(self.library_path),
            "--out", str(self.out),
            "--rounds", str(ROUNDS),
            "--growth", str(GROWTH),
            "--ins1", repr(self.ins1),
            "--noise", NOISE,
            "--seed", str(self.inputs[index].noise_seed),
        ]

    def _read_artifacts(self) -> list[str]:
        return [(self.out / name).read_text(encoding="utf-8") for name in ARTIFACTS]

    def _record(self, index: int, key: str, trace_fn, program_fn, library, **extra) -> None:
        """Check an input's first run in full and keep its result; a repeat
        only has to match the first run's artifact digest ``key`` and
        ``extra``.  The trace and program are parsed on first runs only."""
        first = self.records.get(index)
        if first is not None:
            if first["digest"] != key:
                raise CheckFailed(f"input {index}: artifacts differ from its first run")
            for name, value in extra.items():
                if first[name] != value:
                    raise CheckFailed(f"input {index}: {name} {value!r} != {first[name]!r}")
            return
        trace = trace_fn()
        mean, worst = check_trace(trace, ROUNDS)
        self.records[index] = {
            "digest": key,
            "accuracy_mean": mean,
            "accuracy_worst": worst,
            "rounds": len(trace.rounds),
            "proxy_instructions": pb.instruction_total(program_fn(), library),
            **extra,
        }


class AlignSmall(Workload):
    """In-process ``pb.align`` on the 27-block default library."""

    pool_size = 32
    via_cli = False

    def setup(self) -> None:
        self.library = pb.default_library()
        self._make_inputs(pb.dump_library(self.library))
        self.config = pb.AlignConfig(rounds=ROUNDS, growth=GROWTH, ins1=self.ins1)
        self.noise_eps = float(NOISE.partition(":")[2])
        self.check(0, self.op(0, tracing.Tracer()))

    def op(self, index, tracer):
        item = self.inputs[index]
        noise = pb.NoiseModel.uniform(self.noise_eps, item.noise_seed)
        measurer = pb.SimulatedMachine(self.library, noise)
        if tracer.op is not None:
            measurer = tracing.TracedMeasurer(tracer, measurer)
        return tracer.call("align.align", pb.align, self.library, item.targets,
                           self.config, measurer)

    def check(self, index, outcome):
        program, trace = outcome
        key = digest(pb.dump_program(program), pb.dump_trace(trace))
        self._record(index, key, lambda: trace, lambda: program, self.library)
        return {}


class AlignWide(Workload):
    """In-process ``cli.main(["align", ...])`` on a ~760-block library file."""

    pool_size = 16

    def setup(self) -> None:
        self.library = inputs.wide_library()
        text = pb.dump_library(self.library)
        self._make_inputs(text)
        self._write_cli_inputs(text)
        self.check(0, self.op(0, tracing.Tracer()))

    def op(self, index, tracer):
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call("cli.main", proxybench.cli.main, self._align_argv(index))
        if code != 0:
            raise CheckFailed(f"cli align exited {code}")

    def check(self, index, outcome):
        texts = self._read_artifacts()
        self._record(index, digest(*texts),
                     lambda: pb.load_trace(texts[2]), lambda: pb.load_program(texts[0]),
                     self.library)
        return {}


class PipelineCC(Workload):
    """``python -m proxybench.cli align`` in a fresh process, ``cc -O0``, and a
    run of the proxy, on the default library file."""

    pool_size = 26
    ins1 = 5e7

    def setup(self) -> None:
        self.cc = shutil.which("cc")
        if self.cc is None:
            raise RuntimeError("pipeline_cc needs a C compiler on PATH as cc")
        self.library = pb.default_library()
        text = pb.dump_library(self.library)
        self._make_inputs(text)
        self._write_cli_inputs(text)
        tmp = self.workdir / "tmp"
        tmp.mkdir()
        # children write their temporary files inside the checkout
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        self.check(0, self.op(0, tracing.Tracer()))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _run(self, step: str, cmd: list[str]) -> tuple[float, str]:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise CheckFailed(f"{step} exited {done.returncode}: {done.stderr[-300:]}")
        return elapsed, done.stdout

    def op(self, index, tracer):
        argv = self._align_argv(index)
        if tracer.op is None:
            align_s, _ = self._run("align", [sys.executable, "-m", "proxybench.cli", *argv])
        else:
            spans_path = self.workdir / "spans.json"
            span = tracer.begin("cli.process")
            try:
                align_s, _ = self._run("align", [
                    sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv,
                ])
            finally:
                tracer.end(span)
            tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), span)
        proxy = self.out / "proxy"
        cc_s, _ = tracer.call("cc", self._run, "cc",
                              [self.cc, "-O0", "-o", str(proxy), str(self.out / "proxy.c")])
        proxy_s, stdout = tracer.call("proxy", self._run, "proxy", [str(proxy)])
        fields = dict(part.split("=", 1) for part in stdout.split())
        return {
            "align_cli_s": align_s,
            "cc_s": cc_s,
            "proxy_wall_s": proxy_s,
            "proxy_run_s": float(fields["elapsed_seconds"]),
            "sink": fields["sink"],
        }

    def check(self, index, outcome):
        texts = self._read_artifacts()
        self._record(index, digest(*texts),
                     lambda: pb.load_trace(texts[2]), lambda: pb.load_program(texts[0]),
                     self.library, sink=outcome["sink"], proxy_c_bytes=len(texts[1]))
        return {k: v for k, v in outcome.items() if k.endswith("_s")}


WORKLOAD_TYPES = {"align_small": AlignSmall, "align_wide": AlignWide, "pipeline_cc": PipelineCC}


# ---------------------------------------------------------------------------
# host drift record


def _reference_timing() -> dict[str, float]:
    """Fixed pure-Python and numpy work, best of three after one warm-up,
    in seconds."""
    matrix = np.random.default_rng(0).random((200, 200))
    python_s, numpy_s = [], []
    for _ in range(4):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        t1 = time.perf_counter()
        for _ in range(20):
            matrix @ matrix
        t2 = time.perf_counter()
        python_s.append(t1 - t0)
        numpy_s.append(t2 - t1)
    return {"python_loop_s": min(python_s[1:]), "numpy_matmul_s": min(numpy_s[1:])}


def host_record() -> dict:
    cc = shutil.which("cc")
    cc_version = "absent"
    if cc is not None:
        done = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30)
        cc_version = (done.stdout.splitlines() or ["unknown"])[0]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        **_reference_timing(),
    }


def import_seconds(env: dict) -> float:
    """Median wall time of a fresh ``python -c "import proxybench"``."""
    walls = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import proxybench"], env=env, check=True,
                       timeout=SUBPROCESS_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# one run


def _layer_value(field: str, stat: dict | None) -> float:
    if stat is None:
        return 0.0
    if field in ("calls", "s", "self_s"):
        return float(stat[field])
    if "/" in field:
        num, den = field.split("/")
        return stat["attrs"][num] / stat[den] if stat[den] else 0.0
    return float(stat["attrs"][field])


def layer_metrics(per_op: dict[int, dict], input_of: dict[int, int], table) -> dict:
    """Per-layer values from per-op span statistics: counts are averaged over
    inputs (first traced op of each, so they repeat exactly), times over ops."""
    first_op: dict[int, int] = {}
    for op in sorted(per_op):
        first_op.setdefault(input_of[op], op)
    values = {}
    for metric, name, field, unit in table:
        counted = field.split("/")[0] in COUNT_FIELDS or "/" in field
        ops = list(first_op.values()) if counted else list(per_op)
        values[metric] = (statistics.fmean(_layer_value(field, per_op[op].get(name))
                                           for op in ops), unit)
    return values


class Loop:
    """What one measured loop of ops leaves behind."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        self.tally = Tally()
        self.op_ms: dict[bool, list[float]] = {False: [], True: []}
        self.stages: dict[str, list[float]] = {}
        self.input_of: dict[int, int] = {}  # traced op id -> input index


def measure(workload: Workload, seconds: float, traced: bool) -> Loop:
    """Run ops back to back for ``seconds``.  Every input runs at least once,
    and in a traced loop at least once traced, so per-input means repeat
    exactly for a seed."""
    loop = Loop()
    tracer = loop.tracer
    pool = workload.pool_size
    min_ops = 2 * pool if traced else pool
    deadline = time.perf_counter() + seconds
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        if traced:
            # each input runs twice in a row, traced first on every other pair
            pair = op // 2
            index, on = pair % pool, op % 2 == pair % 2
        else:
            index, on = op % pool, False

        def attempt():
            t0 = time.perf_counter_ns()
            outcome = tracer.call(tracing.ROOT, workload.op, index, tracer)
            elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
            tracer.op = None  # the checks are not part of the op
            return elapsed_ms, workload.check(index, outcome)

        if on:
            tracing.instrument(tracer)
            tracer.op = op
        try:
            ok, result = loop.tally.run(attempt)
        finally:
            tracer.op = None
            tracer.restore()
        if ok:
            loop.op_ms[on].append(result[0])
            if on:
                loop.input_of[op] = index
            else:
                for stage, value in result[1].items():
                    loop.stages.setdefault(stage, []).append(value)
        op += 1
    if not loop.op_ms[False]:
        raise RuntimeError(f"no untraced op succeeded: {loop.tally.errors}")
    return loop


def end_to_end(workload: Workload, setup_s: list[float], loop: Loop):
    """End-to-end metrics and the numbers kept beside them."""
    times = loop.op_ms[False]
    records = list(workload.records.values())
    tail_ms, tail_pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setup_s),
        "op_p75_ms": statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0],
        "op_tail_ms": tail_ms,
        "peak_rss_mb": workload.peak_rss_mb(),
        "accuracy_mean": statistics.fmean(r["accuracy_mean"] for r in records),
        "accuracy_worst_mean": statistics.fmean(r["accuracy_worst"] for r in records),
        "rounds_mean": statistics.fmean(r["rounds"] for r in records),
        "proxy_instructions": statistics.fmean(r["proxy_instructions"] for r in records),
    }
    # The median and the mean move with the share of a run that the host
    # spends in its fast phases, so they are kept here rather than gated on.
    extra = {
        "op_p50_ms": statistics.median(times),
        "ops_per_s": 1000.0 * len(times) / math.fsum(times),
        "ops": len(times),
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "setup_samples_s": setup_s,
        "op_ms": times,
        **{stage: statistics.median(samples) for stage, samples in loop.stages.items()},
    }
    if "proxy_c_bytes" in records[0]:
        extra["proxy_c_bytes"] = statistics.fmean(r["proxy_c_bytes"] for r in records)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, extra


def per_layer(workload: Workload, loop: Loop):
    """Per-layer metrics of the traced ops, the numbers kept beside them,
    and whether every traced op is accounted for by its spans."""
    spans = [s for s in loop.tracer.spans if s[tracing.OP] in loop.input_of]
    per_op = tracing.op_stats(spans)
    metrics = layer_metrics(per_op, loop.input_of, PER_LAYER)
    metrics["cli.import_s"] = (import_seconds(dict(os.environ, PYTHONPATH=str(SRC))), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(loop.op_ms[True]) / statistics.median(loop.op_ms[False]), "ratio")
    extra = {}
    if workload.via_cli:
        extra.update({k: v for k, (v, _) in layer_metrics(per_op, loop.input_of, CLI_LAYERS).items()})
    extra["traced_ops"] = len(loop.op_ms[True])
    extra["layers"] = {
        name: {key: statistics.fmean(_layer_value(key, per_op[op].get(name)) for op in per_op)
               for key in ("calls", "s", "self_s")}
        for name in sorted({n for stats in per_op.values() for n in stats})
    }
    # a traced op's time is its layers' self times plus the unwrapped remainder
    accounted = all(
        math.isclose(sum(stat["self_s"] for stat in stats.values()), stats[tracing.ROOT]["s"],
                     rel_tol=1e-9, abs_tol=1e-6)
        for stats in per_op.values()
    )
    return metrics, extra, accounted


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run of one workload; returns its full record."""
    OUT.mkdir(exist_ok=True)
    host_start = host_record()
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            workload = WORKLOAD_TYPES[name](seed, scratch / f"setup{i}")
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        loop = measure(workload, seconds, traced)
        accounted = True
        if traced:
            metrics, extra, accounted = per_layer(workload, loop)
            loop.tracer.dump(str(OUT / f"spans-{name}.json"))
        else:
            metrics, extra = end_to_end(workload, setup_s, loop)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tally = loop.tally
    result = {
        "correct": tally.failed == 0 and accounted,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    extra.update(failed_ratio=tally.failed_ratio, inputs_run=len(workload.records),
                 pool_size=workload.pool_size, spans_accounted=accounted)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs": workload.digests, "host_start": host_start, "host_end": host_record(),
        "errors": tally.errors, "extra": extra, "result": result,
    }
    (OUT / f"{name}-trace{int(traced)}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return detail


def print_detail(detail: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"inputs={detail['inputs']}")
    for metric, entry in detail["result"]["metrics"].items():
        print(f"{metric:40s} {entry['value']:16.6g} {entry['unit']}")
    for key, value in detail["extra"].items():
        if isinstance(value, (int, float)):
            print(f"{key:40s} {value:16.6g}")
    for key in ("host_start", "host_end"):
        print(f"{key}: {json.dumps(detail[key], sort_keys=True)}")
    for error, count in detail["errors"].items():
        print(f"error x{count}: {error}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process so that
    peak RSS and warm-up belong to one workload."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S + 4 * seconds,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            summary[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": all(r["correct"] for r in summary.values())}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_detail(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
