"""Tests of the benchmark's own code.

    python -m pytest bench/test_bench.py -q
"""

import statistics
import sys

import pytest

import run  # puts the checkout's src on sys.path first
import inputs
import tracer as tracing

import proxybench as pb


# ---------------------------------------------------------------------------
# input generators


def parameter_point(spec):
    """Hashable (family, params) identity of a block, ignoring its id."""
    return (spec.family, tuple(sorted(spec.params.items())))


def test_align_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def texts(seed):
        return [(pb.dump_targets(i.targets), i.noise_seed) for i in inputs.align_inputs(seed, 4)]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_align_inputs_cover_all_fourteen_metrics():
    for item in inputs.align_inputs(3, 5):
        assert set(item.targets.targets) == {d.id for d in pb.METRICS}


def test_wide_library_is_seed_free_and_contains_the_default_points():
    first, second = inputs.wide_specs(), inputs.wide_specs()
    assert [s.id for s in first] == [s.id for s in second]
    assert len({s.id for s in first}) == len(first)
    assert 700 <= len(first) <= 800
    wide = {parameter_point(s) for s in first}
    default = {parameter_point(s) for s in pb.default_library().blocks.values()}
    assert default <= wide


def test_wide_library_profiles_match_the_default_library_at_shared_points():
    wide = {parameter_point(s): s.profile for s in inputs.wide_library().blocks.values()}
    for spec in pb.default_library().blocks.values():
        assert wide[parameter_point(spec)] == spec.profile


def test_input_digest_separates_texts():
    assert inputs.input_digest("ab", "c") != inputs.input_digest("a", "bc")
    assert inputs.input_digest("ab", "c") == inputs.input_digest("ab", "c")


# ---------------------------------------------------------------------------
# the tail percentile rule


@pytest.mark.parametrize(
    "n, rank, beyond",
    [
        (1, 1, 0),     # too few samples: the median, with fewer than 10 beyond
        (9, 5, 4),
        (16, 9, 7),    # even count: the upper middle value, never below the median
        (19, 10, 9),
        (20, 11, 9),
        (21, 11, 10),  # the first count whose median has 10 beyond
        (22, 12, 10),
        (25, 15, 10),
        (100, 90, 10),
        (200, 190, 10),  # p95 is also the rank with 10 beyond
        (220, 209, 11),  # above 200 samples the p95 cap binds
        (1000, 950, 50),
    ],
)
def test_tail_is_the_highest_rank_with_ten_samples_beyond(n, rank, beyond):
    samples = [float(v) for v in range(n, 0, -1)]  # unsorted input
    value, percentile, got_beyond = run.tail(samples)
    assert value == float(rank)
    assert percentile == pytest.approx(100.0 * rank / n)
    assert got_beyond == beyond
    assert sum(s > value for s in samples) == beyond
    assert value >= statistics.median(samples)


# ---------------------------------------------------------------------------
# self time


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("op", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.inner", 20, 30, 1),
        _span("b", 50, 60, 0),
        _span("b2", 55, 70, 0),  # overlaps b: the union is covered once
    ]
    assert tracing.self_times_ns(spans) == [50, 20, 10, 10, 15]


def test_self_time_clips_children_to_the_parent():
    spans = [_span("p", 10, 20, -1), _span("c", 5, 15, 0), _span("d", 18, 30, 0)]
    assert tracing.self_times_ns(spans)[0] == 3


def test_op_stats_sums_calls_times_and_attributes_per_op():
    spans = [
        _span("op", 0, 1000, -1, op=1),
        ["solver.nnls", 100, 300, 0, 1, {"iterations": 3}],
        ["solver.nnls", 400, 500, 0, 1, {"iterations": 2}],
        _span("op", 2000, 2100, -1, op=2),
    ]
    stats = tracing.op_stats(spans)
    assert stats[1]["solver.nnls"]["calls"] == 2
    assert stats[1]["solver.nnls"]["s"] == pytest.approx(300e-9)
    assert stats[1]["solver.nnls"]["attrs"]["iterations"] == 5
    assert stats[1]["op"]["self_s"] == pytest.approx(700e-9)
    assert stats[2]["op"]["calls"] == 1


def test_adopted_spans_hang_below_the_given_parent():
    tracer = tracing.Tracer()
    tracer.op = 4
    index = tracer.begin("cli.process")
    tracer.end(index)
    tracer.adopt([["cli.import", 1, 2, -1, 0, None], ["x", 1, 2, 0, 0, None]], index)
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert {s[tracing.OP] for s in tracer.spans} == {4}


def test_a_traced_align_is_accounted_for_by_self_times():
    library = pb.default_library()
    item = inputs.align_inputs(5, 1)[0]
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    tracer.op = 0
    try:
        measurer = tracing.TracedMeasurer(
            tracer, pb.SimulatedMachine(library, pb.NoiseModel.uniform(0.03, item.noise_seed)))
        tracer.call(tracing.ROOT, pb.align, library, item.targets,
                    pb.AlignConfig(ins1=5e6), measurer)
    finally:
        tracer.op = None
        tracer.restore()
    stats = tracing.op_stats(tracer.spans)[0]
    assert stats["solver.nnls"]["calls"] == 10
    assert stats["measure.measure"]["calls"] == 10
    assert stats["blocks.content_hash"]["calls"] == 1
    total = sum(stat["self_s"] for stat in stats.values())
    assert total == pytest.approx(stats[tracing.ROOT]["s"], abs=1e-6)


def test_restore_puts_every_original_back():
    cli = sys.modules["proxybench.cli"]
    align = sys.modules["proxybench.align"]
    before = (cli.align, cli.SimulatedMachine, align.nnls, pb.BlockLibrary.content_hash)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    assert align.nnls is not before[2]
    tracer.restore()
    assert (cli.align, cli.SimulatedMachine, align.nnls, pb.BlockLibrary.content_hash) == before


# ---------------------------------------------------------------------------
# failure counting and output checks


def test_tally_counts_every_exception_as_a_failure():
    tally = run.Tally()

    def fail(exc):
        raise exc

    assert tally.run(lambda: 5) == (True, 5)
    assert tally.run(lambda: fail(run.CheckFailed("exit 1"))) == (False, None)
    assert tally.run(lambda: fail(ValueError("bad"))) == (False, None)
    assert tally.run(lambda: fail(run.CheckFailed("exit 1"))) == (False, None)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_ratio == 0.75
    assert tally.errors == {"CheckFailed: exit 1": 2, "ValueError: bad": 1}


def test_an_empty_tally_has_no_failures():
    assert run.Tally().failed_ratio == 0.0


@pytest.fixture(scope="module")
def aligned():
    library = pb.default_library()
    item = inputs.align_inputs(11, 1)[0]
    program, trace = pb.align(library, item.targets, pb.AlignConfig(ins1=5e6),
                              pb.SimulatedMachine(library, pb.NoiseModel.uniform(0.03, 1)))
    return library, program, trace


def test_check_trace_accepts_a_real_alignment(aligned):
    _, _, trace = aligned
    mean, worst = run.check_trace(trace, 10)
    assert run.ACCURACY_GATE <= mean <= 1.0
    assert worst <= mean


def test_check_trace_rejects_a_wrong_round_count_and_falling_counts(aligned):
    _, _, trace = aligned
    with pytest.raises(run.CheckFailed, match="rounds"):
        run.check_trace(trace, 9)
    last = trace.rounds[-1]
    previous = dict(trace.rounds[-2].program.entries)
    lowered = pb.ProxyProgram(tuple(
        (block_id, previous[block_id] - 1 if i == 0 else executions)
        for i, (block_id, executions) in enumerate(last.program.entries)
    ))
    rounds = trace.rounds[:-1] + (pb.RoundRecord(last.round, lowered, last.measured,
                                                 last.metrics, last.accuracy, 0.0),)
    broken = pb.AlignmentTrace(rounds, trace.library_hash, trace.config, trace.targets)
    with pytest.raises(run.CheckFailed, match="fell"):
        run.check_trace(broken, 10)


def test_check_trace_gates_accuracy(aligned):
    _, _, trace = aligned
    last = trace.rounds[-1]
    poor = {metric: 0.5 for metric in last.accuracy}
    rounds = trace.rounds[:-1] + (pb.RoundRecord(last.round, last.program, last.measured,
                                                 last.metrics, poor, 0.0),)
    with pytest.raises(run.CheckFailed, match="accuracy_mean"):
        run.check_trace(pb.AlignmentTrace(rounds, "", trace.config, trace.targets), 10)


def test_a_repeated_input_must_reproduce_its_artifacts(aligned, tmp_path):
    library, program, trace = aligned
    workload = run.AlignSmall(1, tmp_path)
    workload._record(0, "aaa", lambda: trace, lambda: program, library, sink="7")
    workload._record(0, "aaa", lambda: trace, lambda: program, library, sink="7")
    with pytest.raises(run.CheckFailed, match="artifacts differ"):
        workload._record(0, "bbb", lambda: trace, lambda: program, library, sink="7")
    with pytest.raises(run.CheckFailed, match="sink"):
        workload._record(0, "aaa", lambda: trace, lambda: program, library, sink="8")
    assert workload.records[0]["proxy_instructions"] == pb.instruction_total(program, library)
