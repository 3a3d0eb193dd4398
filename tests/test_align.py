import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from proxybench import (
    AlignConfig,
    BlockLibrary,
    BlockSpec,
    EVENTS,
    MeasurementResult,
    NoiseModel,
    ProxyProgram,
    SimulatedMachine,
    TargetMetrics,
    align,
    instruction_total,
)
from proxybench.align import dump_trace, load_trace
from proxybench.errors import (
    AlignmentError,
    DocumentFormatError,
    IncompleteProfileError,
    UnresolvedBlockError,
)
from proxybench.report import accuracy
from proxybench.solver import (
    MetricRows,
    NnlsSolution,
    assemble_incremental_system,
    assemble_initial_system,
    counts_from_solution,
    nnls,
    select_blocks,
)
from tests.conftest import hidden_targets


class TestConfig:
    def test_defaults_follow_the_method_constants(self):
        config = AlignConfig()
        assert config.rounds == 10
        assert config.growth == 0.2
        assert config.ins1 == 5e8

    def test_validation(self):
        with pytest.raises(DocumentFormatError):
            AlignConfig(rounds=0)
        with pytest.raises(DocumentFormatError):
            AlignConfig(growth=0.0)
        with pytest.raises(DocumentFormatError):
            AlignConfig(ins1=-1.0)

    @pytest.mark.parametrize("name", ["growth", "ins1", "tol", "prune_eps", "stop_threshold"])
    def test_bool_values_rejected(self, name):
        # a trace could not load the config back: a bool is no number there
        for value in (True, False):
            with pytest.raises(DocumentFormatError, match=f"^{name} must be .*, got {value}$"):
                AlignConfig(**{name: value})

    @pytest.mark.parametrize("name", ["ins1", "growth", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(DocumentFormatError, match=f"{name} must be finite and > 0"):
            AlignConfig(**{name: value})

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400)], ids=["int", "fraction"])
    def test_number_past_the_float_range_rejected(self, value):
        with pytest.raises(DocumentFormatError, match="ins1 must be finite and > 0"):
            AlignConfig(ins1=value)

    @pytest.mark.parametrize("name", ["ins1", "prune_eps", "stop_threshold"])
    def test_int_too_long_to_print_rejected(self, name):
        with pytest.raises(DocumentFormatError,
                           match=f"^{name} must be .*, got <int too long to show>$"):
            AlignConfig(**{name: 10**5000})

    def test_long_value_cut_in_the_message(self):
        with pytest.raises(DocumentFormatError, match=r"^growth must be finite and > 0, got "
                                                      r"'x{36}\.\.\.$"):
            AlignConfig(growth="x" * 100)

    @pytest.mark.parametrize("value", [5_000_000, 5e6], ids=["int", "float"])
    def test_plain_numbers_kept_as_given(self, value):
        # a trace writes them as they are, so no trace byte moves
        assert type(AlignConfig(ins1=value).ins1) is type(value)


class TestNoiselessLoop:
    def test_round_one_hits_feasible_targets(self, library, rng):
        for _ in range(5):
            _, targets, ins1 = hidden_targets(library, rng)
            config = AlignConfig(rounds=1, ins1=ins1)
            program, trace = align(library, targets, config, SimulatedMachine(library))
            assert len(trace.rounds) == 1
            assert min(trace.rounds[0].accuracy.values()) >= 0.999

    def test_single_round_equals_manual_solve_path(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=1, ins1=ins1)
        program, trace = align(library, targets, config, SimulatedMachine(library))

        system = assemble_initial_system(MetricRows.of(library, targets), ins1)
        solution = nnls(system, config.tol, config.max_iter)
        eps = config.prune_eps * float(np.max(solution.x))
        working = select_blocks(solution, library, eps)
        counts = dict(zip(library.ids(), counts_from_solution(solution, library.n0)))
        expected = ProxyProgram(tuple((b, counts[b]) for b in working.ids()))
        assert program == expected

    def test_later_rounds_grow_by_twenty_percent(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=6, ins1=ins1)
        _, trace = align(library, targets, config, SimulatedMachine(library))
        totals = [r.measured.counts["instructions"] for r in trace.rounds]
        for before, after in zip(totals, totals[1:]):
            assert after / before == pytest.approx(1.2, rel=1e-3)
        # and metrics stay on target while growing
        assert min(trace.rounds[-1].accuracy.values()) >= 0.999

    def test_fixed_point_has_zero_metric_rhs(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=1, ins1=ins1)
        program, trace = align(library, targets, config, SimulatedMachine(library))
        rows = MetricRows.of(library.subset(program.block_ids()), targets)
        measured = trace.rounds[-1].measured
        system = assemble_incremental_system(rows, measured, measured.counts["instructions"] * 0.2)
        scale = np.abs(system.rhs[-1])
        assert np.all(np.abs(system.rhs[:-1]) <= 1e-3 * scale)


class TestNoisyLoop:
    def test_ten_round_run_stays_accurate(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=10, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=7))
        _, trace = align(library, targets, config, machine)
        assert len(trace.rounds) == 10
        final = trace.rounds[-1].accuracy
        assert min(final.values()) >= 0.92

    def test_counts_never_decrease(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=8, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=11))
        _, trace = align(library, targets, config, machine)
        for before, after in zip(trace.rounds, trace.rounds[1:]):
            first = dict(before.program.entries)
            second = dict(after.program.entries)
            assert set(first) == set(second)
            assert all(second[b] >= first[b] for b in first)


class TestTrace:
    def test_trace_fields_are_complete(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=3, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.02, seed=3))
        _, trace = align(library, targets, config, machine)
        assert [r.round for r in trace.rounds] == [1, 2, 3]
        for record in trace.rounds:
            assert any(n > 0 for _, n in record.program.entries)
            assert record.measured.counts
            assert set(record.metrics) == set(targets.targets)
            assert set(record.accuracy) == set(targets.targets)
            assert record.residual_norm >= 0.0
            for metric_id, value in record.accuracy.items():
                assert value == accuracy(targets.targets[metric_id], record.metrics[metric_id])
                assert value <= 1.0

    def test_trace_round_trip_is_byte_identical(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=2, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.02, seed=4))
        _, trace = align(library, targets, config, machine)
        text = dump_trace(trace)
        assert dump_trace(load_trace(text)) == text

    def test_trace_with_every_config_field_set_round_trips(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=2, growth=0.3, ins1=5e6, tol=1e-9, prune_eps=1e-5,
                             max_iter=500, stop_threshold=2.0)
        assert all(getattr(config, f.name) != f.default for f in dataclasses.fields(config))
        _, trace = align(library, targets, config, SimulatedMachine(library))
        text = dump_trace(trace)
        assert load_trace(text).config == config
        assert dump_trace(load_trace(text)) == text

    @pytest.mark.parametrize("name, value", [
        ("ins1", np.float32(1e6)),
        ("growth", np.int64(3)),
        ("growth", Fraction(1, 5)),
        ("tol", np.float32(1e-9)),
        ("prune_eps", np.int64(0)),
        ("stop_threshold", Fraction(2)),
    ], ids=repr)
    def test_trace_with_a_number_of_another_type_round_trips(self, library, rng, name, value):
        # such a number is stored as a float, which a trace can write
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(**{"rounds": 2, "ins1": 5e6, name: value})
        assert type(getattr(config, name)) is float and getattr(config, name) == float(value)
        _, trace = align(library, targets, config, SimulatedMachine(library))
        assert load_trace(dump_trace(trace)) == trace

    def test_early_stop_flag(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=10, ins1=ins1, stop_threshold=0.999)
        _, trace = align(library, targets, config, SimulatedMachine(library))
        assert len(trace.rounds) == 1  # noiseless round 1 already qualifies


class TestErrors:
    # the measure call from which vec_insts is dropped; call 3 is the last
    # round's
    @pytest.mark.parametrize("failing_call", [1, 2, 3])
    def test_measurer_failure_carries_round_index(self, library, rng, failing_call):
        class DroppingMeasurer:
            events = EVENTS

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def measure(self, program, nonce=0):
                self.calls += 1
                full = self.inner.measure(program, nonce)
                if self.calls < failing_call:
                    return full
                counts = {e: v for e, v in full.counts.items() if e != "vec_insts"}
                return MeasurementResult(counts, "simulated")

        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=3, ins1=ins1)
        measurer = DroppingMeasurer(SimulatedMachine(library))
        with pytest.raises(AlignmentError, match=f"^round {failing_call}: ") as err:
            align(library, targets, config, measurer)
        assert err.value.round_index == failing_call
        assert measurer.calls == failing_call

    def test_empty_targets_library_mismatch(self, rng, library):
        # a target event absent from every profile surfaces as an alignment
        # error naming the round
        sub = library.subset(["mix_add16"])
        stripped = {
            bid: spec.with_profile(
                type(spec.profile)(
                    {e: c for e, c in spec.profile.counts.items() if e != "cycles"},
                    spec.profile.n0,
                )
            )
            for bid, spec in sub.blocks.items()
        }
        import proxybench.blocks as blocks_mod

        library2 = blocks_mod.BlockLibrary(stripped, sub.n0)
        with pytest.raises(AlignmentError, match="round 1"):
            align(library2, TargetMetrics({"cpi": 1.0}), AlignConfig(rounds=1, ins1=100.0),
                  SimulatedMachine(library2))

    def test_empty_targets_raise_before_round_one(self, library):
        with pytest.raises(AlignmentError, match="^targets name no metric") as err:
            align(library, TargetMetrics({}), AlignConfig(rounds=1, ins1=100.0))
        assert err.value.round_index is None

    def test_uncertified_solve_raises_with_its_round(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=3, ins1=5e6, max_iter=1)
        with pytest.raises(AlignmentError, match="round 1: NNLS solve not certified") as err:
            align(library, targets, config, SimulatedMachine(library))
        assert err.value.round_index == 1

    def test_uncertified_refinement_solve_raises(self, library, rng, monkeypatch):
        align_module = sys.modules["proxybench.align"]
        calls = []

        def third_solve_uncertified(system, *args, **kwargs):
            solution = nnls(system, *args, **kwargs)
            calls.append(solution)
            if len(calls) == 3:
                return NnlsSolution(solution.x, solution.residual_norm, 99, certified=False)
            return solution

        monkeypatch.setattr(align_module, "nnls", third_solve_uncertified)
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=5, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=7))
        with pytest.raises(AlignmentError, match="round 3: NNLS solve not certified") as err:
            align(library, targets, config, machine)
        assert err.value.round_index == 3


class TestSolverWork:
    def test_refinement_rounds_start_warm(self, library, rng, recorded_solves):
        # Lawson-Hanson iterations summed over rounds 2-10 of one seeded
        # align; measured 3 with the warm start and 88 with cold solves, so a
        # lost warm start fails the bound of 9
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=10, ins1=5e6)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=7))
        align(library, targets, config, machine)
        assert len(recorded_solves) == 10
        assert sum(call[3].iterations for call in recorded_solves[1:]) <= 9


    def test_ten_round_align_builds_its_count_model_once(self, library, rng, monkeypatch):
        # every round measures the same block sequence, so the machine keeps
        # the model that round 1 built
        builds = []
        build = SimulatedMachine._build_model

        def counted(machine, block_ids):
            builds.append(block_ids)
            return build(machine, block_ids)

        _, targets, ins1 = hidden_targets(library, rng)
        monkeypatch.setattr(SimulatedMachine, "_build_model", counted)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.02, seed=5))
        _, trace = align(library, targets, AlignConfig(rounds=10, ins1=ins1), machine)
        assert len(trace.rounds) == 10
        assert builds == [trace.rounds[0].program.block_ids()]


class TestInstructionTotal:
    def test_empty_program(self, library):
        assert instruction_total(ProxyProgram(), library) == 0.0

    def test_identity_scaling(self, library):
        block_id = library.ids()[0]
        per_n0 = library.blocks[block_id].profile.counts["instructions"]
        total = instruction_total(ProxyProgram(((block_id, library.n0),)), library)
        assert total == per_n0

    def test_equals_the_profile_walk(self, library):
        # the count model must give bit for bit what summing each block's
        # instructions profile over the merged program gives
        def reference(program):
            merged = program.merged()
            return math.fsum(
                library.blocks[block_id].profile.counts["instructions"] * executions
                for block_id, executions in merged.entries
            ) / float(library.n0)

        rng = np.random.default_rng(20240611)
        ids = library.ids()
        for _ in range(2000):
            size = int(rng.integers(1, 12))
            chosen = rng.choice(ids, size=size)  # with replacement: duplicates merge
            top = 2 ** int(rng.integers(1, 62))
            program = ProxyProgram(
                tuple((str(b), int(rng.integers(0, top))) for b in chosen)
            )
            assert instruction_total(program, library) == reference(program)

    def test_unknown_and_uncalibrated_blocks_raise(self, library):
        with pytest.raises(UnresolvedBlockError):
            instruction_total(ProxyProgram((("nope", 1),)), library)
        spec = library.blocks[library.ids()[0]]
        bare = BlockLibrary({spec.id: BlockSpec(spec.id, spec.family, spec.params)})
        with pytest.raises(IncompleteProfileError):
            instruction_total(ProxyProgram(((spec.id, 1),)), bare)

    def test_round_one_total_matches_budget(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        config = AlignConfig(rounds=1, ins1=5e6)
        program, _ = align(library, targets, config, SimulatedMachine(library))
        assert instruction_total(program, library) == pytest.approx(5e6, rel=0.01)
