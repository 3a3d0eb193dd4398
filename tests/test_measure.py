import math
import re
from fractions import Fraction

import numpy as np
import pytest

from proxybench import (
    EVENTS,
    EventProfile,
    MeasurementResult,
    NoiseModel,
    ProxyProgram,
    SimulatedMachine,
    format_counts,
    parse_counts,
    predict_events,
)
from proxybench.blocks import BlockLibrary, make_arith_block
from proxybench.errors import (
    CountsParseError,
    DocumentFormatError,
    DuplicateEventError,
    IncompleteProfileError,
    UnresolvedBlockError,
)
from proxybench.events import MISS_ACCESS_PAIRS
from proxybench.measure import NOISE_KINDS, _clamp_miss_pairs
from tests.conftest import sample_hidden_program


@pytest.fixture
def program(library):
    return ProxyProgram((("mem_stride64", 50_000), ("br_t448", 80_000), ("fpmix_div8", 20_000)))


class TestNoiseModel:
    def test_epsilon_range(self):
        with pytest.raises(DocumentFormatError):
            NoiseModel.uniform(1.0)
        with pytest.raises(DocumentFormatError):
            NoiseModel("multiplicative_uniform", epsilon=-0.1)

    def test_sigma_range(self):
        with pytest.raises(DocumentFormatError):
            NoiseModel.gaussian(-0.5)

    def test_interaction_matrix_validation(self):
        with pytest.raises(DocumentFormatError):
            NoiseModel.interaction(((0.0, 0.0), (0.0,)))
        with pytest.raises(DocumentFormatError):
            NoiseModel.interaction(((-0.6,),))

    @pytest.mark.parametrize("seed", ["x", 8.0, None, True, np.float64(1.0)], ids=repr)
    def test_seed_that_is_no_integer_rejected(self, seed):
        with pytest.raises(DocumentFormatError, match="^seed must be an integer, got "):
            NoiseModel.uniform(0.01, seed)

    def test_numpy_integer_seed_stored_as_int(self, library, program):
        noise = NoiseModel.uniform(0.05, np.int64(99))
        assert type(noise.seed) is int
        assert SimulatedMachine(library, noise).measure(program, 3) == \
            SimulatedMachine(library, NoiseModel.uniform(0.05, 99)).measure(program, 3)

    @pytest.mark.parametrize("build, message", [
        (lambda: NoiseModel.gaussian(10**400), "sigma must be finite and >= 0"),
        (lambda: NoiseModel.gaussian(Fraction(10**400, 3)), "sigma must be finite and >= 0"),
        (lambda: NoiseModel.uniform(10**400), "epsilon must be in [0, 1)"),
        (lambda: NoiseModel.gaussian(True), "sigma must be finite and >= 0"),
        (lambda: NoiseModel.uniform(False), "epsilon must be in [0, 1)"),
        (lambda: NoiseModel.uniform(True), "epsilon must be in [0, 1)"),
    ], ids=["int sigma", "fraction sigma", "int epsilon", "true sigma", "false epsilon",
            "true epsilon"])
    def test_level_past_the_float_range_or_a_bool_rejected(self, build, message):
        with pytest.raises(DocumentFormatError, match=f"^{re.escape(message)}$"):
            build()

    def test_levels_stored_as_floats(self):
        assert NoiseModel.uniform(np.float32(0.5)).epsilon == 0.5
        assert NoiseModel.gaussian(Fraction(1, 4)).sigma == 0.25
        for noise in (NoiseModel.uniform(0), NoiseModel.gaussian(np.int64(2)), NoiseModel.none(),
                      NoiseModel.uniform(np.float32(0.5)), NoiseModel.gaussian(Fraction(1, 4))):
            assert type(noise.epsilon) is float and type(noise.sigma) is float

    @pytest.mark.parametrize("matrix", [np.zeros(3), 5, [None], [1.0], "ab", [[0.0], [0.0]]],
                             ids=["vector", "int", "none row", "number row", "text", "column"])
    def test_interaction_matrix_that_is_not_square_rejected(self, matrix):
        with pytest.raises(DocumentFormatError, match="^interaction matrix must be square$"):
            NoiseModel.interaction(matrix)

    @pytest.mark.parametrize("matrix", [[["a"]], [[[0.0, 1.0]]], [[10**400]], [[{}]]],
                             ids=["text", "list", "int past the float range", "object"])
    def test_interaction_entries_that_are_no_numbers_rejected(self, matrix):
        with pytest.raises(DocumentFormatError, match="^interaction matrix entries must be numbers$"):
            NoiseModel.interaction(matrix)

    @pytest.mark.parametrize("matrix", [[["0.25"]], [[True]], [[[0.0]]], [[np.True_]],
                                        np.zeros((1, 1, 1)), np.array([[True]]),
                                        [[1.0, None], [0.0, 0.0]], [[True, 0.5], [0.5, 0.5]]],
                             ids=["numeric text", "true", "nested one-item list", "numpy true",
                                  "3-d array", "bool array", "none", "true beside floats"])
    def test_interaction_entries_numpy_would_convert_rejected(self, matrix):
        with pytest.raises(DocumentFormatError, match="^interaction matrix entries must be numbers$"):
            NoiseModel.interaction(matrix)

    @pytest.mark.parametrize("matrix", [np.full((3, 3), 0.25), np.full((3, 3), 0.25, np.float32),
                                        np.ones((3, 3), np.int64),
                                        [[np.float64(0.25), 0.25, 0]] * 3,
                                        [[10**30, Fraction(1, 4), np.int8(2)]] * 3],
                             ids=["float array", "float32 array", "int array", "mixed numbers",
                                  "int past int64"])
    def test_interaction_matrix_of_numbers_accepted(self, matrix):
        noise = NoiseModel.interaction(matrix)
        assert noise.matrix.dtype == np.float64 and noise.matrix.shape == (3, 3)
        assert noise.matrix.tolist() == np.array(matrix, dtype=float).tolist()

    def test_interaction_matrix_of_ints_stored_as_floats(self):
        noise = NoiseModel.interaction([[0, 1], [2, 3]])
        assert noise.matrix.dtype == np.float64 and not noise.matrix.flags.writeable
        assert noise.matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]


class TestSimulate:
    def test_none_equals_prediction_bitwise(self, library, program):
        measured = SimulatedMachine(library).measure(program)
        assert measured.counts == predict_events(program, library).counts

    def test_fixed_seed_is_deterministic(self, library, program):
        noise = NoiseModel.uniform(0.05, seed=99)
        first = SimulatedMachine(library, noise).measure(program, 3)
        second = SimulatedMachine(library, noise).measure(program, 3)
        assert first.counts == second.counts

    def test_distinct_nonces_differ(self, library, program):
        noise = NoiseModel.uniform(0.05, seed=99)
        assert SimulatedMachine(library, noise).measure(program, 1).counts != \
            SimulatedMachine(library, noise).measure(program, 2).counts

    def test_uniform_bound_and_unbiasedness(self, library, program):
        predicted = predict_events(program, library).counts
        n = 1000
        ratios = {event: [] for event in predicted}
        for seed in range(n):
            machine = SimulatedMachine(library, NoiseModel.uniform(0.05, seed=seed))
            noisy = machine.measure(program)
            for event, value in noisy.counts.items():
                ratio = value / predicted[event]
                assert 0.95 - 1e-12 <= ratio <= 1.05 + 1e-12
                ratios[event].append(ratio)
        for event, values in ratios.items():
            assert abs(np.mean(values) - 1.0) <= 3.0 / math.sqrt(n)

    def test_gaussian_zero_sigma_equals_prediction(self, library, program):
        noisy = SimulatedMachine(library, NoiseModel.gaussian(0.0, seed=5)).measure(program)
        assert noisy.counts == predict_events(program, library).counts

    def test_zero_interaction_equals_prediction(self, library, program):
        matrix = np.zeros((len(library), len(library)))
        noisy = SimulatedMachine(library, NoiseModel.interaction(matrix)).measure(program)
        assert noisy.counts == pytest.approx(predict_events(program, library).counts)

    def test_interaction_scales_by_instruction_share(self, library):
        # one block, self-interaction 0.5: every event scaled by 1.5; the
        # entries of blocks the program does not run are never read
        program = ProxyProgram((("mem_stride64", 10_000),))
        row = library.row_index["mem_stride64"]
        matrix = np.full((len(library), len(library)), 2.0)
        matrix[row, row] = 0.5
        noisy = SimulatedMachine(library, NoiseModel.interaction(matrix)).measure(program)
        predicted = predict_events(program, library)
        for event, value in predicted.counts.items():
            assert noisy.counts[event] == pytest.approx(1.5 * value, rel=1e-12)

    def test_interaction_dimension_mismatch(self, library, program):
        with pytest.raises(DocumentFormatError,
                           match=f"interaction matrix is 1x1, library has {len(library)} blocks"):
            SimulatedMachine(library, NoiseModel.interaction(((0.0,),))).measure(program)

    @pytest.mark.parametrize("kind", ["none", "uniform", "interaction"])
    def test_uncalibrated_block_raises_for_every_noise_kind(self, kind):
        library = BlockLibrary({"raw": make_arith_block((("add", 1),), block_id="raw")})
        noise = {
            "none": NoiseModel.none(),
            "uniform": NoiseModel.uniform(0.03),
            "interaction": NoiseModel.interaction(((0.0,),)),
        }[kind]
        with pytest.raises(IncompleteProfileError, match="block raw has no calibrated profile"):
            SimulatedMachine(library, noise).measure(ProxyProgram((("raw", 1),)))

    @pytest.mark.parametrize("noise", [
        NoiseModel.none(),
        NoiseModel.uniform(0.03),
        NoiseModel.gaussian(0.02),
        NoiseModel.interaction(((0.0, 0.0), (0.0, 0.0))),
    ], ids=lambda noise: noise.kind)
    def test_unknown_block_raises_for_every_noise_kind(self, library, noise):
        program = ProxyProgram(((library.ids()[0], 1), ("x", 1)))
        with pytest.raises(UnresolvedBlockError, match="program references unknown block 'x'"):
            SimulatedMachine(library, noise).measure(program)

    def test_miss_never_exceeds_access_under_noise(self, library, program):
        for seed in range(200):
            machine = SimulatedMachine(library, NoiseModel.gaussian(0.5, seed=seed))
            noisy = machine.measure(program)
            for miss, access in MISS_ACCESS_PAIRS:
                if miss in noisy.counts and access in noisy.counts:
                    assert noisy.counts[miss] <= noisy.counts[access]


def scalar_draw_reference(program, library, noise, nonce):
    """Multiplicative noise drawn one scalar per present event, in canonical
    event order."""
    predicted = predict_events(program, library).counts
    rng = np.random.default_rng([noise.seed & 0xFFFFFFFFFFFFFFFF, nonce & 0xFFFFFFFFFFFFFFFF])
    counts = {}
    for event in EVENTS:
        if event not in predicted:
            continue
        if noise.kind == "multiplicative_uniform":
            delta = rng.uniform(-noise.epsilon, noise.epsilon)
        else:
            delta = rng.normal(0.0, noise.sigma)
        counts[event] = predicted[event] * max(0.0, 1.0 + delta)
    for miss, access in MISS_ACCESS_PAIRS:
        if miss in counts and access in counts:
            counts[miss] = min(counts[miss], counts[access])
    return counts


class TestNoiseStream:
    @pytest.mark.parametrize("noise", [
        NoiseModel.uniform(0.03, seed=0),
        NoiseModel.uniform(0.5, seed=99),
        NoiseModel.uniform(0.05, seed=2**40 + 3),
        NoiseModel.gaussian(0.02, seed=0),
        NoiseModel.gaussian(0.8, seed=7),
        NoiseModel.gaussian(0.1, seed=2**40 + 3),
    ], ids=lambda noise: f"{noise.kind}-{noise.seed}")
    @pytest.mark.parametrize("nonce", [0, 1, 10, -1])
    def test_simulate_equals_scalar_draws(self, library, program, noise, nonce):
        expected = scalar_draw_reference(program, library, noise, nonce)
        assert SimulatedMachine(library, noise).measure(program, nonce).counts == expected

    def test_partial_profiles_draw_for_present_events_only(self):
        counts = {"instructions": 100.0, "cycles": 150.0, "l1d_accesses": 40.0,
                  "l1d_misses": 4.0}
        library = BlockLibrary(
            {"p": make_arith_block((("add", 1),), block_id="p").with_profile(
                EventProfile(counts, 1000))},
            1000,
        )
        program = ProxyProgram((("p", 5000),))
        for seed in range(20):
            for noise in (NoiseModel.uniform(0.05, seed), NoiseModel.gaussian(0.3, seed)):
                measured = SimulatedMachine(library, noise).measure(program, seed)
                assert set(measured.counts) == set(counts)
                assert measured.counts == scalar_draw_reference(program, library, noise, seed)


def interaction_reference(program, library, matrix):
    """The interaction model as a walk over profile dicts, the form it had
    before it moved onto ``events.ProfileRows``; it pins the semantics.
    ``matrix`` is indexed by position among the program's distinct blocks."""
    merged = program.merged()
    n0 = float(library.n0)
    contributions = []
    for block_id, executions in merged.entries:
        profile = library.require(block_id).profile
        if profile is None:
            raise IncompleteProfileError(f"block {block_id} has no calibrated profile")
        contributions.append(
            {e: c * executions / n0 for e, c in profile.counts.items()}
        )
    m = len(contributions)
    assert len(matrix) == m
    instr = [c.get("instructions", 0.0) for c in contributions]
    total = sum(instr) or 1.0
    shares = [v / total for v in instr]
    counts: dict[str, float] = {}
    for j, contribution in enumerate(contributions):
        factor = 1.0 + sum(matrix[j][k] * shares[k] for k in range(m))
        for event, value in contribution.items():
            counts[event] = counts.get(event, 0.0) + max(0.0, factor) * value
    return MeasurementResult(_clamp_miss_pairs(counts), provenance="simulated")


def interaction_cases(library, count, seed):
    """Seeded programs, with repeated block ids and some zero executions,
    each with a random interaction matrix indexed by position among its
    distinct blocks."""
    rng = np.random.default_rng(seed)
    ids = library.ids()
    for _ in range(count):
        chosen = rng.choice(ids, size=int(rng.integers(1, 16)))  # with replacement
        program = ProxyProgram(tuple(
            (str(b), int(rng.integers(0, 200_000)) * int(rng.random() < 0.9)) for b in chosen
        ))
        m = len(program.merged().entries)
        yield program, rng.uniform(-0.5, 1.0, size=(m, m)).tolist()


def embedded(matrix, program, library, rng):
    """The library-keyed matrix that holds ``matrix``, indexed by position
    among ``program``'s distinct blocks, at their rows and columns; its
    other entries are random."""
    rows = [library.row_index[block_id] for block_id, _ in program.merged().entries]
    keyed = rng.uniform(-0.5, 1.0, size=(len(library), len(library)))
    keyed[np.ix_(rows, rows)] = matrix
    return keyed


class TestInteractionModel:
    def test_equals_the_profile_dict_reference(self, library):
        rng = np.random.default_rng(1415)
        machine = SimulatedMachine(library)
        for program, matrix in interaction_cases(library, 200, seed=1414):
            noise = NoiseModel.interaction(embedded(matrix, program, library, rng))
            machine.noise = noise
            expected = interaction_reference(program, library, matrix).counts
            fresh = SimulatedMachine(library, noise).measure(program)
            assert fresh.counts == pytest.approx(expected, rel=1e-12)
            assert machine.measure(program).counts == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("matrix, entry", [
        (((math.inf, 0.0), (0.0, 0.0)), "[0][0]"),
        (((0.0, math.inf), (0.0, 0.0)), "[0][1]"),
        (((math.nan, 0.0), (0.0, 0.0)), "[0][0]"),
        (((0.0, 0.0), (0.0, -math.inf)), "[1][1]"),
        (((0.0, 0.0), (-0.6, math.nan)), "[1][0]"),
    ], ids=["inf", "inf_off_diagonal", "nan", "minus_inf", "first_bad_entry"])
    def test_entries_must_be_finite_naming_row_and_column(self, matrix, entry):
        # a NaN entry would zero its block's counts and an infinite one would
        # overflow them, or zero them where its column's share is 0
        with pytest.raises(DocumentFormatError,
                           match=re.escape(f"interaction entry {entry} must be finite and >= -0.5")):
            NoiseModel.interaction(matrix)

    def test_dimension_checked_before_the_counts(self):
        # the prediction breaks a count rule, but the matrix is the wrong size
        library = BlockLibrary({
            "a": make_arith_block((("add", 1),), block_id="a").with_profile(
                EventProfile({"instructions": 10.0, "l1d_misses": 5.0}, 1000)),
        }, 1000)
        program = ProxyProgram((("a", 100),))
        with pytest.raises(DocumentFormatError, match="interaction matrix is 2x2, library has 1 blocks"):
            noise = NoiseModel.interaction(((0.0, 0.0), (0.0, 0.0)))
            SimulatedMachine(library, noise).measure(program)


class TestCountsDocuments:
    def test_two_line_document(self):
        result = parse_counts("cycles=1200\ninstructions=1000\n")
        assert result.counts == {"cycles": 1200.0, "instructions": 1000.0}
        assert result.provenance == "imported"

    def test_comments_and_blank_lines(self):
        text = "# perf import\n\ncycles = 10\n  # trailing comment line\ninstructions=2e3\n"
        result = parse_counts(text)
        assert result.counts == {"cycles": 10.0, "instructions": 2000.0}

    def test_negative_count_reports_line(self):
        with pytest.raises(CountsParseError) as err:
            parse_counts("cycles=5\ninstructions=-1\n")
        assert err.value.line == 2

    def test_unknown_event_reports_line(self):
        with pytest.raises(CountsParseError) as err:
            parse_counts("cycles=5\nwidgets=1\n")
        assert err.value.line == 2

    def test_duplicate_event(self):
        with pytest.raises(DuplicateEventError):
            parse_counts("cycles=5\ncycles=6\n")

    def test_missing_separator(self):
        with pytest.raises(CountsParseError):
            parse_counts("cycles 5\n")

    def test_bad_value(self):
        with pytest.raises(CountsParseError):
            parse_counts("cycles=many\n")

    def test_nan_rejected(self):
        with pytest.raises(CountsParseError):
            parse_counts("cycles=nan\n")

    def test_all_events_round_trip(self):
        values = {event: float(i + 2) * 100.0 for i, event in enumerate(EVENTS)}
        for miss, access in MISS_ACCESS_PAIRS:
            values[miss] = values[access] * 0.25
        text = "\n".join(f"{event}={value}" for event, value in values.items()) + "\n"
        result = parse_counts(text)
        assert len(result.counts) == 21
        canonical = format_counts(result)
        assert format_counts(parse_counts(canonical)) == canonical
        # a complete document supports every built-in metric
        from proxybench import METRICS, compute_all_metrics

        assert len(compute_all_metrics(result, METRICS)) == 14

    def test_integer_values_stay_integers(self):
        text = format_counts(parse_counts("cycles=1200\n"))
        assert text == "cycles=1200\n"

    def test_float_values_round_trip_exactly(self):
        result = parse_counts("cycles=0.1\ninstructions=1e-3\n")
        again = parse_counts(format_counts(result))
        assert again.counts == result.counts

    def test_pair_invariant_checked(self):
        with pytest.raises(CountsParseError):
            parse_counts("l1d_misses=5\nl1d_accesses=2\n")


class TestNonFiniteSigma:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejected(self, sigma):
        with pytest.raises(DocumentFormatError, match="sigma must be finite"):
            NoiseModel.gaussian(sigma)


class TestSimulatedMachineModel:
    """The machine keeps the count model of the last block sequence; its
    results must stay those of a new machine, which has no model yet."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_equals_a_new_machine_across_programs(self, library, kind):
        # one library-keyed interaction matrix serves every program
        rng = np.random.default_rng(808)
        noise = {
            "none": NoiseModel.none(),
            "multiplicative_uniform": NoiseModel.uniform(0.03, seed=5),
            "multiplicative_gaussian": NoiseModel.gaussian(0.02, seed=6),
            "interaction": NoiseModel.interaction(
                np.random.default_rng(809).uniform(-0.3, 0.3, (len(library),) * 2)),
        }[kind]
        machine = SimulatedMachine(library, noise)
        first = sample_hidden_program(library, rng)
        programs = [first, first.scaled(3), sample_hidden_program(library, rng), first,
                    first + first, ProxyProgram(), first]
        for nonce, program in enumerate(programs):
            assert machine.measure(program, nonce).counts == \
                SimulatedMachine(library, noise).measure(program, nonce).counts

    def test_follows_a_replaced_library(self, library):
        program = ProxyProgram(((library.ids()[0], 1000),))
        machine = SimulatedMachine(library)
        machine.measure(program)
        other = BlockLibrary({
            library.ids()[0]: make_arith_block((("add", 1),), block_id=library.ids()[0])
            .with_profile(EventProfile({"instructions": 7.0, "cycles": 9.0}, library.n0))
        }, library.n0)
        machine.library = other
        assert machine.measure(program).counts == predict_events(program, other).counts

    @pytest.mark.parametrize("noise", [
        NoiseModel.uniform(0.05, seed=1),
        NoiseModel.gaussian(0.1),
        NoiseModel.interaction(((0.0, 0.0), (0.0, 0.0))),
    ], ids=lambda noise: noise.kind)
    def test_prediction_checked_before_noise(self, noise):
        # one block counts misses without accesses, so the prediction has
        # more l1d misses than accesses; the noise's clamp must not hide it
        library = BlockLibrary({
            "a": make_arith_block((("add", 1),), block_id="a").with_profile(
                EventProfile({"instructions": 10.0, "l1d_misses": 5.0}, 1000)),
            "b": make_arith_block((("sub", 1),), block_id="b").with_profile(
                EventProfile({"instructions": 10.0, "l1d_accesses": 2.0, "l1d_misses": 1.0}, 1000)),
        }, 1000)
        program = ProxyProgram((("a", 100), ("b", 100)))
        with pytest.raises(DocumentFormatError, match="l1d_misses=.* exceeds l1d_accesses"):
            predict_events(program, library)
        with pytest.raises(DocumentFormatError, match="l1d_misses=.* exceeds l1d_accesses"):
            SimulatedMachine(library, noise).measure(program)

    @pytest.mark.parametrize("blocks", [1, 2], ids=["huge_product", "huge_sum"])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("measure", ["new", "warm"])
    def test_overflowing_prediction_checked_before_noise(self, monkeypatch, kind, measure, blocks):
        # one block of 1e300 cycles per execution, run 1e10 times: a product
        # overflows to infinity.  Two blocks of 1e308 cycles, run once each:
        # finite products whose sum is past the float maximum.  Either way
        # the prediction fails its checks, and no noise is drawn for it.
        cycles, executions = (1e300, 10**10) if blocks == 1 else (1e308, 1)
        library = BlockLibrary({
            name: make_arith_block((("add", 1),), block_id=name).with_profile(
                EventProfile({"instructions": 1.0, "cycles": cycles}, 1))
            for name in "ab"[:blocks]
        }, 1)
        program = ProxyProgram(tuple((name, executions) for name in "ab"[:blocks]))
        noise = {
            "none": NoiseModel.none(),
            "multiplicative_uniform": NoiseModel.uniform(0.05, seed=1),
            "multiplicative_gaussian": NoiseModel.gaussian(0.1),
            "interaction": NoiseModel.interaction(((0.25,) * blocks,) * blocks),
        }[kind]
        machine = SimulatedMachine(library, noise)
        if measure == "warm":  # the machine keeps the count model of these blocks
            machine.measure(program.scaled(0))

        def no_draw(*args):
            raise AssertionError("noise drawn for a prediction that fails its checks")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        message = "measurement: count for cycles must be finite and >= 0"
        with pytest.raises(DocumentFormatError) as error:
            predict_events(program, library)
        assert str(error.value) == message
        with pytest.raises(DocumentFormatError) as error:
            machine.measure(program)
        assert str(error.value) == message
