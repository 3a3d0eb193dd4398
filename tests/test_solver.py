import contextlib
import math
import signal

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from proxybench import (
    METRICS,
    AlignConfig,
    EventProfile,
    NoiseModel,
    ProxyProgram,
    SimulatedMachine,
    TargetMetrics,
    align,
    compute_all_metrics,
    predict_events,
)
from proxybench.blocks import BlockLibrary, make_arith_block
from proxybench.errors import (
    AlignmentError,
    EmptySelectionError,
    IncompleteProfileError,
    InvalidSystemError,
)
from proxybench.events import MeasurementResult
from proxybench.solver import (
    BUDGET_ROW,
    LinearSystem,
    MetricRows,
    NnlsSolution,
    assemble_incremental_system,
    assemble_initial_system,
    counts_from_solution,
    nnls,
    select_blocks,
    unreachable_rows,
    unreachable_targets,
)
from tests.conftest import hidden_targets, sample_hidden_program

N0 = 10_000_000


def library_of(profiles):
    blocks = {}
    for name, counts in profiles.items():
        blocks[name] = make_arith_block((("add", 1),), block_id=name).with_profile(
            EventProfile(counts, N0)
        )
    return BlockLibrary(blocks, N0)


def plain_system(a, b, weights=None):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if weights is None:
        weights = np.ones(a.shape[0])
    return LinearSystem(
        a, b,
        tuple(f"r{i}" for i in range(a.shape[0])),
        tuple(f"c{j}" for j in range(a.shape[1])),
        np.asarray(weights, dtype=float),
    )


FULL_COUNTS_A = {
    "cycles": 90_000.0, "instructions": 50_000.0,
    "branch_insts": 9_000.0, "branch_misses": 450.0,
    "l1d_accesses": 16_000.0, "l1d_misses": 800.0,
    "l1i_accesses": 50_000.0, "l1i_misses": 50.0,
    "l2_accesses": 850.0, "l2_misses": 170.0,
    "l3_accesses": 170.0, "l3_misses": 34.0,
    "dtlb_accesses": 16_000.0, "dtlb_misses": 32.0,
    "itlb_accesses": 50_000.0, "itlb_misses": 5.0,
    "load_insts": 12_000.0, "store_insts": 6_000.0,
    "fp_insts": 1_000.0, "int_insts": 20_000.0, "vec_insts": 500.0,
}
FULL_COUNTS_B = {
    "cycles": 200_000.0, "instructions": 80_000.0,
    "branch_insts": 20_000.0, "branch_misses": 4_000.0,
    "l1d_accesses": 30_000.0, "l1d_misses": 6_000.0,
    "l1i_accesses": 80_000.0, "l1i_misses": 400.0,
    "l2_accesses": 6_400.0, "l2_misses": 3_200.0,
    "l3_accesses": 3_200.0, "l3_misses": 1_600.0,
    "dtlb_accesses": 30_000.0, "dtlb_misses": 3_000.0,
    "itlb_accesses": 80_000.0, "itlb_misses": 80.0,
    "load_insts": 20_000.0, "store_insts": 10_000.0,
    "fp_insts": 4_000.0, "int_insts": 30_000.0, "vec_insts": 2_000.0,
}
FULL_COUNTS_C = {
    "cycles": 30_000.0, "instructions": 25_000.0,
    "branch_insts": 2_500.0, "branch_misses": 25.0,
    "l1d_accesses": 5_000.0, "l1d_misses": 5.0,
    "l1i_accesses": 25_000.0, "l1i_misses": 2.0,
    "l2_accesses": 7.0, "l2_misses": 3.0,
    "l3_accesses": 3.0, "l3_misses": 1.0,
    "dtlb_accesses": 5_000.0, "dtlb_misses": 1.0,
    "itlb_accesses": 25_000.0, "itlb_misses": 2.0,
    "load_insts": 4_000.0, "store_insts": 1_000.0,
    "fp_insts": 5_000.0, "int_insts": 12_000.0, "vec_insts": 1_000.0,
}


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang inside the block into a failing test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_kkt_certified(a, b, solution, tol):
    assert solution.certified
    # certificate recomputed with independent arithmetic
    gradient = a.T @ (a @ solution.x - b)
    scale = max(1.0, np.max(np.abs(a.T @ b)))
    support = solution.x > 0
    assert np.all(np.abs(gradient[support]) <= tol * scale)
    assert np.all(-gradient[~support] <= tol * scale)
    # any feasible point bounds the optimum from above
    x_scipy, _ = scipy_nnls(a, b)
    feasible_residual = np.linalg.norm(a @ np.maximum(x_scipy, 0.0) - b)
    assert solution.residual_norm <= feasible_residual + 1e-9


class TestAssembleInitial:
    def test_single_block_budget_only(self):
        library = library_of({"p1": {"instructions": 50.0, "cycles": 60.0}})
        rows = MetricRows.of(library, TargetMetrics({}))
        system = assemble_initial_system(rows, ins1=500.0)
        assert system.matrix.shape == (1, 1)
        assert system.row_labels == ("budget",)
        solution = nnls(system, tol=1e-12)
        assert solution.x == pytest.approx([10.0], rel=1e-12)

    def test_block_at_its_own_metric_has_zero_coefficient(self):
        library = library_of(
            {
                "p1": {"instructions": 100.0, "cycles": 150.0},
                "p2": {"instructions": 100.0, "cycles": 400.0},
            }
        )
        targets = TargetMetrics({"cpi": 1.5})  # exactly block p1's CPI
        system = assemble_initial_system(MetricRows.of(library, targets), ins1=1000.0)
        assert system.matrix[0, 0] == 0.0
        assert system.matrix[0, 1] == 400.0 - 1.5 * 100.0

    def test_three_blocks_fourteen_metrics_entries(self):
        # every entry recomputed with plain dict arithmetic
        profiles = {"a": FULL_COUNTS_A, "b": FULL_COUNTS_B, "c": FULL_COUNTS_C}
        library = library_of(profiles)
        target_values = {
            "cpi": 1.9, "branch_miss_rate": 0.05, "l1d_miss_rate": 0.08,
            "l1i_miss_rate": 0.002, "l2_miss_rate": 0.45, "l3_miss_rate": 0.32,
            "dtlb_miss_rate": 0.03, "itlb_miss_rate": 0.0006,
            "load_ratio": 0.24, "store_ratio": 0.12, "branch_ratio": 0.2,
            "fp_ratio": 0.04, "int_ratio": 0.4, "vec_ratio": 0.02,
        }
        targets = TargetMetrics(target_values)
        system = assemble_initial_system(MetricRows.of(library, targets), ins1=1e6)
        assert system.matrix.shape == (15, 3)
        assert system.col_labels == ("a", "b", "c")
        for i, definition in enumerate(targets.definitions()):
            value = target_values[definition.id]
            for j, name in enumerate(("a", "b", "c")):
                counts = profiles[name]
                expected = counts[definition.numerator] - value * counts[definition.denominator]
                assert system.matrix[i, j] == expected, (definition.id, name)
        for j, name in enumerate(("a", "b", "c")):
            assert system.matrix[14, j] == profiles[name]["instructions"]
        assert system.rhs[14] == 1e6
        assert np.all(system.rhs[:14] == 0.0)

    def test_missing_event_names_block_and_event(self):
        library = library_of({"p1": {"instructions": 10.0}})
        with pytest.raises(IncompleteProfileError, match="p1.*cycles"):
            MetricRows.of(library, TargetMetrics({"cpi": 1.0}))

    def test_missing_event_reported_first_in_metric_then_block_order(self):
        library = library_of({
            "p1": {"instructions": 10.0, "cycles": 20.0},
            "p2": {"instructions": 10.0, "branch_insts": 2.0},
        })
        uncalibrated = BlockLibrary(
            {"raw": make_arith_block((("add", 1),), block_id="raw")}, N0
        )
        targets = TargetMetrics({"cpi": 1.0, "branch_miss_rate": 0.1})
        with pytest.raises(IncompleteProfileError) as err:
            MetricRows.of(library, targets)
        assert str(err.value) == "block p2 lacks event cycles needed by metric cpi"
        with pytest.raises(IncompleteProfileError) as err:
            MetricRows.of(library.subset(["p1"]), targets)
        assert str(err.value) == "block p1 lacks event branch_misses needed by metric branch_miss_rate"
        with pytest.raises(IncompleteProfileError) as err:
            MetricRows.of(uncalibrated, TargetMetrics({}))
        assert str(err.value) == "block raw lacks event instructions needed by metric budget"

    def test_row_weights_match_a_left_to_right_reference(self, library, rng):
        # denominator estimate: ins1 times the mean per-instruction
        # denominator rate, summed left to right in library order
        from tests.conftest import hidden_targets, sample_hidden_program

        _, targets, _ = hidden_targets(library, rng)
        ins1 = 5e6
        system = assemble_initial_system(MetricRows.of(library, targets), ins1)
        for i, definition in enumerate(targets.definitions()):
            rates = [
                spec.profile.counts[definition.denominator] / spec.profile.counts["instructions"]
                for spec in library.blocks.values()
            ]
            estimate = ins1 * sum(rates) / len(rates)
            assert system.row_weights[i] == 1.0 / (targets.targets[definition.id] * estimate)

    def test_nonpositive_budget_rejected(self):
        library = library_of({"p1": {"instructions": 10.0}})
        with pytest.raises(InvalidSystemError):
            assemble_initial_system(MetricRows.of(library, TargetMetrics({})), 0.0)


class TestAssembleIncremental:
    @pytest.fixture
    def library(self):
        return library_of(
            {
                "p1": {"instructions": 100.0, "cycles": 150.0},
                "p2": {"instructions": 100.0, "cycles": 400.0},
            }
        )

    def test_on_target_measurement_zeroes_rhs(self, library):
        targets = TargetMetrics({"cpi": 2.0})
        measured = MeasurementResult({"instructions": 1000.0, "cycles": 2000.0})
        system = assemble_incremental_system(MetricRows.of(library, targets), measured, 100.0)
        assert system.rhs[0] == 0.0
        assert system.rhs[1] == 100.0

    def test_too_fast_proxy_gives_positive_cpi_rhs(self, library):
        # measured CPI (1.5) below the 2.0 target: rhs = v*f_B - f_A > 0,
        # matching the symbolic expansion of the incremental rows
        targets = TargetMetrics({"cpi": 2.0})
        measured = MeasurementResult({"instructions": 1000.0, "cycles": 1500.0})
        system = assemble_incremental_system(MetricRows.of(library, targets), measured, 100.0)
        assert system.rhs[0] == 2.0 * 1000.0 - 1500.0
        assert system.rhs[0] > 0

    def test_growth_rule_budget(self, library):
        targets = TargetMetrics({"cpi": 2.0})
        measured = MeasurementResult({"instructions": 12_345.0, "cycles": 24_000.0})
        delta = measured.counts["instructions"] * 0.2
        system = assemble_incremental_system(MetricRows.of(library, targets), measured, delta)
        assert system.rhs[-1] == pytest.approx(2469.0)

    def test_coefficients_match_initial_system(self, library):
        targets = TargetMetrics({"cpi": 2.0})
        measured = MeasurementResult({"instructions": 1000.0, "cycles": 1500.0})
        rows = MetricRows.of(library, targets)
        incremental = assemble_incremental_system(rows, measured, 100.0)
        initial = assemble_initial_system(rows, 100.0)
        assert np.array_equal(incremental.matrix, initial.matrix)

    def test_unreachable_row_flagged(self, library):
        # proxy too slow (measured CPI above a target below every block's own
        # CPI): no nonnegative increment can lower the ratio, so flag the row
        targets = TargetMetrics({"cpi": 5.0})
        measured = MeasurementResult({"instructions": 100.0, "cycles": 50_000.0})
        system = assemble_incremental_system(MetricRows.of(library, targets), measured, 10.0)
        assert system.rhs[0] < 0
        assert unreachable_rows(system) == ()  # negative columns: reachable
        targets = TargetMetrics({"cpi": 1.0})
        measured = MeasurementResult({"instructions": 1000.0, "cycles": 2000.0})
        system = assemble_incremental_system(MetricRows.of(library, targets), measured, 10.0)
        assert system.rhs[0] < 0  # blocks only add CPI >= 1.5: flagged
        assert unreachable_rows(system) == ("cpi",)

    def test_negative_budget_rejected(self, library):
        rows = MetricRows.of(library, TargetMetrics({"cpi": 2.0}))
        measured = MeasurementResult({"instructions": 1000.0, "cycles": 1500.0})
        with pytest.raises(InvalidSystemError, match="^delta_ins must be >= 0, got -1.0$"):
            assemble_incremental_system(rows, measured, -1.0)

    def test_measurement_lacking_an_event_of_a_metric_rejected(self, library):
        rows = MetricRows.of(library, TargetMetrics({"cpi": 2.0}))
        with pytest.raises(IncompleteProfileError,
                           match="^measurement lacks events for metric cpi$"):
            assemble_incremental_system(rows, MeasurementResult({"instructions": 1.0}), 1.0)

    @pytest.mark.parametrize("shape, message", [
        ({"rhs": np.zeros(1)}, "row dimensions are inconsistent"),
        ({"row_labels": ("r0",)}, "row dimensions are inconsistent"),
        ({"col_labels": ("c0",)}, "column dimensions are inconsistent"),
        ({"row_weights": np.array([1.0, 0.0])}, "row weights must be positive"),
    ], ids=["rhs", "row labels", "column labels", "zero weight"])
    def test_system_of_inconsistent_parts_rejected(self, shape, message):
        parts = {"matrix": np.ones((2, 2)), "rhs": np.zeros(2), "row_labels": ("r0", BUDGET_ROW),
                 "col_labels": ("c0", "c1"), "row_weights": np.ones(2)}
        with pytest.raises(InvalidSystemError, match=f"^{message}$"):
            LinearSystem(**(parts | shape))

    def test_positive_gap_with_nonpositive_row_flagged(self):
        system = LinearSystem(
            np.array([[-1.0, 0.0], [-1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]),
            np.array([3.0, 3.0, 0.0, -1.0]),
            ("r0", "r1", "r2", BUDGET_ROW),
            ("c0", "c1"),
            np.ones(4),
        )
        assert unreachable_rows(system) == ("r0",)


class TestNnls:
    def test_diagonal_clamp(self):
        solution = nnls(plain_system(np.eye(2), [-1.0, 2.0]), tol=1e-12)
        assert solution.x == pytest.approx([0.0, 2.0], abs=1e-14)
        assert solution.residual_norm == pytest.approx(1.0, rel=1e-12)
        assert solution.certified

    def test_one_dimensional_calculus_oracle(self):
        # minimize (x-1)^2 + (x+1)^2 = 2x^2 + 2: optimum x=0, residual sqrt(2)
        solution = nnls(plain_system([[1.0], [1.0]], [1.0, -1.0]), tol=1e-12)
        assert solution.x == pytest.approx([0.0], abs=1e-14)
        assert solution.residual_norm == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_recovers_known_generator(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 4))
        x_star = np.array([0.7, 0.0, 2.5, 0.1])
        solution = nnls(plain_system(a, a @ x_star), tol=1e-12)
        assert np.max(np.abs(solution.x - x_star)) <= 1e-8

    def test_weights_change_the_tradeoff(self):
        a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        b = [1.0, 1.0, 0.0]
        light = nnls(plain_system(a, b), tol=1e-12)
        heavy = nnls(plain_system(a, b, weights=[1.0, 1.0, 100.0]), tol=1e-12)
        # a heavy third row pulls the solution toward x1 + x2 = 0
        assert sum(heavy.x) < sum(light.x)

    def test_nan_rejected(self):
        with pytest.raises(InvalidSystemError):
            nnls(plain_system([[np.nan]], [1.0]))

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(InvalidSystemError, match=f"^tol must be > 0, got {tol}$"):
            nnls(plain_system(np.eye(2), [1.0, 2.0]), tol=tol)

    def test_iteration_cap_returns_uncertified(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal(8)
        solution = nnls(plain_system(a, b), tol=1e-12, max_iter=1)
        assert not solution.certified
        assert np.all(solution.x >= 0)

    def test_no_negative_zero(self):
        solution = nnls(plain_system(np.eye(3), [-1.0, 0.0, 5.0]), tol=1e-12)
        assert not np.any(np.signbit(solution.x))

    def test_kkt_certificate_random_systems(self):
        rng = np.random.default_rng(11)
        tol = 1e-8
        for _ in range(100):
            rows = int(rng.integers(2, 15))
            cols = int(rng.integers(1, 20))
            a = rng.standard_normal((rows, cols))
            b = rng.standard_normal(rows)
            assert_kkt_certified(a, b, nnls(plain_system(a, b), tol=tol), tol)

    def test_kkt_certificate_random_systems_from_random_starts(self):
        rng = np.random.default_rng(12)
        tol = 1e-8
        for _ in range(100):
            rows = int(rng.integers(2, 15))
            cols = int(rng.integers(1, 20))
            a = rng.standard_normal((rows, cols))
            b = rng.standard_normal(rows)
            start = rng.random(cols) < rng.random()
            solution = nnls(plain_system(a, b), tol=tol, start=start)
            assert_kkt_certified(a, b, solution, tol)

    def test_start_mask_must_match_the_columns(self):
        system = plain_system(np.eye(3), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidSystemError, match="start mask"):
            nnls(system, start=[True, False])

    def test_warm_start_equals_cold_solve_on_align_systems(self, library, recorded_solves):
        # the systems of rounds 2-10 of noisy seeded aligns, solved as align
        # solves them (warm, from the working set) and cold: same bits
        rng = np.random.default_rng(2024)
        config = AlignConfig(rounds=10, ins1=5e6)
        for i in range(200):
            _, targets, _ = hidden_targets(library, rng)
            noise = (NoiseModel.uniform(0.03, seed=i) if i % 2
                     else NoiseModel.gaussian(0.02, seed=i))
            align(library, targets, config, SimulatedMachine(library, noise))
        warm_solves = [call for call in recorded_solves if call[2].get("start") is not None]
        assert len(warm_solves) == 200 * 9
        for system, args, _, warm in warm_solves:
            cold = nnls(system, *args)
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.residual_norm == cold.residual_norm
            assert warm.certified and cold.certified

    def test_step_back_drops_a_blocker_left_above_zero(self, library, recorded_solves):
        # the cold solve of round 10 of this seeded align steps back onto a
        # blocking component that rounding leaves at 4e-19, not 0; unless it
        # is dropped, the same step repeats with ever smaller alpha forever
        rng = np.random.default_rng(2301)
        for _ in range(10):
            program = sample_hidden_program(library, rng)
            noise_seed = int(rng.integers(0, 2**31))
        targets = TargetMetrics(compute_all_metrics(predict_events(program, library), METRICS))
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=noise_seed))
        align(library, targets, AlignConfig(rounds=10, ins1=5e6), machine)
        system, args, _, warm = recorded_solves[9]
        with deadline(seconds=10):
            cold = nnls(system, *args)
        assert cold.certified and cold.iterations == 10
        assert cold.x.tobytes() == warm.x.tobytes()

    def test_warm_start_escapes_a_worse_certified_point(self):
        # nearly collinear columns: the cold solve takes c0 alone, where the
        # dual of c1 (1e-11) passes the 1e-10 * 1e6 test, and certifies a
        # residual of 1e-3; b = 9e5 * c0 + 1e5 * c1 is an exact fit
        a = np.array([[1.0, 1.0], [0.0, 1e-8]])
        b = np.array([1e6, 1e-3])
        cold = nnls(plain_system(a, b))
        warm = nnls(plain_system(a, b), start=[True, True])
        assert cold.certified and warm.certified
        assert cold.x[1] == 0.0 and cold.residual_norm == pytest.approx(1e-3)
        assert warm.residual_norm <= cold.residual_norm
        assert warm.residual_norm <= 1e-9
        assert warm.x == pytest.approx([9e5, 1e5], rel=1e-6)

    def test_warm_start_drops_nonpositive_components_first(self):
        # least squares on both columns puts x1 < 0; the start phase drops it
        # and the loop then certifies the diagonal clamp
        solution = nnls(plain_system(np.eye(2), [-1.0, 2.0]), tol=1e-12, start=[True, True])
        assert solution.certified and solution.iterations == 0
        assert solution.x.tolist() == [0.0, 2.0]

    def test_feasible_target_exactness(self, library, rng):
        from tests.conftest import hidden_targets, sample_hidden_program

        # large counts keep integer rounding of the reconstruction below 1e-6
        hidden, targets, ins1 = hidden_targets(library, rng, lo=2_000_000, hi=20_000_000)
        system = assemble_initial_system(MetricRows.of(library, targets), ins1)
        solution = nnls(system, tol=1e-12)
        b_norm = np.linalg.norm(system.rhs * system.row_weights)
        assert solution.residual_norm <= 1e-6 * b_norm
        rebuilt = ProxyProgram(
            tuple(zip(library.ids(), counts_from_solution(solution, library.n0)))
        )
        metrics = compute_all_metrics(predict_events(rebuilt, library), METRICS)
        for metric_id, value in targets.targets.items():
            assert metrics[metric_id] == pytest.approx(value, rel=1e-6)

    def test_ratio_row_identity(self):
        # with the metric row exactly zeroed, the implied program hits the
        # target ratio identically
        library = library_of(
            {
                "p1": {"instructions": 100.0, "cycles": 150.0},
                "p2": {"instructions": 200.0, "cycles": 300.0},
            }
        )
        targets = TargetMetrics({"cpi": 1.5})
        system = assemble_initial_system(MetricRows.of(library, targets), ins1=1000.0)
        assert np.all(system.matrix[0] == 0.0)
        program = ProxyProgram((("p1", 3 * N0), ("p2", 2 * N0)))
        predicted = predict_events(program, library)
        assert predicted.counts["cycles"] / predicted.counts["instructions"] == 1.5


class TestSelection:
    def test_threshold_selection(self, library):
        ids = library.ids()[:4]
        sub = library.subset(ids)
        solution = NnlsSolution(np.array([0.0, 5.2, 0.0, 1.1]), 0.0, 1)
        kept = select_blocks(solution, sub, eps=1e-6)
        assert kept.ids() == (ids[1], ids[3])

    def test_all_zero_is_empty_selection(self, library):
        sub = library.subset(library.ids()[:2])
        with pytest.raises(EmptySelectionError):
            select_blocks(NnlsSolution(np.zeros(2), 0.0, 1), sub, eps=0.0)

    def test_dimension_mismatch(self, library):
        with pytest.raises(InvalidSystemError):
            select_blocks(NnlsSolution(np.zeros(2), 0.0, 1), library, eps=0.0)

    def test_negative_threshold_rejected(self, library):
        sub = library.subset(library.ids()[:2])
        with pytest.raises(InvalidSystemError, match="^eps must be >= 0, got -1e-06$"):
            select_blocks(NnlsSolution(np.ones(2), 0.0, 1), sub, eps=-1e-6)

    @pytest.mark.parametrize("name, call", [
        ("ins1", lambda rows, low: assemble_initial_system(rows, low)),
        ("delta_ins", lambda rows, low: assemble_incremental_system(
            rows, MeasurementResult({"instructions": 1.0, "cycles": 1.0}), low)),
        ("tol", lambda rows, low: nnls(plain_system(np.eye(2), [1.0, 2.0]), tol=low)),
        ("eps", lambda rows, low: select_blocks(NnlsSolution(np.ones(0), 0.0, 1),
                                                 BlockLibrary(), eps=low)),
    ], ids=["ins1", "delta_ins", "tol", "eps"])
    def test_a_bound_too_long_to_print_is_named(self, library, name, call):
        rows = MetricRows.of(library, TargetMetrics({"cpi": 2.0}))
        with pytest.raises(InvalidSystemError,
                           match=f"^{name} must be .*, got <int too long to show>$"):
            call(rows, -(10**5000))

    def test_full_solve_prunes_strict_subset(self, library, rng):
        from tests.conftest import hidden_targets, sample_hidden_program

        _, targets, ins1 = hidden_targets(library, rng)
        system = assemble_initial_system(MetricRows.of(library, targets), ins1)
        solution = nnls(system, tol=1e-12)
        kept = select_blocks(solution, library, eps=1e-6 * float(np.max(solution.x)))
        assert 0 < len(kept) < len(library)


class TestCounts:
    def test_exact_multiple(self):
        solution = NnlsSolution(np.array([10.0]), 0.0, 1)
        assert counts_from_solution(solution, 10_000_000) == [100_000_000]

    def test_sub_execution_rounds_to_zero(self):
        solution = NnlsSolution(np.array([2.4999e-8]), 0.0, 1)
        assert counts_from_solution(solution, 10_000_000) == [0]

    def test_round_half_up(self):
        solution = NnlsSolution(np.array([1.5e-7]), 0.0, 1)
        assert counts_from_solution(solution, 10_000_000) == [2]


class TestMetricRows:
    def test_columns_of_the_library_rows_are_the_working_set_rows(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        ids = library.ids()[3:12:2]
        narrowed = MetricRows.of(library, targets).columns(ids)
        scratch = MetricRows.of(library.subset(ids), targets)
        for rows in (narrowed, scratch):
            for name in ("matrix", "denominators"):
                assert getattr(rows, name).flags.c_contiguous
                assert not getattr(rows, name).flags.writeable
        measured = predict_events(sample_hidden_program(library, rng), library)
        for hoisted, fresh in (
            (assemble_initial_system(narrowed, 1e5), assemble_initial_system(scratch, 1e5)),
            (assemble_incremental_system(narrowed, measured, 1e5),
             assemble_incremental_system(scratch, measured, 1e5)),
        ):
            for name in ("matrix", "rhs", "row_weights"):
                assert getattr(hoisted, name).tobytes() == getattr(fresh, name).tobytes()
            assert hoisted.row_labels == fresh.row_labels
            assert hoisted.col_labels == fresh.col_labels == ids

    def test_denominators_are_the_profile_counts(self, library, rng):
        _, targets, _ = hidden_targets(library, rng)
        rows = MetricRows.of(library, targets)
        for i, definition in enumerate(targets.definitions()):
            assert rows.denominators[i].tolist() == [
                spec.profile.counts[definition.denominator] for spec in library.blocks.values()
            ]

    def test_a_library_without_blocks_is_an_error(self):
        for targets in (TargetMetrics({}), TargetMetrics({"cpi": 1.5})):
            with pytest.raises(InvalidSystemError, match="the library has no blocks"):
                MetricRows.of(BlockLibrary({}, N0), targets)
        with pytest.raises(AlignmentError, match="round 1: the library has no blocks"):
            align(BlockLibrary({}, N0), TargetMetrics({"cpi": 1.5}))

    def test_align_builds_rows_from_the_library_once(self, library, rng, monkeypatch):
        # every refinement round reuses the rows round 1 narrowed
        built = []
        of = MetricRows.of.__func__

        def counted(cls, *args):
            built.append(args)
            return of(cls, *args)

        monkeypatch.setattr(MetricRows, "of", classmethod(counted))
        _, targets, _ = hidden_targets(library, rng)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.03, seed=5))
        _, trace = align(library, targets, AlignConfig(rounds=6, ins1=5e6), machine)
        assert len(trace.rounds) == 6
        assert built == [(library, targets)]


class TestEmptiedPassiveSet:
    def test_ends_uncertified_instead_of_raising(self):
        # a weight of 1e265 overflows lstsq's internal scaling; the step back
        # then drops every passive column, and the inner loop must stop at
        # x = 0 rather than take the minimum of an empty array
        system = plain_system(
            [[0.0, 0.0, 3.0], [-2.0, 2.0, 1.0], [-3.0, -1.0, 3.0]],
            [0.0, -3.0, 2.0],
            weights=[1e265, 1.0, 1.0],
        )
        with np.errstate(all="ignore"):
            solution = nnls(system)
        assert not solution.certified
        assert solution.x.tolist() == [0.0, 0.0, 0.0]


def block_ratios(library, metric_id):
    definition = next(d for d in METRICS if d.id == metric_id)
    return [
        spec.profile.counts[definition.numerator] / spec.profile.counts[definition.denominator]
        for spec in library.blocks.values()
    ]


class TestUnreachableTargets:
    def test_a_rate_past_every_block_is_flagged(self, library):
        ratios = block_ratios(library, "l1d_miss_rate")
        far = unreachable_targets(library, TargetMetrics({"l1d_miss_rate": 0.5, "cpi": 2.0}))
        assert far == {"l1d_miss_rate": (min(ratios), max(ratios))}
        assert far["l1d_miss_rate"] == pytest.approx((0.0001, 0.2251))

    def test_a_relative_slack_of_1e_9(self, library):
        hi = max(block_ratios(library, "cpi"))
        assert unreachable_targets(library, TargetMetrics({"cpi": hi * (1 + 1e-10)})) == {}
        assert "cpi" in unreachable_targets(library, TargetMetrics({"cpi": hi * (1 + 1e-8)}))

    def test_targets_of_programs_over_the_library_are_never_flagged(self, library, rng):
        for _ in range(200):
            _, targets, _ = hidden_targets(library, rng)
            assert unreachable_targets(library, targets) == {}

    def test_targets_of_one_block_sit_on_the_range_ends(self, library):
        for block_id in library.ids():
            predicted = predict_events(ProxyProgram(((block_id, 123_457),)), library)
            metrics = compute_all_metrics(predicted, METRICS)
            targets = TargetMetrics({m: v for m, v in metrics.items() if v > 0})
            assert unreachable_targets(library, targets) == {}

    def test_blocks_without_the_denominator_are_left_out(self):
        library = BlockLibrary({
            "a": make_arith_block((("add", 1),), block_id="a").with_profile(
                EventProfile({"instructions": 10.0, "l1d_accesses": 0.0, "l1d_misses": 0.0})
            ),
            "b": make_arith_block((("add", 2),), block_id="b").with_profile(
                EventProfile({"instructions": 10.0, "l1d_accesses": 4.0, "l1d_misses": 1.0})
            ),
        })
        assert unreachable_targets(library, TargetMetrics({"l1d_miss_rate": 0.5})) == {
            "l1d_miss_rate": (0.25, 0.25)
        }
