import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxybench import (
    AlignConfig,
    METRICS,
    NoiseModel,
    SimulatedMachine,
    accuracy,
    align,
    build_report,
    category_accuracy,
    mean_abs_rel_error,
    pearson,
)
from proxybench.errors import (
    DocumentFormatError,
    IncompleteReportError,
    UndefinedAccuracyError,
    UndefinedCorrelationError,
)
from proxybench.events import METRICS_BY_ID
from proxybench.report import (
    ComparisonSeries,
    dump_report,
    load_report,
)
from tests.conftest import hidden_targets

# A 15-benchmark CPI comparison with one large outlier, shaped like a
# prefetch-on study: correlation 0.980 and mean relative error 7.5%.
STUDY_X = (0.62, 0.71, 0.85, 0.93, 1.04, 1.18, 1.27, 1.39, 1.52, 1.68,
           1.81, 2.05, 2.33, 2.62, 3.1)
STUDY_Y = (0.6418, 0.6652, 0.9156, 0.9757, 0.9451, 1.2297, 1.1809, 1.2534,
           1.6053, 1.5385, 1.9243, 1.8918, 2.7929, 2.4913, 3.3175)


class TestAccuracy:
    def test_identical_values(self):
        assert accuracy(0.02, 0.02) == 1.0

    def test_direct_formula(self):
        assert accuracy(0.02, 0.019) == 0.95

    def test_negative_accuracy_allowed(self):
        assert accuracy(0.01, 0.025) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedAccuracyError):
            accuracy(0.0, 1.0)

    @given(
        real=st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-6),
        proxy=st.floats(-1e6, 1e6),
        k=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, real, proxy, k):
        assert accuracy(k * real, k * proxy) == pytest.approx(
            accuracy(real, proxy), rel=1e-9, abs=1e-9
        )


class TestCategoryAccuracy:
    def test_minimum_rule(self):
        per_metric = {
            "l1d_miss_rate": 0.97,
            "l1i_miss_rate": 0.91,
            "l2_miss_rate": 0.95,
            "l3_miss_rate": 0.99,
        }
        defs = [METRICS_BY_ID[m] for m in per_metric]
        assert category_accuracy(per_metric, defs) == {"cache_behavior": 0.91}

    def test_singleton_category(self):
        defs = [METRICS_BY_ID["cpi"]]
        assert category_accuracy({"cpi": 0.984}, defs) == {"processor_performance": 0.984}

    def test_study_shaped_floor(self):
        # cache-behavior category floored by its weakest member at 0.859
        per_metric = {
            "cpi": 0.926,
            "branch_miss_rate": 0.927,
            "l1d_miss_rate": 0.942,
            "l1i_miss_rate": 0.859,
            "l2_miss_rate": 0.917,
            "l3_miss_rate": 0.905,
            "dtlb_miss_rate": 0.925,
            "itlb_miss_rate": 0.965,
        }
        defs = [METRICS_BY_ID[m] for m in per_metric]
        floors = category_accuracy(per_metric, defs)
        assert floors["cache_behavior"] == 0.859
        assert floors["processor_performance"] == 0.926
        assert floors["tlb_behavior"] == 0.925

    def test_missing_metric_rejected(self):
        with pytest.raises(IncompleteReportError):
            category_accuracy({}, [METRICS_BY_ID["cpi"]])

    def test_floor_bounds_every_member(self):
        per_metric = {d.id: 0.9 + 0.001 * i for i, d in enumerate(METRICS)}
        floors = category_accuracy(per_metric, METRICS)
        for definition in METRICS:
            assert floors[definition.category] <= per_metric[definition.id]


class TestPearson:
    def test_perfect_correlation_is_exactly_one(self):
        series = ComparisonSeries((1.0, 2.0, 4.5, 7.0), (1.0, 2.0, 4.5, 7.0))
        assert pearson(series) == 1.0

    def test_perfect_anticorrelation(self):
        series = ComparisonSeries((1.0, 2.0, 4.5), (-1.0, -2.0, -4.5))
        assert pearson(series) == -1.0

    def test_affine_invariance_and_sign_flip(self):
        x = (0.3, 1.1, 2.9, 4.0, 5.5)
        y = (0.2, 1.4, 2.4, 4.4, 5.0)
        base = pearson(ComparisonSeries(x, y))
        shifted = pearson(ComparisonSeries(x, tuple(3.0 * v + 7.0 for v in y)))
        flipped = pearson(ComparisonSeries(x, tuple(-2.0 * v + 1.0 for v in y)))
        assert shifted == pytest.approx(base, rel=1e-12)
        assert flipped == pytest.approx(-base, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(ComparisonSeries((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)))

    def test_too_short_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(ComparisonSeries((1.0,), (2.0,)))

    def test_study_fixture_reproduces_published_shape(self):
        series = ComparisonSeries(STUDY_X, STUDY_Y)
        assert round(pearson(series), 3) == 0.980
        assert round(mean_abs_rel_error(series), 3) == 0.075


class TestMeanAbsRelError:
    def test_identical_series(self):
        series = ComparisonSeries((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        assert mean_abs_rel_error(series) == 0.0

    def test_hand_fixture(self):
        series = ComparisonSeries((1.0, 2.0), (1.1, 1.8))
        assert mean_abs_rel_error(series) == pytest.approx(0.1, abs=1e-12)

    def test_single_pair(self):
        assert mean_abs_rel_error(ComparisonSeries((4.0,), (5.0,))) == 0.25

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedAccuracyError):
            mean_abs_rel_error(ComparisonSeries((0.0,), (1.0,)))

    def test_nonnegative(self):
        series = ComparisonSeries(STUDY_X, STUDY_Y)
        assert mean_abs_rel_error(series) >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DocumentFormatError):
            ComparisonSeries((1.0, 2.0), (1.0,))


class TestComparisonSeries:
    @pytest.mark.parametrize("x, y, where", [
        (("x", 1.0), (1.0, 2.0), "x[0]"),
        ((1.0, None), (1.0, 2.0), "x[1]"),
        ((True, 2.0), (1.0, 2.0), "x[0]"),
        ((1.0, 2.0), (1.0, False), "y[1]"),
    ], ids=["string", "none", "true", "false"])
    def test_value_that_is_no_number_rejected(self, x, y, where):
        with pytest.raises(DocumentFormatError, match=f"^series {re.escape(where)} must be a number"):
            ComparisonSeries(x, y)

    def test_a_value_too_long_to_print_is_named(self):
        with pytest.raises(DocumentFormatError,
                           match="^series y\\[1\\] must be a number, got <list too long to show>$"):
            ComparisonSeries((1.0, 2.0), (1.0, [10**5000]))

    @pytest.mark.parametrize("x, y, where", [
        ((10**400, 1.0), (1.0, 2.0), "x"),
        ((1.0, 2.0), (1.0, Fraction(-(10**400), 7)), "y"),
    ], ids=["int", "fraction"])
    def test_number_past_the_float_range_rejected(self, x, y, where):
        with pytest.raises(DocumentFormatError,
                           match=f"^series {where}: a number past the float range$"):
            ComparisonSeries(x, y)

    @pytest.mark.parametrize("x, y, where, value", [
        ((1.0, float("nan"), 3.0), (1.0, 2.0, 3.0), "x[1]", "nan"),
        ((1.0, 2.0), (float("inf"), 2.0), "y[0]", "inf"),
        ((1.0, 2.0), (1.0, -float("inf")), "y[1]", "-inf"),
        ((np.float32("nan"), 2.0), (1.0, 2.0), "x[0]", "nan"),
    ], ids=["nan", "inf", "-inf", "float32 nan"])
    def test_value_that_is_not_finite_rejected(self, x, y, where, value):
        # pearson would read -1.0 and the mean error NaN or inf
        with pytest.raises(DocumentFormatError,
                           match=f"^series {re.escape(where)} must be finite, got {value}$"):
            ComparisonSeries(x, y)

    def test_series_that_is_no_sequence_rejected(self):
        with pytest.raises(DocumentFormatError, match="^series x must be a sequence, got None"):
            ComparisonSeries(None, (1.0,))
        with pytest.raises(DocumentFormatError,
                           match="^series y must be a sequence, got <int too long to show>$"):
            ComparisonSeries((1.0,), 10**5000)

    def test_numbers_stored_as_floats(self):
        series = ComparisonSeries((1, np.float32(0.5), Fraction(1, 4)), (2, 3, 4))
        assert series.x == (1.0, 0.5, 0.25) and series.y == (2.0, 3.0, 4.0)
        assert {type(v) for v in series.x + series.y} == {float}


class TestBuildReport:
    @pytest.fixture
    def run(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=2, ins1=ins1)
        machine = SimulatedMachine(library, NoiseModel.uniform(0.02, seed=9))
        _, trace = align(library, targets, config, machine)
        return targets, trace

    def test_perfect_final_round_scores_one(self, library, rng):
        _, targets, ins1 = hidden_targets(library, rng)
        config = AlignConfig(rounds=1, ins1=ins1)
        _, trace = align(library, targets, config, SimulatedMachine(library))
        report = build_report(targets, trace)
        assert all(v >= 0.999 for v in report.per_metric.values())

    def test_report_matches_hand_recompute(self, run):
        targets, trace = run
        report = build_report(targets, trace)
        final = trace.rounds[-1].metrics
        for metric_id, target in targets.targets.items():
            expected = 1.0 - abs(target - final[metric_id]) / abs(target)
            assert report.per_metric[metric_id] == expected
        for metric, target, measured, value, category in report.table:
            assert measured == final[metric]
            assert category == METRICS_BY_ID[metric].category

    def test_category_floors_bound_members(self, run):
        targets, trace = run
        report = build_report(targets, trace)
        for definition in targets.definitions():
            assert report.per_category[definition.category] <= \
                report.per_metric[definition.id]

    def test_trace_without_rounds_rejected(self, run):
        targets, trace = run
        with pytest.raises(IncompleteReportError, match="^trace has no rounds$"):
            build_report(targets, dataclasses.replace(trace, rounds=()))

    def test_final_round_lacking_a_target_metric_rejected(self, run):
        targets, trace = run
        final = trace.rounds[-1]
        metric = next(iter(targets.targets))
        metrics = {m: v for m, v in final.metrics.items() if m != metric}
        rounds = trace.rounds[:-1] + (dataclasses.replace(final, metrics=metrics),)
        with pytest.raises(IncompleteReportError, match=f"^final round lacks metric {metric}$"):
            build_report(targets, dataclasses.replace(trace, rounds=rounds))

    def test_serialization_round_trip(self, run):
        targets, trace = run
        report = build_report(targets, trace, metadata={"seed": 9})
        text = dump_report(report)
        assert dump_report(load_report(text)) == text
