import functools
import math
import numbers
import re
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxybench import (
    EVENTS,
    METRICS,
    METRICS_BY_ID,
    EventProfile,
    MeasurementResult,
    ProxyProgram,
    TargetMetrics,
    compute_all_metrics,
    compute_metric,
    predict_events,
)
from proxybench.blocks import BlockLibrary, make_arith_block
from proxybench.errors import (
    DocumentFormatError,
    IncompleteProfileError,
    UndefinedMetricError,
    UnknownEventError,
    UnresolvedBlockError,
)
from proxybench.events import (
    MISS_ACCESS_PAIRS,
    _validate_counts,
    dump_profile,
    dump_program,
    dump_targets,
    load_profile,
    load_program,
    load_targets,
)

N0 = 10_000_000


def tiny_library(profiles):
    """Library of arithmetic stand-in blocks carrying the given profiles."""
    blocks = {}
    for name, counts in profiles.items():
        spec = make_arith_block((("add", 1),), block_id=name)
        blocks[name] = spec.with_profile(EventProfile(counts, N0))
    return BlockLibrary(blocks, N0)


@pytest.fixture
def two_block_library():
    return tiny_library(
        {
            "b1": {"cycles": 500.0, "instructions": 50.0},
            "b2": {"cycles": 300.0, "instructions": 100.0},
        }
    )


class TestPredictEvents:
    def test_identity_single_entry(self, two_block_library):
        result = predict_events(ProxyProgram((("b1", N0),)), two_block_library)
        assert result.counts["cycles"] == 500.0

    def test_doubled_executions_double_counts(self, two_block_library):
        result = predict_events(ProxyProgram((("b1", 2 * N0),)), two_block_library)
        assert result.counts["cycles"] == 1000.0

    def test_additivity_of_two_blocks(self, two_block_library):
        program = ProxyProgram((("b1", N0), ("b2", N0)))
        result = predict_events(program, two_block_library)
        assert result.counts["cycles"] == 800.0

    def test_unknown_block(self, two_block_library):
        with pytest.raises(UnresolvedBlockError):
            predict_events(ProxyProgram((("nope", 1),)), two_block_library)

    def test_uncalibrated_block(self):
        spec = make_arith_block((("add", 1),), block_id="raw")
        library = BlockLibrary({"raw": spec}, N0)
        with pytest.raises(IncompleteProfileError):
            predict_events(ProxyProgram((("raw", 1),)), library)

    def test_duplicate_entries_merge(self, two_block_library):
        dup = ProxyProgram((("b1", N0), ("b1", N0)))
        once = ProxyProgram((("b1", 2 * N0),))
        assert predict_events(dup, two_block_library).counts == \
            predict_events(once, two_block_library).counts

    def test_empty_program_is_zero(self, two_block_library):
        assert predict_events(ProxyProgram(), two_block_library).counts == {}

    def test_provenance_is_simulated(self, two_block_library):
        assert predict_events(ProxyProgram((("b1", 1),)), two_block_library).provenance \
            == "simulated"


class TestLinearityProperties:
    @given(
        n1=st.lists(st.integers(0, 65536), min_size=27, max_size=27),
        n2=st.lists(st.integers(0, 65536), min_size=27, max_size=27),
    )
    @settings(max_examples=50, deadline=None)
    def test_additivity_within_one_ulp(self, library, n1, n2):
        ids = library.ids()
        p1 = ProxyProgram(tuple(zip(ids, n1)))
        p2 = ProxyProgram(tuple(zip(ids, n2)))
        lhs = predict_events(p1 + p2, library).counts
        r1 = predict_events(p1, library).counts
        r2 = predict_events(p2, library).counts
        for event in lhs:
            rhs = r1.get(event, 0.0) + r2.get(event, 0.0)
            assert abs(lhs[event] - rhs) <= np.spacing(max(abs(lhs[event]), abs(rhs)))

    @given(
        counts=st.lists(st.integers(0, 65536), min_size=27, max_size=27),
        k=st.integers(0, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_homogeneity_within_one_ulp(self, library, counts, k):
        program = ProxyProgram(tuple(zip(library.ids(), counts)))
        lhs = predict_events(program.scaled(k), library).counts
        base = predict_events(program, library).counts
        for event in lhs:
            rhs = k * base[event]
            assert abs(lhs[event] - rhs) <= np.spacing(max(abs(lhs[event]), abs(rhs)))

    def test_normalization_independence(self, two_block_library):
        # doubling n0 and every count is the same calibration, bit for bit
        blocks = {}
        for name, spec in two_block_library.blocks.items():
            counts = {e: 2.0 * c for e, c in spec.profile.counts.items()}
            blocks[name] = spec.with_profile(EventProfile(counts, 2 * N0))
        scaled = BlockLibrary(blocks, 2 * N0)
        program = ProxyProgram((("b1", 123_456), ("b2", 7_777)))
        assert predict_events(program, two_block_library).counts == \
            predict_events(program, scaled).counts


class TestComputeMetric:
    def test_l1d_quotient(self):
        counts = MeasurementResult(
            {"l1d_misses": 5.0, "l1d_accesses": 100.0, "instructions": 1.0}
        )
        assert compute_metric(counts, METRICS_BY_ID["l1d_miss_rate"]) == 0.05

    def test_cpi_quotient(self):
        counts = MeasurementResult({"cycles": 1200.0, "instructions": 1000.0})
        assert compute_metric(counts, METRICS_BY_ID["cpi"]) == 1.2

    def test_zero_numerator(self):
        counts = MeasurementResult({"branch_misses": 0.0, "branch_insts": 100.0})
        assert compute_metric(counts, METRICS_BY_ID["branch_miss_rate"]) == 0.0

    def test_zero_denominator_names_metric(self):
        counts = MeasurementResult({"cycles": 10.0, "instructions": 0.0})
        with pytest.raises(UndefinedMetricError, match="cpi"):
            compute_metric(counts, METRICS_BY_ID["cpi"])

    def test_missing_numerator_rejected(self):
        counts = MeasurementResult({"instructions": 10.0})
        with pytest.raises(UndefinedMetricError, match="cycles"):
            compute_metric(counts, METRICS_BY_ID["cpi"])


class TestComputeAllMetrics:
    def test_singleton(self):
        counts = MeasurementResult({"cycles": 30.0, "instructions": 20.0})
        assert compute_all_metrics(counts, [METRICS_BY_ID["cpi"]]) == {"cpi": 1.5}

    def test_empty_definitions(self):
        counts = MeasurementResult({"cycles": 30.0, "instructions": 20.0})
        assert compute_all_metrics(counts, []) == {}

    def test_fourteen_builtins_against_scalar_recompute(self):
        counts = {
            "cycles": 25_000.0, "instructions": 11_000.0,
            "branch_insts": 1_700.0, "branch_misses": 41.0,
            "l1d_accesses": 4_000.0, "l1d_misses": 220.0,
            "l1i_accesses": 11_000.0, "l1i_misses": 13.0,
            "l2_accesses": 233.0, "l2_misses": 74.0,
            "l3_accesses": 74.0, "l3_misses": 19.0,
            "dtlb_accesses": 4_000.0, "dtlb_misses": 17.0,
            "itlb_accesses": 11_000.0, "itlb_misses": 2.0,
            "load_insts": 2_600.0, "store_insts": 1_400.0,
            "fp_insts": 500.0, "int_insts": 4_200.0, "vec_insts": 130.0,
        }
        got = compute_all_metrics(MeasurementResult(counts), METRICS)
        assert len(got) == 14
        # each value recomputed with plain scalar division
        assert got["cpi"] == 25_000.0 / 11_000.0
        assert got["branch_miss_rate"] == 41.0 / 1_700.0
        assert got["l1d_miss_rate"] == 220.0 / 4_000.0
        assert got["l1i_miss_rate"] == 13.0 / 11_000.0
        assert got["l2_miss_rate"] == 74.0 / 233.0
        assert got["l3_miss_rate"] == 19.0 / 74.0
        assert got["dtlb_miss_rate"] == 17.0 / 4_000.0
        assert got["itlb_miss_rate"] == 2.0 / 11_000.0
        assert got["load_ratio"] == 2_600.0 / 11_000.0
        assert got["store_ratio"] == 1_400.0 / 11_000.0
        assert got["branch_ratio"] == 1_700.0 / 11_000.0
        assert got["fp_ratio"] == 500.0 / 11_000.0
        assert got["int_ratio"] == 4_200.0 / 11_000.0
        assert got["vec_ratio"] == 130.0 / 11_000.0

    def test_prediction_consistency_with_closed_form(self, two_block_library):
        # quotient of predicted counts equals the closed-form expansion
        program = ProxyProgram((("b1", 3 * N0), ("b2", 5 * N0)))
        result = predict_events(program, two_block_library)
        cpi = compute_metric(result, METRICS_BY_ID["cpi"])
        assert cpi == (500.0 * 3 + 300.0 * 5) / (50.0 * 3 + 100.0 * 5)


class TestValidation:
    def test_unknown_event_rejected(self):
        with pytest.raises(UnknownEventError):
            EventProfile({"bogus_event": 1.0, "instructions": 1.0})

    def test_negative_count_rejected(self):
        with pytest.raises(DocumentFormatError):
            EventProfile({"instructions": -1.0})

    def test_miss_above_access_rejected(self):
        with pytest.raises(DocumentFormatError):
            EventProfile({"instructions": 1.0, "l1d_misses": 5.0, "l1d_accesses": 2.0})

    def test_profile_requires_instructions(self):
        with pytest.raises(DocumentFormatError):
            EventProfile({"cycles": 10.0})

    def test_measurement_allows_zero_instructions(self):
        MeasurementResult({"instructions": 0.0})

    def test_target_must_be_positive(self):
        with pytest.raises(DocumentFormatError):
            TargetMetrics({"cpi": 0.0})

    def test_rate_target_must_not_exceed_one(self):
        with pytest.raises(DocumentFormatError):
            TargetMetrics({"l1d_miss_rate": 1.5})
        TargetMetrics({"cpi": 1.5})  # CPI is unbounded above

    def test_unknown_metric_id(self):
        with pytest.raises(DocumentFormatError):
            TargetMetrics({"mystery": 0.5})

    def test_target_int_too_long_to_print(self):
        with pytest.raises(DocumentFormatError, match=(
                "^target cpi must be a finite number, got <int too long to show>$")):
            TargetMetrics({"cpi": 10**5000})
        with pytest.raises(DocumentFormatError, match=(
                r"^target cpi must be a finite number, got 1{37}\.\.\.$")):
            TargetMetrics({"cpi": int("1" * 400)})

    def test_program_rejects_negative_executions(self):
        with pytest.raises(DocumentFormatError):
            ProxyProgram((("b1", -1),))

    def test_program_rejects_fractional_executions(self):
        with pytest.raises(DocumentFormatError):
            ProxyProgram((("b1", 2.7),))
        assert ProxyProgram((("b1", 5.0),)).entries == (("b1", 5),)
        assert ProxyProgram((("b1", np.int64(7)),)).entries == (("b1", 7),)

    @pytest.mark.parametrize("block_id", ["", 5, None])
    def test_program_rejects_an_id_that_is_no_nonempty_string(self, block_id):
        # an empty id would dump a program that load_program rejects
        with pytest.raises(DocumentFormatError, match="block id must be a nonempty string"):
            ProxyProgram(((block_id, 5),))

    def test_scaled_rejects_fractional_factor(self):
        with pytest.raises(DocumentFormatError):
            ProxyProgram((("b1", 2),)).scaled(1.5)

    def test_scaled_rejects_a_negative_factor(self):
        with pytest.raises(DocumentFormatError,
                           match="^scale factor must be a nonnegative integer$"):
            ProxyProgram((("b1", 2),)).scaled(-1)

    def test_measurement_rejects_an_unknown_provenance(self):
        with pytest.raises(DocumentFormatError,
                           match="^provenance must be 'simulated' or 'imported', got 'hardware'$"):
            MeasurementResult({"cycles": 1.0}, provenance="hardware")

    @pytest.mark.parametrize("value", [True, "0.5", Decimal("0.5")],
                             ids=["true", "numeric text", "decimal"])
    @pytest.mark.parametrize("build, message", [
        (lambda v: TargetMetrics({"cpi": v}), "target cpi"),
        (lambda v: EventProfile({"instructions": 1.0, "cycles": v}), "profile: count for cycles"),
        (lambda v: MeasurementResult({"cycles": v}), "measurement: count for cycles"),
    ], ids=["target", "profile", "measurement"])
    def test_a_value_that_is_no_real_number_rejected(self, build, message, value):
        # a real number is no bool, no text and no Decimal, as in a document
        with pytest.raises(DocumentFormatError, match=(
                f"^{re.escape(f'{message} must be a finite number, got {value!r}')}$")):
            build(value)

    @pytest.mark.parametrize("build, message", [
        (lambda: EventProfile({"instructions": 10**5000}),
         "profile: count for instructions must be a finite number, got <int too long to show>"),
        (lambda: EventProfile({"instructions": 1.0}, n0=-(10**5000)),
         "profile n0 must be a positive integer, got <int too long to show>"),
        (lambda: MeasurementResult({"cycles": 10**5000}),
         "measurement: count for cycles must be a finite number, got <int too long to show>"),
        (lambda: ProxyProgram(((-(10**5000), 1),)),
         "block id must be a nonempty string, got <int too long to show>"),
        (lambda: ProxyProgram((("a", -(10**5000)),)),
         "block a: executions must be >= 0, got <int too long to show>"),
    ], ids=["count", "profile n0", "measurement count", "program block id", "executions"])
    def test_a_value_too_long_to_print_is_named(self, build, message):
        with pytest.raises(DocumentFormatError, match=f"^{re.escape(message)}$"):
            build()

    def test_a_key_too_long_to_print_is_named(self):
        with pytest.raises(UnknownEventError,
                           match="^unknown event name: <int too long to show>$"):
            EventProfile({10**5000: 1.0})
        with pytest.raises(DocumentFormatError,
                           match="^no metric definition for <int too long to show>$"):
            TargetMetrics({10**5000: 0.5})

    def test_a_value_a_document_can_hold_is_shown_in_full(self):
        n0 = "-1" + "0" * 4299  # the longest int a document can carry
        with pytest.raises(DocumentFormatError,
                           match=f"^profile n0 must be a positive integer, got {n0}$"):
            load_profile(f'{{"n0": {n0}, "counts": {{"instructions": 1.0}}}}')
        with pytest.raises(DocumentFormatError,
                           match=f"^block a: executions must be >= 0, got {n0}$"):
            load_program(f'{{"entries": [{{"block": "a", "executions": {n0}}}]}}')

    def test_event_vocabulary_is_complete(self):
        assert len(EVENTS) == 21
        assert len(METRICS) == 14
        categories = {
            "processor_performance",
            "branch_prediction",
            "cache_behavior",
            "tlb_behavior",
            "instruction_mix",
        }
        for definition in METRICS:
            assert definition.numerator in EVENTS
            assert definition.denominator in EVENTS
            assert definition.numerator != definition.denominator
            assert definition.category in categories
        ids = [definition.id for definition in METRICS]
        assert len(set(ids)) == len(ids)
        assert list(METRICS_BY_ID) == ids


def reference_counts(counts, *, what):
    """The rules of ``_validate_counts``, written out on their own as one
    loop over the values."""
    clean = {}
    for name, value in counts.items():
        if name not in EVENTS:
            raise UnknownEventError(f"unknown event name: {name!r}")
        # a real number, no bool, and one of another type than float within
        # the float range
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
                not isinstance(value, float) and abs(value) > sys.float_info.max):
            raise DocumentFormatError(
                f"{what}: count for {name} must be a finite number, got {value!r}"
            )
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise DocumentFormatError(f"{what}: count for {name} must be finite and >= 0")
        clean[name] = value
    for miss, access in MISS_ACCESS_PAIRS:
        if miss in clean and access in clean and clean[miss] > clean[access]:
            raise DocumentFormatError(
                f"{what}: {miss}={clean[miss]} exceeds {access}={clean[access]}"
            )
    return {name: clean[name] for name in EVENTS if name in clean}


def outcome(validate, counts):
    """The items, with each value's repr, or the error's type and message."""
    try:
        return [(name, repr(value)) for name, value in validate(counts, what="p").items()]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


COUNT_VALUES = st.one_of(
    st.floats(),  # NaN, the infinities and negatives included
    st.floats(min_value=1e306, max_value=1.7976931348623157e308),  # sums that overflow
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e308, 10**400, -(10**400), "7", "x", None]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
)
COUNT_NAMES = st.sampled_from(EVENTS + ("bogus", "", "Cycles"))


class TestPerValueCountCheck:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(COUNT_NAMES, COUNT_VALUES, max_size=len(EVENTS) + 3))
    def test_matches_the_per_value_loop(self, counts):
        assert outcome(_validate_counts, counts) == outcome(reference_counts, counts)
        profile = functools.partial(_validate_counts, profile=True)
        assert outcome(profile, counts) == outcome(profile_counts, counts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.dictionaries(
        st.sampled_from(EVENTS),
        st.one_of(st.floats(min_value=0.0, max_value=1e300),
                  st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 1e308])),
        max_size=len(EVENTS),
    ))
    def test_matches_on_float_counts(self, counts):
        assert outcome(_validate_counts, counts) == outcome(reference_counts, counts)


def profile_counts(counts, *, what):
    """:func:`reference_counts` with the profile's instructions check."""
    clean = reference_counts(counts, what=what)
    if clean.get("instructions", 0.0) <= 0:
        raise DocumentFormatError(f"{what} must have instructions > 0")
    return clean


class TestDocuments:
    def test_profile_round_trip(self):
        profile = EventProfile({"cycles": 12.5, "instructions": 10.0}, N0)
        text = dump_profile(profile)
        assert dump_profile(load_profile(text)) == text

    def test_profile_unknown_key_rejected(self):
        with pytest.raises(DocumentFormatError):
            load_profile('{"n0": 1, "counts": {}, "extra": 1}')

    def test_targets_round_trip(self):
        text = dump_targets(TargetMetrics({"cpi": 1.25, "l1d_miss_rate": 0.05}))
        assert dump_targets(load_targets(text)) == text

    def test_targets_unknown_key_rejected(self):
        with pytest.raises(DocumentFormatError):
            load_targets('{"metrics": {}, "comment": "hi"}')

    def test_program_round_trip(self):
        text = dump_program(ProxyProgram((("b1", 5), ("b2", 0))))
        assert dump_program(load_program(text)) == text

    def test_program_bad_entry_rejected(self):
        with pytest.raises(DocumentFormatError):
            load_program('{"entries": [{"block": "b", "executions": 1, "why": 2}]}')
