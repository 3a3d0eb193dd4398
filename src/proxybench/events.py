"""Hardware-event vocabulary, ratio metrics, and the linear count model.

A program's hardware-event counts are modeled as a linear combination of
per-block event profiles: running block ``j`` a total of ``N_j`` times
contributes ``counts_j * N_j / n0`` to every event, where ``counts_j`` are
the block's occurrences per ``n0`` executions.  Connecting programs adds
their counts; scaling a program scales its counts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DocumentFormatError,
    IncompleteProfileError,
    UndefinedMetricError,
    UnknownEventError,
    UnresolvedBlockError,
)
from .jsonutil import NONEMPTY, codec

# Occurrences per this many block executions is the calibration convention.
N0_DEFAULT = 10_000_000

# Canonical hardware-event names.  Everything else is rejected at parse time.
EVENTS = (
    "cycles",
    "instructions",
    "branch_insts",
    "branch_misses",
    "l1d_accesses",
    "l1d_misses",
    "l1i_accesses",
    "l1i_misses",
    "l2_accesses",
    "l2_misses",
    "l3_accesses",
    "l3_misses",
    "dtlb_accesses",
    "dtlb_misses",
    "itlb_accesses",
    "itlb_misses",
    "load_insts",
    "store_insts",
    "fp_insts",
    "int_insts",
    "vec_insts",
)

_EVENT_SET = frozenset(EVENTS)

# column of each event in a library's event matrix
EVENT_INDEX = {event: i for i, event in enumerate(EVENTS)}

# miss events may never exceed their access events (branch misses pair with
# retired branch instructions the same way)
MISS_ACCESS_PAIRS = (
    ("l1d_misses", "l1d_accesses"),
    ("l1i_misses", "l1i_accesses"),
    ("l2_misses", "l2_accesses"),
    ("l3_misses", "l3_accesses"),
    ("dtlb_misses", "dtlb_accesses"),
    ("itlb_misses", "itlb_accesses"),
    ("branch_misses", "branch_insts"),
)

# a library's event matrix holds, per calibrated block, the counts of
# ``EVENTS`` in order: NaN where its profile lacks an event
_EVENT_ROW = operator.itemgetter(*EVENTS)
ABSENT_ROW = (math.nan,) * len(EVENTS)
_MISS_COLUMNS = np.array([EVENT_INDEX[miss] for miss, _ in MISS_ACCESS_PAIRS], dtype=np.intp)
_ACCESS_COLUMNS = np.array([EVENT_INDEX[access] for _, access in MISS_ACCESS_PAIRS], dtype=np.intp)
_INSTRUCTIONS = EVENT_INDEX["instructions"]

# the rules of :func:`count_misfit`
BAD_COUNT, MISS_ABOVE_ACCESS, NO_INSTRUCTIONS = "count", "miss above access", "instructions"

CATEGORIES = (
    "processor_performance",
    "branch_prediction",
    "cache_behavior",
    "tlb_behavior",
    "instruction_mix",
)


def require_event(name: str) -> str:
    if name not in _EVENT_SET:
        raise UnknownEventError(f"unknown event name: {name!r}")
    return name


@dataclass(frozen=True)
class MetricDefinition:
    """A ratio metric: numerator event over denominator event."""

    id: str
    numerator: str
    denominator: str
    category: str

    def __post_init__(self):
        require_event(self.numerator)
        require_event(self.denominator)
        if self.numerator == self.denominator:
            raise DocumentFormatError(
                f"metric {self.id}: numerator and denominator must differ"
            )
        if self.category not in CATEGORIES:
            raise DocumentFormatError(
                f"metric {self.id}: unknown category {self.category!r}"
            )


# The 14 built-in metrics: CPI, branch misprediction rate, local miss rates
# for both L1 caches, L2, L3 and both TLBs, and six instruction-mix ratios
# over total retired instructions.
METRICS = (
    MetricDefinition("cpi", "cycles", "instructions", "processor_performance"),
    MetricDefinition("branch_miss_rate", "branch_misses", "branch_insts", "branch_prediction"),
    MetricDefinition("l1d_miss_rate", "l1d_misses", "l1d_accesses", "cache_behavior"),
    MetricDefinition("l1i_miss_rate", "l1i_misses", "l1i_accesses", "cache_behavior"),
    MetricDefinition("l2_miss_rate", "l2_misses", "l2_accesses", "cache_behavior"),
    MetricDefinition("l3_miss_rate", "l3_misses", "l3_accesses", "cache_behavior"),
    MetricDefinition("dtlb_miss_rate", "dtlb_misses", "dtlb_accesses", "tlb_behavior"),
    MetricDefinition("itlb_miss_rate", "itlb_misses", "itlb_accesses", "tlb_behavior"),
    MetricDefinition("load_ratio", "load_insts", "instructions", "instruction_mix"),
    MetricDefinition("store_ratio", "store_insts", "instructions", "instruction_mix"),
    MetricDefinition("branch_ratio", "branch_insts", "instructions", "instruction_mix"),
    MetricDefinition("fp_ratio", "fp_insts", "instructions", "instruction_mix"),
    MetricDefinition("int_ratio", "int_insts", "instructions", "instruction_mix"),
    MetricDefinition("vec_ratio", "vec_insts", "instructions", "instruction_mix"),
)

METRICS_BY_ID = {definition.id: definition for definition in METRICS}

# Categories whose metric values are rates/shares bounded by 1.
_BOUNDED_CATEGORIES = frozenset(
    ("branch_prediction", "cache_behavior", "tlb_behavior", "instruction_mix")
)


def _validate_counts(counts: Mapping[str, float], *, what: str, profile=False) -> dict[str, float]:
    """``counts`` as floats in canonical key order, held to the rules of
    :func:`count_misfit`.  Any key and value may come in, so each value goes
    through ``float`` first."""
    clean = {}
    for name, value in counts.items():
        try:
            clean[name] = float(value)
        except (TypeError, ValueError, OverflowError):
            clean[name] = math.nan  # breaks the count rule, whose error names it
    row = np.array([event_row(clean)])
    misfit = count_misfit(row, len(clean), profile)
    if misfit is not None:
        raise_count_error(counts, row[0], misfit[1], what)
    # canonical key order so downstream serialization is stable
    return {name: clean[name] for name in EVENTS if name in clean}


def event_row(counts: Mapping[str, float]) -> tuple:
    """``counts`` of every event in ``EVENTS`` order, NaN where absent: one
    row of a library's event matrix.  Keys that are not events are left out."""
    try:
        return _EVENT_ROW(counts)
    except KeyError:
        return tuple(counts.get(event, math.nan) for event in EVENTS)


def _counted(rows: np.ndarray) -> np.ndarray:
    # NaN, an absent event, fails both comparisons
    return (rows >= 0.0) & (rows < math.inf)


def count_misfit(rows: np.ndarray, sizes, profiles: bool = False) -> tuple[int, str] | None:
    """The first of the event rows ``rows`` that breaks a rule, and the first
    rule it breaks, or ``None``.  Row ``i`` is the :func:`event_row` of counts
    of ``sizes[i]`` keys.  The rules, in order:

    * ``BAD_COUNT``: every key is an event, and every count is finite and
      >= 0.  A key that is no event has no cell, and a count that is not
      finite fails the test, so fewer than ``sizes[i]`` cells pass it.
    * ``MISS_ABOVE_ACCESS``: no miss count exceeds its access count.  A
      comparison with an absent event, NaN, is false.
    * ``NO_INSTRUCTIONS``, of ``profiles`` only: instructions > 0.
    """
    bad_count = _counted(rows).sum(1) != sizes
    miss_above_access = (rows.take(_MISS_COLUMNS, 1) > rows.take(_ACCESS_COLUMNS, 1)).any(1)
    broken = bad_count | miss_above_access
    if profiles:
        broken |= ~(rows[:, _INSTRUCTIONS] > 0.0)
    if not broken.any():
        return None
    index = int(broken.argmax())
    if bad_count[index]:
        return index, BAD_COUNT
    return index, MISS_ABOVE_ACCESS if miss_above_access[index] else NO_INSTRUCTIONS


def raise_count_error(counts: Mapping[str, float], row: np.ndarray, rule: str, what: str):
    """Raise the error of ``counts``, whose event row ``row`` breaks
    ``rule``.  It names the first key of ``counts``, or the first of
    ``MISS_ACCESS_PAIRS``, that breaks the rule."""
    if rule == BAD_COUNT:
        counted = _counted(row)
        name = next(name for name in counts if not counted[EVENT_INDEX[require_event(name)]])
        try:
            float(counts[name])
        except (TypeError, ValueError, OverflowError):
            raise DocumentFormatError(
                f"{what}: count for {name} must be a finite number, got {counts[name]!r}"
            ) from None
        raise DocumentFormatError(f"{what}: count for {name} must be finite and >= 0")
    if rule == MISS_ABOVE_ACCESS:
        value = dict(zip(EVENTS, row.tolist()))
        miss, access = next(pair for pair in MISS_ACCESS_PAIRS if value[pair[0]] > value[pair[1]])
        raise DocumentFormatError(f"{what}: {miss}={value[miss]} exceeds {access}={value[access]}")
    raise DocumentFormatError(f"{what} must have instructions > 0")


def is_count(value) -> bool:
    """Whether ``value`` is an int >= 1; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def require_n0(n0, what: str) -> None:
    if not is_count(n0):
        raise DocumentFormatError(f"{what} n0 must be a positive integer, got {n0!r}")


@dataclass(frozen=True)
class EventProfile:
    """Per-block event occurrences, normalized to ``n0`` block executions.

    ``counts`` is read-only: a library's event matrix and content hash are
    computed from it once.
    """

    counts: Mapping[str, float]
    n0: int = N0_DEFAULT

    def __post_init__(self):
        require_n0(self.n0, "profile")
        clean = _validate_counts(self.counts, what="profile", profile=True)
        object.__setattr__(self, "counts", MappingProxyType(clean))

    def __reduce__(self):
        return EventProfile, (dict(self.counts), self.n0)


@dataclass(frozen=True)
class MeasurementResult:
    """Event counts observed (or simulated) for one run of a program."""

    counts: Mapping[str, float]
    provenance: str = "simulated"

    def __post_init__(self):
        if self.provenance not in ("simulated", "imported"):
            raise DocumentFormatError(
                f"provenance must be 'simulated' or 'imported', got {self.provenance!r}"
            )
        object.__setattr__(self, "counts", _validate_counts(self.counts, what="measurement"))


@dataclass(frozen=True)
class TargetMetrics:
    """Target values for a set of built-in metrics."""

    targets: Mapping[str, float]

    def __post_init__(self):
        clean: dict[str, float] = {}
        for metric_id, value in self.targets.items():
            definition = METRICS_BY_ID.get(metric_id)
            if definition is None:
                raise DocumentFormatError(f"no metric definition for {metric_id!r}")
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                raise DocumentFormatError(
                    f"target {metric_id} must be a finite number, got {value!r}"
                ) from None
            if not math.isfinite(value) or value <= 0:
                raise DocumentFormatError(f"target {metric_id} must be finite and > 0")
            if definition.category in _BOUNDED_CATEGORIES and value > 1:
                raise DocumentFormatError(f"target {metric_id} must be in (0, 1]")
            clean[metric_id] = value
        object.__setattr__(self, "targets", clean)

    def definitions(self) -> tuple[MetricDefinition, ...]:
        return tuple(METRICS_BY_ID[m] for m in self.targets)


@dataclass(frozen=True)
class ProxyProgram:
    """Ordered (block id, execution count) pairs; the synthesized artifact."""

    entries: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        clean = []
        for block_id, executions in self.entries:
            if isinstance(executions, float) and executions.is_integer():
                executions = int(executions)
            try:
                executions = operator.index(executions)
            except TypeError:
                raise DocumentFormatError(
                    f"block {block_id}: executions must be an integer, got {executions!r}"
                ) from None
            if executions < 0:
                raise DocumentFormatError(
                    f"block {block_id}: executions must be >= 0, got {executions}"
                )
            clean.append((str(block_id), executions))
        object.__setattr__(self, "entries", tuple(clean))

    def merged(self) -> "ProxyProgram":
        """Collapse duplicate block ids by summing execution counts."""
        totals: dict[str, int] = {}
        for block_id, executions in self.entries:
            totals[block_id] = totals.get(block_id, 0) + executions
        return ProxyProgram(tuple(totals.items()))

    def scaled(self, k: int) -> "ProxyProgram":
        try:
            k = operator.index(k)
        except TypeError:
            raise DocumentFormatError("scale factor must be a nonnegative integer") from None
        if k < 0:
            raise DocumentFormatError("scale factor must be a nonnegative integer")
        return ProxyProgram(tuple((b, n * k) for b, n in self.entries))

    def __add__(self, other: "ProxyProgram") -> "ProxyProgram":
        return ProxyProgram(self.entries + other.entries)

    @property
    def runnable(self) -> bool:
        return any(n > 0 for _, n in self.entries)

    def block_ids(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.entries)


class ProfileRows:
    """The linear count model of one block sequence.

    Holds the profile rows of the sequence's distinct blocks, absent events
    as zero, and the events any of them profiles.  Predicting a program over
    the same sequence then only scales these rows by its execution counts.
    """

    def __init__(self, block_ids: tuple[str, ...], library):
        distinct = tuple(dict.fromkeys(block_ids))
        rows = []
        for block_id in distinct:
            row = library.row_index.get(block_id)
            if row is None:
                raise UnresolvedBlockError(f"program references unknown block {block_id!r}")
            if library.blocks[block_id].profile is None:
                raise IncompleteProfileError(f"block {block_id} has no calibrated profile")
            rows.append(row)
        counts = library.event_matrix[rows]
        absent = np.isnan(counts)
        present = ~absent.all(axis=0)
        self.library = library
        self.block_ids = tuple(block_ids)
        self.events = tuple(event for event, seen in zip(EVENTS, present.tolist()) if seen)
        self._merge = len(distinct) != len(block_ids)
        self._counts = np.where(absent, 0.0, counts)[:, present]
        self._n0 = float(library.n0)

    def size(self) -> int:
        """The number of distinct blocks, in the order of the model's rows."""
        return len(self._counts)

    def predict(self, program: ProxyProgram, interaction=None) -> dict[str, float]:
        """Predicted counts of ``program``, whose block ids must be this
        model's sequence, per present event in canonical order.

        An ``interaction`` matrix over the distinct blocks scales block j's
        executions by max(0, 1 + sum_k M[j][k] * share_k), where share_k is
        block k's part of the predicted instructions."""
        entries = program.merged().entries if self._merge else program.entries
        executions = np.array([n for _, n in entries], dtype=float)
        n0 = self._n0
        # an overflow to infinity, or an infinite interaction factor times a
        # zero count, fails the finiteness check of the counts; a NaN factor
        # counts as 0
        with np.errstate(over="ignore", invalid="ignore"):
            if interaction:  # None, or () for a program of no blocks
                instructions = self._counts[:, self.events.index("instructions")] * executions / n0
                shares = instructions / (sum(instructions.tolist()) or 1.0)
                executions *= np.fmax(1.0 + np.asarray(interaction) @ shares, 0.0)
            products = self._counts * executions[:, None]
        columns = products.T.tolist()
        try:
            return {event: math.fsum(column) / n0 for event, column in zip(self.events, columns)}
        except OverflowError:
            # finite nonnegative terms whose sum is past the float maximum
            predicted = {}
            for event, column in zip(self.events, columns):
                try:
                    predicted[event] = math.fsum(column) / n0
                except OverflowError:
                    predicted[event] = math.inf
            return predicted


def predict_events(program: ProxyProgram, library) -> MeasurementResult:
    """Predicted counts of ``program``: sum of profile counts scaled by N_j/n0.

    Duplicate entries are merged first.  The per-event sum is accumulated with
    ``math.fsum`` and divided by ``n0`` once, so programs whose contributions
    are exactly representable predict exactly.  An event is predicted when any
    block of the program profiles it; blocks lacking it contribute zero.
    """
    predicted = ProfileRows(program.block_ids(), library).predict(program)
    return MeasurementResult(predicted, provenance="simulated")


def compute_metric(counts: MeasurementResult, definition: MetricDefinition) -> float:
    numerator = counts.counts.get(definition.numerator)
    denominator = counts.counts.get(definition.denominator)
    if numerator is None:
        raise UndefinedMetricError(
            f"metric {definition.id}: event {definition.numerator} not measured"
        )
    if denominator is None or denominator == 0:
        raise UndefinedMetricError(
            f"metric {definition.id}: denominator {definition.denominator} is zero or missing"
        )
    return numerator / denominator


def compute_all_metrics(
    counts: MeasurementResult, definitions: Iterable[MetricDefinition]
) -> dict[str, float]:
    return {d.id: compute_metric(counts, d) for d in definitions}


# ---------------------------------------------------------------------------
# document formats

NUMBERS = {str: float}  # event counts, or metric values by metric id
PROFILE = {"n0": int, "counts": NUMBERS}
PROGRAM = {"entries": [{"block": NONEMPTY, "executions": int}]}


def profile_to_doc(profile: EventProfile) -> dict:
    return {"n0": profile.n0, "counts": dict(profile.counts)}


def profile_from_doc(doc: dict) -> EventProfile:
    return EventProfile(doc["counts"], doc["n0"])


def program_to_doc(program: ProxyProgram) -> dict:
    return {
        "entries": [
            {"block": block_id, "executions": executions}
            for block_id, executions in program.entries
        ]
    }


def program_from_doc(doc: dict) -> ProxyProgram:
    return ProxyProgram(tuple((entry["block"], entry["executions"]) for entry in doc["entries"]))


dump_profile, load_profile = codec("profile", PROFILE, profile_to_doc, profile_from_doc)
dump_targets, load_targets = codec(
    "targets",
    {"metrics": NUMBERS},
    lambda targets: {"metrics": dict(targets.targets)},
    lambda doc: TargetMetrics(doc["metrics"]),
)
dump_program, load_program = codec("program", PROGRAM, program_to_doc, program_from_doc)
