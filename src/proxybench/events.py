"""Hardware-event vocabulary, ratio metrics, and the linear count model's
types and documents; ``measure.SimulatedMachine`` evaluates the model.

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

from .errors import DocumentFormatError, UndefinedMetricError, UnknownEventError
from .jsonutil import NONEMPTY, brief, codec, real, shown

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
_MISSES, _ACCESSES = ([EVENT_INDEX[e] for e in pair] for pair in zip(*MISS_ACCESS_PAIRS))

@dataclass(frozen=True)
class MetricDefinition:
    """A ratio metric: numerator event over denominator event."""

    id: str
    numerator: str
    denominator: str
    category: str


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
    """``counts`` as floats in canonical key order.  Every key must be an
    event and every count a finite number >= 0, no miss count may exceed its
    access count, and a ``profile`` must have instructions > 0.  Any key and
    value may come in; a count other than a float must be a ``real``."""
    clean = {}
    for name, value in counts.items():
        if name not in _EVENT_SET:
            raise UnknownEventError(f"unknown event name: {shown(name)}")
        number = value if type(value) is float else real(value)
        if number is None:
            raise DocumentFormatError(
                f"{what}: count for {name} must be a finite number, got {shown(value)}"
            )
        if not 0.0 <= number < math.inf:  # NaN fails too
            raise DocumentFormatError(f"{what}: count for {name} must be finite and >= 0")
        clean[name] = number
    for miss, access in MISS_ACCESS_PAIRS:
        if miss in clean and access in clean and clean[miss] > clean[access]:
            raise DocumentFormatError(
                f"{what}: {miss}={clean[miss]} exceeds {access}={clean[access]}"
            )
    if profile and not clean.get("instructions", 0.0) > 0.0:
        raise DocumentFormatError(f"{what} must have instructions > 0")
    # canonical key order so downstream serialization is stable
    return {name: clean[name] for name in EVENTS if name in clean}


def _valid_rows(matrix: np.ndarray) -> np.ndarray:
    """Which rows of a count matrix pass ``_validate_counts``, NaN rows not."""
    return (((matrix >= 0.0) & (matrix < math.inf)).all(axis=1)  # NaN fails too
            & (matrix[:, _MISSES] <= matrix[:, _ACCESSES]).all(axis=1)
            & (matrix[:, EVENT_INDEX["instructions"]] > 0.0))


def is_count(value) -> bool:
    """Whether ``value`` is an int >= 1; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def require_n0(n0, what: str) -> None:
    if not is_count(n0):
        raise DocumentFormatError(f"{what} n0 must be a positive integer, got {shown(n0)}")


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


def _checked_profile(row: tuple, n0: int) -> EventProfile:
    """The ``EventProfile`` of a row that ``_valid_rows`` passed."""
    profile = object.__new__(EventProfile)
    vars(profile).update(counts=MappingProxyType(dict(zip(EVENTS, map(float, row)))), n0=n0)
    return profile


@dataclass(frozen=True)
class MeasurementResult:
    """Event counts observed (or simulated) for one run of a program."""

    counts: Mapping[str, float]
    provenance: str = "simulated"

    def __post_init__(self):
        if self.provenance not in ("simulated", "imported"):
            raise DocumentFormatError(
                f"provenance must be 'simulated' or 'imported', got {shown(self.provenance)}"
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
                raise DocumentFormatError(f"no metric definition for {shown(metric_id)}")
            number = value if type(value) is float else real(value)
            if number is None:
                raise DocumentFormatError(
                    f"target {metric_id} must be a finite number, got {brief(value)}"
                )
            if not math.isfinite(number) or number <= 0:
                raise DocumentFormatError(f"target {metric_id} must be finite and > 0")
            if definition.category in _BOUNDED_CATEGORIES and number > 1:
                raise DocumentFormatError(f"target {metric_id} must be in (0, 1]")
            clean[metric_id] = number
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
            if not isinstance(block_id, str) or not block_id:
                raise DocumentFormatError(
                    f"block id must be a nonempty string, got {shown(block_id)}"
                )
            if isinstance(executions, float) and executions.is_integer():
                executions = int(executions)
            try:
                executions = operator.index(executions)
            except TypeError:
                raise DocumentFormatError(
                    f"block {block_id}: executions must be an integer, got {shown(executions)}"
                ) from None
            if executions < 0:
                raise DocumentFormatError(
                    f"block {block_id}: executions must be >= 0, got {shown(executions)}"
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

    def block_ids(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.entries)


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
