"""Fidelity scoring: per-metric accuracy, category floors, series statistics.

Accuracy of a proxy value against a reference value is
``1 - |real - proxy| / |real|``; it can go negative when the error exceeds
100% and is reported as-is (clamping would hide gross mismatches).  A metric
category is only as good as its worst member, so category accuracy is the
minimum over the member metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DocumentFormatError,
    IncompleteReportError,
    UndefinedAccuracyError,
    UndefinedCorrelationError,
)
from .events import NUMBERS, MetricDefinition, TargetMetrics
from .jsonutil import brief, codec, real, shown


def accuracy(real_value: float, proxy_value: float) -> float:
    """``1 - |real - proxy| / |real|``; undefined for a zero reference."""
    if real_value == 0:
        raise UndefinedAccuracyError("accuracy against a zero reference is undefined")
    return 1.0 - abs(real_value - proxy_value) / abs(real_value)


def category_accuracy(
    per_metric: Mapping[str, float], definitions: Iterable[MetricDefinition]
) -> dict[str, float]:
    """Minimum accuracy per category over the given metric definitions."""
    floors: dict[str, float] = {}
    for definition in definitions:
        if definition.id not in per_metric:
            raise IncompleteReportError(f"no accuracy for metric {definition.id}")
        value = per_metric[definition.id]
        current = floors.get(definition.category)
        floors[definition.category] = value if current is None else min(current, value)
    return floors


@dataclass(frozen=True)
class ComparisonSeries:
    """Paired metric values of real benchmarks (x) and their proxies (y)."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        for name in ("x", "y"):
            values = getattr(self, name)
            if not isinstance(values, Iterable):
                raise DocumentFormatError(f"series {name} must be a sequence, got {brief(values)}")
            values = tuple(values)
            numbers = tuple(map(real, values))
            for i, (value, number) in enumerate(zip(values, numbers)):
                if number is None and (isinstance(value, bool) or not isinstance(value, Real)):
                    raise DocumentFormatError(
                        f"series {name}[{i}] must be a number, got {shown(value)}")
            if None in numbers:
                raise DocumentFormatError(f"series {name}: a number past the float range")
            for i, number in enumerate(numbers):
                if not math.isfinite(number):  # pearson would read -1.0 for a NaN
                    raise DocumentFormatError(f"series {name}[{i}] must be finite, got {number}")
            object.__setattr__(self, name, numbers)
        if len(self.x) != len(self.y):
            raise DocumentFormatError("series x and y must have equal lengths")

    def __len__(self) -> int:
        return len(self.x)


def pearson(series: ComparisonSeries) -> float:
    """Pearson product-moment correlation of the paired series."""
    if len(series) < 2:
        raise UndefinedCorrelationError("correlation needs at least 2 pairs")
    x = np.asarray(series.x)
    y = np.asarray(series.y)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation of a constant series is undefined")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def mean_abs_rel_error(series: ComparisonSeries) -> float:
    """Mean of ``|y_i - x_i| / |x_i|`` over the series."""
    if any(v == 0 for v in series.x):
        raise UndefinedAccuracyError("relative error against a zero value is undefined")
    return math.fsum(abs(y - x) / abs(x) for x, y in zip(series.x, series.y)) / len(series)


@dataclass(frozen=True)
class AccuracyReport:
    """Per-metric and per-category fidelity of one aligned proxy."""

    per_metric: dict[str, float]
    per_category: dict[str, float]
    table: tuple[tuple[str, float, float, float, str], ...]
    metadata: dict = field(default_factory=dict)


def build_report(
    targets: TargetMetrics, trace, metadata: Mapping | None = None
) -> AccuracyReport:
    """Score the final round of an alignment trace against its targets."""
    if not trace.rounds:
        raise IncompleteReportError("trace has no rounds")
    final = trace.rounds[-1]
    definitions = targets.definitions()
    per_metric: dict[str, float] = {}
    rows = []
    for definition in definitions:
        if definition.id not in final.metrics:
            raise IncompleteReportError(f"final round lacks metric {definition.id}")
        target = targets.targets[definition.id]
        measured = final.metrics[definition.id]
        value = accuracy(target, measured)
        per_metric[definition.id] = value
        rows.append((definition.id, target, measured, value, definition.category))
    per_category = category_accuracy(per_metric, definitions)
    meta = dict(metadata or {})
    meta.setdefault("rounds", len(trace.rounds))
    return AccuracyReport(per_metric, per_category, tuple(rows), meta)


REPORT = {
    "per_metric": NUMBERS,
    "per_category": NUMBERS,
    "table": [(str, float, float, float, str)],
    "metadata": {str: object},
}


def report_to_doc(report: AccuracyReport) -> dict:
    return {
        "per_metric": dict(report.per_metric),
        "per_category": dict(report.per_category),
        "table": [list(row) for row in report.table],
        "metadata": dict(report.metadata),
    }


def report_from_doc(doc: dict) -> AccuracyReport:
    table = tuple(map(tuple, doc["table"]))
    return AccuracyReport(doc["per_metric"], doc["per_category"], table, doc["metadata"])


dump_report, load_report = codec("report", REPORT, report_to_doc, report_from_doc)
