"""Measurement backends: a simulated machine and a counts-file importer.

The alignment loop only needs something that can run a program and report
event counts.  ``SimulatedMachine`` stands in for hardware at desk scale:
it perturbs the linear prediction with a configurable noise model, mirroring
the few-percent run-to-run variation real counters show.  Externally
collected counter data enters through the ``.counts`` text format instead.

Counts format: one ``event=value`` pair per line, ``#`` comment lines,
decimal integers or scientific-notation reals.  To convert ``perf stat -x,``
output by hand, map the perf event fields onto the canonical names, e.g.::

    cycles -> cycles                cache-references    -> l3_accesses
    instructions -> instructions    cache-misses        -> l3_misses
    branches -> branch_insts        L1-dcache-loads     -> l1d_accesses (+stores)
    branch-misses -> branch_misses  L1-dcache-load-misses -> l1d_misses
    dTLB-loads -> dtlb_accesses     iTLB-load-misses    -> itlb_misses
    dTLB-load-misses -> dtlb_misses L1-icache-load-misses -> l1i_misses
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import (
    CountsParseError,
    DocumentFormatError,
    DuplicateEventError,
    IncompleteProfileError,
)
from .events import (
    EVENTS,
    MISS_ACCESS_PAIRS,
    MeasurementResult,
    ProfileRows,
    ProxyProgram,
    predict_events,
)

NOISE_KINDS = ("none", "multiplicative_uniform", "multiplicative_gaussian", "interaction")


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation applied to simulated measurements."""

    kind: str = "none"
    epsilon: float = 0.0
    sigma: float = 0.0
    matrix: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DocumentFormatError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise DocumentFormatError("epsilon must be in [0, 1)")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise DocumentFormatError("sigma must be finite and >= 0")
        if self.kind == "interaction":
            if self.matrix is None:
                raise DocumentFormatError("interaction noise needs a matrix")
            rows = tuple(tuple(float(v) for v in row) for row in self.matrix)
            if any(len(row) != len(rows) for row in rows):
                raise DocumentFormatError("interaction matrix must be square")
            if any(v < -0.5 for row in rows for v in row):
                raise DocumentFormatError("interaction entries must be >= -0.5")
            object.__setattr__(self, "matrix", rows)

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel("none")

    @staticmethod
    def uniform(epsilon: float, seed: int = 0) -> "NoiseModel":
        return NoiseModel("multiplicative_uniform", epsilon=epsilon, seed=seed)

    @staticmethod
    def gaussian(sigma: float, seed: int = 0) -> "NoiseModel":
        return NoiseModel("multiplicative_gaussian", sigma=sigma, seed=seed)

    @staticmethod
    def interaction(matrix, seed: int = 0) -> "NoiseModel":
        return NoiseModel("interaction", matrix=tuple(tuple(row) for row in matrix), seed=seed)


def _clamp_miss_pairs(counts: dict[str, float]) -> dict[str, float]:
    # independent per-event noise may push a miss count past its access count
    for miss, access in MISS_ACCESS_PAIRS:
        if miss in counts and access in counts:
            counts[miss] = min(counts[miss], counts[access])
    return counts


def simulate(
    program: ProxyProgram,
    library,
    noise: NoiseModel = NoiseModel.none(),
    nonce: int = 0,
) -> MeasurementResult:
    """Measure ``program`` on the simulated machine.

    Pure function of its arguments: the multiplicative kinds draw one factor
    per event from a generator derived from ``(seed, nonce)``, so the same
    call repeated gives the same result and distinct nonces give independent
    draws.
    """
    if noise.kind == "interaction":
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
        if len(noise.matrix) != m:
            raise DocumentFormatError(
                f"interaction matrix is {len(noise.matrix)}x{len(noise.matrix)}, "
                f"program has {m} blocks"
            )
        instr = [c.get("instructions", 0.0) for c in contributions]
        total = sum(instr) or 1.0
        shares = [v / total for v in instr]
        counts: dict[str, float] = {}
        for j, contribution in enumerate(contributions):
            factor = 1.0 + sum(noise.matrix[j][k] * shares[k] for k in range(m))
            for event, value in contribution.items():
                counts[event] = counts.get(event, 0.0) + max(0.0, factor) * value
        return MeasurementResult(_clamp_miss_pairs(counts), provenance="simulated")

    if noise.kind == "none":
        return predict_events(program, library)
    predicted = ProfileRows(program.block_ids(), library).predict(program)
    return _perturbed(predicted, noise, nonce)


def _perturbed(predicted: dict[str, float], noise: NoiseModel, nonce: int) -> MeasurementResult:
    """The measurement of ``predicted`` counts under multiplicative noise."""
    MeasurementResult(predicted)  # raises what noise and its clamp could hide
    rng = np.random.default_rng([noise.seed & 0xFFFFFFFFFFFFFFFF, nonce & 0xFFFFFFFFFFFFFFFF])
    # one factor per present event in canonical order; a single sized draw
    # yields the same stream as one scalar draw per event
    if noise.kind == "multiplicative_uniform":
        deltas = rng.uniform(-noise.epsilon, noise.epsilon, size=len(predicted))
    else:
        deltas = rng.normal(0.0, noise.sigma, size=len(predicted))
    counts = {
        event: value * max(0.0, 1.0 + delta)
        for (event, value), delta in zip(predicted.items(), deltas.tolist())
    }
    return MeasurementResult(_clamp_miss_pairs(counts), provenance="simulated")


class Measurer(Protocol):
    """Anything that can run a program and report event counts."""

    events: tuple[str, ...]

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        ...


class SimulatedMachine:
    """Measurer backed by :func:`simulate`.

    It keeps the count model of the last program's block sequence, which
    every round of an ``align`` shares; results are those of
    :func:`simulate` all the same.
    """

    events = EVENTS

    def __init__(self, library, noise: NoiseModel = NoiseModel.none()):
        self.library = library
        self.noise = noise
        self._model: ProfileRows | None = None

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        if self.noise.kind == "interaction":
            return simulate(program, self.library, self.noise, nonce)
        model = self._model
        block_ids = program.block_ids()
        if model is None or model.library is not self.library or model.block_ids != block_ids:
            model = self._model = ProfileRows(block_ids, self.library)
        predicted = model.predict(program)
        if self.noise.kind == "none":
            return MeasurementResult(predicted, provenance="simulated")
        return _perturbed(predicted, self.noise, nonce)


# ---------------------------------------------------------------------------
# counts documents


def parse_counts(text: str) -> MeasurementResult:
    """Parse a ``.counts`` document into an imported measurement."""
    counts: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value_text = line.partition("=")
        if not sep:
            raise CountsParseError(f"expected event=value, got {raw!r}", lineno)
        name = name.strip()
        if name not in EVENTS:
            raise CountsParseError(f"unknown event name {name!r}", lineno)
        if name in counts:
            raise DuplicateEventError(f"duplicate event {name!r}", lineno)
        try:
            value = float(value_text.strip())
        except ValueError:
            raise CountsParseError(f"bad count value {value_text.strip()!r}", lineno) from None
        if not math.isfinite(value) or value < 0:
            raise CountsParseError(f"count for {name} must be finite and >= 0", lineno)
        counts[name] = value
    try:
        return MeasurementResult(counts, provenance="imported")
    except DocumentFormatError as exc:
        raise CountsParseError(str(exc)) from None


def _format_count(value: float) -> str:
    if value.is_integer():
        return str(int(value))
    return repr(value)


def format_counts(result: MeasurementResult) -> str:
    """Canonical ``.counts`` text: canonical event order, round-trip safe."""
    lines = [
        f"{event}={_format_count(result.counts[event])}"
        for event in EVENTS
        if event in result.counts
    ]
    return "\n".join(lines) + "\n"
