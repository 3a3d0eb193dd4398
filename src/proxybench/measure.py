"""Measurement backends: a simulated machine and a counts-file importer.

The alignment loop only needs something that can run a program and report
event counts.  ``SimulatedMachine`` stands in for hardware at desk scale:
it predicts counts with the linear count model and perturbs them with a
configurable noise model, either independent per-event factors, mirroring
the few-percent run-to-run variation real counters show, or a systematic
interaction between the program's blocks.  Externally
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

from .errors import CountsParseError, DocumentFormatError, DuplicateEventError
# predict_events is not called here: the benchmark's tracer wraps measure.predict_events
from .events import (  # noqa: F401
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
    """Measure ``program`` on a :class:`SimulatedMachine` of ``library``.

    Pure function of its arguments: the multiplicative kinds draw one factor
    per event from a generator derived from ``(seed, nonce)``, so the same
    call repeated gives the same result and distinct nonces give independent
    draws.
    """
    return SimulatedMachine(library, noise).measure(program, nonce)


class Measurer(Protocol):
    """Anything that can run a program and report event counts."""

    events: tuple[str, ...]

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        ...


class SimulatedMachine:
    """Measurer that predicts a program's counts with the linear count model
    (``events.ProfileRows``) and applies its noise model to them.

    It keeps the count model of the last program's block sequence, which
    every round of an ``align`` shares.
    """

    events = EVENTS

    def __init__(self, library, noise: NoiseModel = NoiseModel.none()):
        self.library = library
        self.noise = noise
        self._model: ProfileRows | None = None

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        noise = self.noise
        model = self._model
        block_ids = program.block_ids()
        if model is None or model.library is not self.library or model.block_ids != block_ids:
            model = self._model = ProfileRows(block_ids, self.library)
        if noise.kind == "interaction" and len(noise.matrix) != model.size():
            raise DocumentFormatError(
                f"interaction matrix is {len(noise.matrix)}x{len(noise.matrix)}, "
                f"program has {model.size()} blocks"
            )
        predicted = model.predict(program)
        if noise.kind == "none":
            return MeasurementResult(predicted, provenance="simulated")
        MeasurementResult(predicted)  # raises what noise and its clamp could hide
        if noise.kind == "interaction":
            counts = model.predict(program, noise.matrix)
        else:
            rng = np.random.default_rng(
                [noise.seed & 0xFFFFFFFFFFFFFFFF, nonce & 0xFFFFFFFFFFFFFFFF])
            # one factor per present event in canonical order; a single sized
            # draw yields the same stream as one scalar draw per event
            if noise.kind == "multiplicative_uniform":
                deltas = rng.uniform(-noise.epsilon, noise.epsilon, size=len(predicted))
            else:
                deltas = rng.normal(0.0, noise.sigma, size=len(predicted))
            counts = {
                event: value * max(0.0, 1.0 + delta)
                for (event, value), delta in zip(predicted.items(), deltas.tolist())
            }
        return MeasurementResult(_clamp_miss_pairs(counts), provenance="simulated")


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
