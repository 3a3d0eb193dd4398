"""Measurement backends: a simulated machine and a counts-file importer.

The alignment loop only needs something that can run a program and report
event counts.  ``SimulatedMachine`` stands in for hardware at desk scale:
it builds the linear count model of a program's blocks, predicts the
program's counts with it, and perturbs them with a configurable noise model,
either independent per-event factors, mirroring the few-percent run-to-run
variation real counters show, or a systematic interaction between library
blocks, whose one matrix serves every program.  ``predict_events`` is its
noiseless measurement.  Externally collected counter data enters through the
``.counts`` text format instead.

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
from numbers import Integral, Real
from typing import Protocol

import numpy as np

from .errors import (
    CountsParseError,
    DocumentFormatError,
    DuplicateEventError,
    IncompleteProfileError,
    UnresolvedBlockError,
)
from .events import EVENTS, MISS_ACCESS_PAIRS, MeasurementResult, ProxyProgram

NOISE_KINDS = ("none", "multiplicative_uniform", "multiplicative_gaussian", "interaction")


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation applied to simulated measurements."""

    kind: str = "none"
    epsilon: float = 0.0
    sigma: float = 0.0
    matrix: np.ndarray | None = None  # interaction, read-only: library x library blocks
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DocumentFormatError(f"unknown noise kind {self.kind!r}")
        for name, high, rule in (("epsilon", 1.0, "in [0, 1)"),
                                 ("sigma", math.inf, "finite and >= 0")):
            value = getattr(self, name)
            try:  # a bool is no level, and NaN fails the range test
                valid = isinstance(value, Real) and not isinstance(value, bool) and \
                    0.0 <= float(value) < high
            except OverflowError:  # an int or a Fraction past the float range
                valid = False
            if not valid:
                raise DocumentFormatError(f"{name} must be {rule}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.seed, Integral) or isinstance(self.seed, bool):
            raise DocumentFormatError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "interaction":
            if self.matrix is None:
                raise DocumentFormatError("interaction noise needs a matrix")
            try:  # as objects, so numpy reads no bool or str as a number
                matrix = np.array(self.matrix, dtype=object)
            except ValueError:  # rows of arrays of unequal shapes
                matrix = np.array(None)
            if matrix.ndim < 2 or matrix.shape[0] != matrix.shape[1]:
                raise DocumentFormatError("interaction matrix must be square")
            try:
                if matrix.ndim > 2 or not all(isinstance(entry, Real) and
                                              not isinstance(entry, bool) for entry in matrix.flat):
                    raise TypeError
                matrix = matrix.astype(float)
            except (TypeError, OverflowError):  # OverflowError: an int past the float range
                raise DocumentFormatError("interaction matrix entries must be numbers") from None
            # NaN fails both comparisons; argmax names the first bad entry, row-major
            bad = ~((matrix >= -0.5) & (matrix < math.inf))
            if bad.any():
                r, c = divmod(int(bad.argmax()), len(matrix))
                raise DocumentFormatError(
                    f"interaction entry [{r}][{c}] must be finite and >= -0.5, "
                    f"got {float(matrix[r, c])}"
                )
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)

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
        return NoiseModel("interaction", matrix=matrix, seed=seed)


def _clamp_miss_pairs(counts: dict[str, float]) -> dict[str, float]:
    # independent per-event noise may push a miss count past its access count
    for miss, access in MISS_ACCESS_PAIRS:
        if miss in counts and access in counts:
            counts[miss] = min(counts[miss], counts[access])
    return counts


class Measurer(Protocol):
    """Anything that can run a program and report event counts."""

    events: tuple[str, ...]

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        ...


class SimulatedMachine:
    """Measurer that predicts a program's counts with the linear count model
    and applies its noise model to them.

    The model of a block sequence holds the profile rows of its distinct
    blocks, absent events as zero, and the events any of them profiles.  The
    machine keeps the model of the last program's sequence, which every round
    of an ``align`` shares, so a measurement only scales the stored rows.
    """

    events = EVENTS

    def __init__(self, library, noise: NoiseModel = NoiseModel.none()):
        self.library = library
        self.noise = noise
        self._modeled = (None, None)  # the library and block ids of the model

    def _build_model(self, block_ids: tuple[str, ...]) -> None:
        library = self.library
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
        self._rows = rows
        self._present = tuple(event for event, seen in zip(EVENTS, present.tolist()) if seen)
        self._merge = len(distinct) != len(block_ids)
        self._counts = np.where(absent, 0.0, counts)[:, present]
        self._modeled = (library, block_ids)

    def _predict(self, program: ProxyProgram, interaction=None) -> dict[str, float]:
        """Predicted counts of ``program`` over the model's sequence, per
        present event in canonical order.  An ``interaction`` matrix over the
        library's blocks scales block j's executions by max(0, 1 + sum_k
        M[j][k] * share_k), where k runs over the program's distinct blocks
        and share_k is block k's part of the predicted instructions."""
        entries = program.merged().entries if self._merge else program.entries
        executions = np.array([n for _, n in entries], dtype=float)
        n0 = float(self.library.n0)
        # an overflow to infinity, or an infinite interaction factor times a
        # zero count, fails the finiteness check of the counts; a NaN factor
        # counts as 0
        with np.errstate(over="ignore", invalid="ignore"):
            if interaction is not None and self._rows:
                column = self._present.index("instructions")
                instructions = self._counts[:, column] * executions / n0
                shares = instructions / (sum(instructions.tolist()) or 1.0)
                gathered = interaction[np.ix_(self._rows, self._rows)]
                executions *= np.fmax(1.0 + gathered @ shares, 0.0)
            products = self._counts * executions[:, None]
        predicted = {}
        for event, column in zip(self._present, products.T.tolist()):
            try:
                predicted[event] = math.fsum(column) / n0
            except OverflowError:
                # finite nonnegative terms whose sum is past the float maximum
                predicted[event] = math.inf
        return predicted

    def measure(self, program: ProxyProgram, nonce: int = 0) -> MeasurementResult:
        """The noisy counts of ``program``: the multiplicative kinds draw one
        factor per event from a generator seeded with ``(seed, nonce)``."""
        noise = self.noise
        block_ids = program.block_ids()
        if self._modeled[0] is not self.library or self._modeled[1] != block_ids:
            self._build_model(block_ids)
        if noise.kind == "interaction" and len(noise.matrix) != len(self.library):
            raise DocumentFormatError(
                f"interaction matrix is {len(noise.matrix)}x{len(noise.matrix)}, "
                f"library has {len(self.library)} blocks"
            )
        predicted = self._predict(program)
        if noise.kind == "none":
            return MeasurementResult(predicted, provenance="simulated")
        MeasurementResult(predicted)  # raises what noise and its clamp could hide
        if noise.kind == "interaction":
            counts = self._predict(program, noise.matrix)
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


def predict_events(program: ProxyProgram, library) -> MeasurementResult:
    """Predicted counts of ``program``: sum of profile counts scaled by N_j/n0,
    the measurement of a noiseless ``SimulatedMachine``.

    Duplicate entries are merged first.  The per-event sum is accumulated with
    ``math.fsum`` and divided by ``n0`` once, so programs whose contributions
    are exactly representable predict exactly.  An event is predicted when any
    block of the program profiles it; blocks lacking it contribute zero.
    """
    return SimulatedMachine(library).measure(program)


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
