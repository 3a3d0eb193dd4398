"""The iterative alignment loop.

Round 1 solves the full-library system for the target metrics, prunes the
blocks with (near-)zero execution shares, and keeps the surviving sub-library
fixed.  Every later round measures the current proxy, asks for 20% more
instructions (configurable), solves the incremental system for nonnegative
execution-count increases, and grows the program.  Counts never decrease.

The metric rows are built once over the library and narrowed to the working
set once; a refinement round computes only its right-hand side and row
weights.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass

from .errors import AlignmentError, DocumentFormatError, ProxyBenchError
from .events import (
    NUMBERS,
    PROGRAM,
    MeasurementResult,
    ProxyProgram,
    TargetMetrics,
    compute_all_metrics,
    is_count,
    program_from_doc,
    program_to_doc,
)
from .jsonutil import brief, codec, real
from .measure import Measurer, SimulatedMachine, predict_events
from .report import accuracy
from .solver import (
    MetricRows,
    NnlsSolution,
    assemble_incremental_system,
    assemble_initial_system,
    counts_from_solution,
    nnls,
    select_blocks,
    unreachable_rows,
)


@dataclass(frozen=True)
class AlignConfig:
    rounds: int = 10
    growth: float = 0.2
    ins1: float = 5e8
    tol: float = 1e-10
    prune_eps: float = 1e-6  # relative to the largest execution share
    max_iter: int | None = None
    stop_threshold: float | None = None  # stop early once all accuracies reach it

    def __post_init__(self):
        def need(name, valid, rule):
            if not valid:
                value = brief(getattr(self, name))
                raise DocumentFormatError(f"{name} must be {rule}, got {value}")

        def number(value) -> bool:
            return math.isfinite(real(value, math.nan))

        need("rounds", is_count(self.rounds), "an int >= 1")
        for name in ("growth", "ins1", "tol"):
            value = getattr(self, name)
            need(name, number(value) and value > 0, "finite and > 0")
        need("prune_eps", number(self.prune_eps) and self.prune_eps >= 0, "finite and >= 0")
        need("max_iter", self.max_iter is None or is_count(self.max_iter), "None or an int >= 1")
        stop = self.stop_threshold
        need("stop_threshold", stop is None or number(stop), "None or finite")
        for name in ("growth", "ins1", "tol", "prune_eps", "stop_threshold"):
            value = getattr(self, name)
            if type(value) not in (int, float, type(None)):  # a trace writes plain numbers
                object.__setattr__(self, name, real(value))


@dataclass(frozen=True)
class RoundRecord:
    round: int
    program: ProxyProgram
    measured: MeasurementResult
    metrics: dict[str, float]
    accuracy: dict[str, float]
    residual_norm: float
    unreachable: tuple[str, ...] = ()


@dataclass(frozen=True)
class AlignmentTrace:
    rounds: tuple[RoundRecord, ...]
    library_hash: str
    config: AlignConfig
    targets: TargetMetrics


def instruction_total(program: ProxyProgram, library) -> float:
    """Predicted retired instructions of ``program`` over ``library``; 0.0
    for a program with no entries."""
    return predict_events(program, library).counts.get("instructions", 0.0)


def _certified(solution: NnlsSolution, round_index: int) -> NnlsSolution:
    if not solution.certified:
        raise AlignmentError(
            f"NNLS solve not certified after {solution.iterations} iterations "
            f"(residual {solution.residual_norm!r})",
            round_index,
        )
    return solution


def align(
    library,
    targets: TargetMetrics,
    config: AlignConfig = AlignConfig(),
    measurer: Measurer | None = None,
) -> tuple[ProxyProgram, AlignmentTrace]:
    """Construct and iteratively refine a proxy for ``targets``.

    Returns the final program and the complete round-by-round trace.
    """
    if not targets.targets:
        raise AlignmentError("targets name no metric; give at least one")
    if measurer is None:
        measurer = SimulatedMachine(library)
    definitions = targets.definitions()
    records: list[RoundRecord] = []

    round_index = 1
    try:
        rows = MetricRows.of(library, targets)
        system = assemble_initial_system(rows, config.ins1)
        solution = _certified(nnls(system, config.tol, config.max_iter), round_index)
        if not solution.x.any():
            raise AlignmentError(
                "the solve certified x = 0, so no block would run "
                f"(residual {solution.residual_norm!r})",
                round_index,
            )
        eps = config.prune_eps * float(max(solution.x, default=0.0))
        working = select_blocks(solution, library, eps)
        rows = rows.columns(working.ids())
        by_block = dict(zip(library.ids(), counts_from_solution(solution, library.n0)))
        program = ProxyProgram(tuple((b, by_block[b]) for b in working.ids()))
        # rounds 2..N start from the whole working set, which round 1 picked
        # from its passive set; round 1 starts cold, as least squares over
        # more columns than rows is underdetermined
        start = [True] * len(working)
        flagged = ()
        for round_index in range(1, config.rounds + 1):
            if round_index > 1:
                delta_ins = measured.counts["instructions"] * config.growth
                system = assemble_incremental_system(rows, measured, delta_ins)
                flagged = unreachable_rows(system)
                solution = _certified(
                    nnls(system, config.tol, config.max_iter, start=start), round_index
                )
                increments = counts_from_solution(solution, library.n0)
                program = ProxyProgram(
                    tuple(
                        (block_id, executions + delta)
                        for (block_id, executions), delta in zip(program.entries, increments)
                    )
                )
            measured = measurer.measure(program, nonce=round_index)
            metrics = compute_all_metrics(measured, definitions)
            accuracies = {m: accuracy(targets.targets[m], metrics[m]) for m in metrics}
            records.append(RoundRecord(
                round_index, program, measured, metrics, accuracies, solution.residual_norm, flagged
            ))
            if config.stop_threshold is not None and all(
                v >= config.stop_threshold for v in accuracies.values()
            ):
                break
    except AlignmentError:
        raise
    except ProxyBenchError as exc:
        raise AlignmentError(str(exc), round_index) from exc

    trace = AlignmentTrace(tuple(records), library.content_hash(), config, targets)
    return program, trace


# ---------------------------------------------------------------------------
# trace documents

CONFIG = typing.get_type_hints(AlignConfig)  # a config document holds every field
ROUND = {
    "round": int,
    "program": PROGRAM,
    "measured": {"counts": NUMBERS, "provenance": str},
    "metrics": NUMBERS,
    "accuracy": NUMBERS,
    "residual_norm": float,
    "unreachable": [str],
}
TRACE = {"library_hash": str, "config": CONFIG, "targets": NUMBERS, "rounds": [ROUND]}


def config_to_doc(config: AlignConfig) -> dict:
    return asdict(config)  # a config document holds its fields


def trace_to_doc(trace: AlignmentTrace) -> dict:
    return {
        "library_hash": trace.library_hash,
        "config": config_to_doc(trace.config),
        "targets": dict(trace.targets.targets),
        "rounds": [
            {
                "round": record.round,
                "program": program_to_doc(record.program),
                "measured": {
                    "counts": dict(record.measured.counts),
                    "provenance": record.measured.provenance,
                },
                "metrics": dict(record.metrics),
                "accuracy": dict(record.accuracy),
                "residual_norm": record.residual_norm,
                "unreachable": list(record.unreachable),
            }
            for record in trace.rounds
        ],
    }


def trace_from_doc(doc: dict) -> AlignmentTrace:
    records = tuple(
        RoundRecord(
            entry["round"],
            program_from_doc(entry["program"]),
            MeasurementResult(entry["measured"]["counts"], entry["measured"]["provenance"]),
            entry["metrics"],
            entry["accuracy"],
            entry["residual_norm"],
            tuple(entry["unreachable"]),
        )
        for entry in doc["rounds"]
    )
    config, targets = AlignConfig(**doc["config"]), TargetMetrics(doc["targets"])
    return AlignmentTrace(records, doc["library_hash"], config, targets)


dump_trace, load_trace = codec("trace", TRACE, trace_to_doc, trace_from_doc)
