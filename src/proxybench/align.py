"""The iterative alignment loop.

Round 1 solves the full-library system for the target metrics, prunes the
blocks with (near-)zero execution shares, and keeps the surviving sub-library
fixed.  Every later round measures the current proxy, asks for 20% more
instructions (configurable), solves the incremental system for nonnegative
execution-count increases, and grows the program.  Counts never decrease.

The working set's metric rows are copied out of round 1's matrix once; a
refinement round computes only its right-hand side and row weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AlignmentError, DocumentFormatError, ProxyBenchError
from .events import (
    MeasurementResult,
    MetricDefinition,
    ProxyProgram,
    TargetMetrics,
    compute_all_metrics,
    predict_events,
    program_from_doc,
    program_to_doc,
)
from .jsonutil import dumps_canonical, loads_document
from .measure import Measurer
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
        if self.rounds < 1:
            raise DocumentFormatError("rounds must be >= 1")
        for name, value in (("growth", self.growth), ("ins1", self.ins1), ("tol", self.tol)):
            if not (math.isfinite(value) and value > 0):
                raise DocumentFormatError(f"{name} must be finite and > 0")


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


def _score(
    measured: MeasurementResult,
    targets: TargetMetrics,
    definitions: tuple[MetricDefinition, ...],
) -> tuple[dict[str, float], dict[str, float]]:
    metrics = compute_all_metrics(measured, definitions)
    accuracies = {m: accuracy(targets.targets[m], metrics[m]) for m in metrics}
    return metrics, accuracies


def align(
    library,
    targets: TargetMetrics,
    config: AlignConfig = AlignConfig(),
    measurer: Measurer | None = None,
) -> tuple[ProxyProgram, AlignmentTrace]:
    """Construct and iteratively refine a proxy for ``targets``.

    Returns the final program and the complete round-by-round trace.
    """
    if measurer is None:
        from .measure import SimulatedMachine

        measurer = SimulatedMachine(library)
    definitions = targets.definitions()
    records: list[RoundRecord] = []

    round_index = 1
    try:
        system = assemble_initial_system(library, targets, config.ins1)
        solution = _certified(nnls(system, config.tol, config.max_iter), round_index)
        eps = config.prune_eps * float(max(solution.x, default=0.0))
        working = select_blocks(solution, library, eps)
        rows = MetricRows.of(system, targets, working.ids())
        by_block = dict(zip(library.ids(), counts_from_solution(solution, library.n0)))
        program = ProxyProgram(tuple((b, by_block[b]) for b in working.ids()))
        # rounds 2..N start from the whole working set, which round 1 picked
        # from its passive set; round 1 starts cold, as least squares over
        # more columns than rows is underdetermined
        start = [True] * len(working)
        measured = measurer.measure(program, nonce=1)
        metrics, accuracies = _score(measured, targets, definitions)
        records.append(
            RoundRecord(1, program, measured, metrics, accuracies, solution.residual_norm)
        )

        for round_index in range(2, config.rounds + 1):
            if config.stop_threshold is not None and all(
                v >= config.stop_threshold for v in records[-1].accuracy.values()
            ):
                break
            delta_ins = measured.counts["instructions"] * config.growth
            system = assemble_incremental_system(
                working, targets, measured, delta_ins, rows=rows
            )
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
            metrics, accuracies = _score(measured, targets, definitions)
            records.append(
                RoundRecord(
                    round_index,
                    program,
                    measured,
                    metrics,
                    accuracies,
                    solution.residual_norm,
                    flagged,
                )
            )
    except AlignmentError:
        raise
    except ProxyBenchError as exc:
        raise AlignmentError(str(exc), round_index) from exc

    trace = AlignmentTrace(tuple(records), library.content_hash(), config, targets)
    return program, trace


# ---------------------------------------------------------------------------
# trace documents


def config_to_doc(config: AlignConfig) -> dict:
    return {
        "rounds": config.rounds,
        "growth": config.growth,
        "ins1": config.ins1,
        "tol": config.tol,
        "prune_eps": config.prune_eps,
        "max_iter": config.max_iter,
        "stop_threshold": config.stop_threshold,
    }


def config_from_doc(doc: dict) -> AlignConfig:
    from .events import _require_keys

    keys = {"rounds", "growth", "ins1", "tol", "prune_eps", "max_iter", "stop_threshold"}
    _require_keys(doc, keys, keys, "config")
    return AlignConfig(**doc)


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
    from .events import _require_keys

    keys = {"library_hash", "config", "targets", "rounds"}
    _require_keys(doc, keys, keys, "trace")
    records = []
    round_keys = {
        "round", "program", "measured", "metrics", "accuracy", "residual_norm", "unreachable",
    }
    for entry in doc["rounds"]:
        _require_keys(entry, round_keys, round_keys, "trace round")
        measured = MeasurementResult(
            entry["measured"]["counts"], entry["measured"]["provenance"]
        )
        records.append(
            RoundRecord(
                int(entry["round"]),
                program_from_doc(entry["program"]),
                measured,
                {str(k): float(v) for k, v in entry["metrics"].items()},
                {str(k): float(v) for k, v in entry["accuracy"].items()},
                float(entry["residual_norm"]),
                tuple(entry["unreachable"]),
            )
        )
    return AlignmentTrace(
        tuple(records),
        str(doc["library_hash"]),
        config_from_doc(doc["config"]),
        TargetMetrics(doc["targets"]),
    )


def dump_trace(trace: AlignmentTrace) -> str:
    return dumps_canonical(trace_to_doc(trace))


def load_trace(text: str) -> AlignmentTrace:
    return trace_from_doc(loads_document(text))
