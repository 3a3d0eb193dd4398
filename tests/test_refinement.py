"""Refinement rounds against systems assembled from scratch.

``align`` builds the metric rows over the library once, narrows them to the
working set, and reuses them in every refinement round.  Each round's system
must equal, byte for byte, the one assembled from rows built over the working
set alone, and solving that system must reproduce the round's residual and
count increments bit for bit.  Under systematic measurement error the rounds
must also pay: the final round scores better than the first.
"""

import sys

import numpy as np
import pytest

from proxybench import AlignConfig, NoiseModel, SimulatedMachine, align
from proxybench.solver import (
    BUDGET_ROW,
    MetricRows,
    assemble_incremental_system,
    counts_from_solution,
    nnls,
    unreachable_rows,
)
from tests.conftest import hidden_targets
from tests.test_jsonutil import sweep_library

NOISES = {
    "none": lambda seed: NoiseModel.none(),
    "uniform": lambda seed: NoiseModel.uniform(0.03, seed=seed),
    "gaussian": lambda seed: NoiseModel.gaussian(0.02, seed=seed),
}


@pytest.fixture
def recorded_systems(monkeypatch):
    """Every system that ``align`` gets from ``assemble_incremental_system``."""
    systems = []

    def recording(*args, **kwargs):
        system = assemble_incremental_system(*args, **kwargs)
        systems.append(system)
        return system

    monkeypatch.setattr(sys.modules["proxybench.align"], "assemble_incremental_system", recording)
    return systems


@pytest.fixture(scope="module")
def wide_library():
    return sweep_library()


def reference_unreachable(system):
    """The sign scan of ``unreachable_rows``, redone over the matrix."""
    matrix, rhs = system.matrix, system.rhs
    flagged = ((rhs > 0) & np.all(matrix <= 0, axis=1)) | (
        (rhs < 0) & np.all(matrix >= 0, axis=1)
    )
    return tuple(
        label
        for label, flag in zip(system.row_labels, flagged.tolist())
        if flag and label != BUDGET_ROW
    )


def check_rounds_against_scratch(library, targets, config, noise, systems):
    _, trace = align(library, targets, config, SimulatedMachine(library, noise))
    assert len(trace.rounds) == config.rounds
    assert len(systems) == config.rounds - 1
    for previous, record, system in zip(trace.rounds, trace.rounds[1:], systems):
        ids = record.program.block_ids()
        delta_ins = previous.measured.counts["instructions"] * config.growth
        rows = MetricRows.of(library.subset(ids), targets)
        scratch = assemble_incremental_system(rows, previous.measured, delta_ins)
        assert system.matrix.flags.c_contiguous
        for name in ("matrix", "rhs", "row_weights"):
            assert getattr(system, name).tobytes() == getattr(scratch, name).tobytes(), name
        assert system.row_labels == scratch.row_labels
        assert system.col_labels == scratch.col_labels == ids
        assert unreachable_rows(scratch) == reference_unreachable(scratch) == record.unreachable
        assert unreachable_rows(system) == record.unreachable

        solution = nnls(scratch, config.tol, config.max_iter, start=[True] * len(ids))
        assert solution.residual_norm.hex() == record.residual_norm.hex()
        increments = [
            after - before
            for (_, after), (_, before) in zip(record.program.entries, previous.program.entries)
        ]
        assert counts_from_solution(solution, library.n0) == increments


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("ins1, growth", [(5e6, 0.2), (5e8, 0.1)])
def test_default_library_rounds_equal_scratch_systems(
    library, recorded_systems, noise, ins1, growth
):
    rng = np.random.default_rng(4711)
    config = AlignConfig(rounds=10, ins1=ins1, growth=growth)
    for seed in range(10):
        _, targets, _ = hidden_targets(library, rng)
        recorded_systems.clear()
        check_rounds_against_scratch(
            library, targets, config, NOISES[noise](seed), recorded_systems
        )


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_generated_library_rounds_equal_scratch_systems(
    wide_library, recorded_systems, noise
):
    assert len(wide_library) > 600
    rng = np.random.default_rng(4712)
    config = AlignConfig(rounds=10, ins1=5e6)
    for seed in range(4):
        _, targets, _ = hidden_targets(wide_library, rng)
        recorded_systems.clear()
        check_rounds_against_scratch(
            wide_library, targets, config, NOISES[noise](seed), recorded_systems
        )


def test_rounds_correct_systematic_error(library):
    """The reason the loop iterates: counts that drift from the linear
    prediction in a systematic way.  One library-keyed interaction matrix
    skews every hidden program's proxy; refinement must recover it.  The
    bounds were set from the first measurement, a mean worst-metric
    accuracy of 0.919 after round 1 and 0.987 after round 10."""
    rng = np.random.default_rng(20231115)
    matrix = np.random.default_rng(1977).uniform(-0.3, 0.3, (len(library), len(library)))
    machine = SimulatedMachine(library, NoiseModel.interaction(matrix))
    first, last = [], []
    for _ in range(20):
        _, targets, ins = hidden_targets(library, rng)
        _, trace = align(library, targets, AlignConfig(rounds=10, ins1=ins), machine)
        assert len(trace.rounds) == 10
        first.append(min(trace.rounds[0].accuracy.values()))
        last.append(min(trace.rounds[-1].accuracy.values()))
    assert np.mean(last) >= 0.97
    assert np.mean(last) - np.mean(first) >= 0.04
