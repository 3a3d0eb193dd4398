"""Linear-system assembly and non-negative least squares.

A target ratio ``num/den = v`` over the combined program linearizes to the
homogeneous row ``sum_j (num_j - v * den_j) * x_j = 0`` with ``x_j = N_j/n0``.
One extra row pins the total instruction budget.  The weighted system is
solved for ``x >= 0`` with the Lawson-Hanson active-set scheme: the passive
set grows by the most positive dual component and each inner least-squares
subproblem is solved by orthogonal factorization.

A solve may start from a guessed passive set (Lawson & Hanson 1974; Bro & De
Jong 1997).  The refinement rounds pass their whole working set, which round
1 picked from its passive set.  Their systems share the matrix and differ in
the right-hand side and row weights, so most of them certify after one or two
least-squares solves instead of rebuilding the passive set column by column.
The result keeps its bits: Lawson-Hanson returns ``lstsq`` over its final
passive set, so a warm and a cold solve that end on the same passive set
return the same ``x`` and residual.

Every system is assembled from a ``MetricRows``: the matrix, labels and
per-block denominator counts that depend only on the block set and the
targets.  ``align`` builds them once over the library, narrows them to the
working set round 1 keeps, and hands them to every refinement round, which
then computes only the right-hand side and the row weights from the measured
counts.

Rows are weighted so one unit of weighted residual means the same thing on
every row: a metric row is scaled by ``1/(target * expected denominator
count)``, making its residual the relative error of the achieved metric, and
the budget row by ``q/budget`` (q metric rows) so the solver can neither
satisfy the homogeneous rows by driving the solution toward zero nor trade
the instruction budget away.  Normalizing by coefficient magnitude instead
is unstable: when every block's own metric sits at the target, the row's
coefficients vanish and its weight diverges, and the solver then chases
measurement noise on that row with astronomical execution counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySelectionError,
    IncompleteProfileError,
    InvalidSystemError,
)
from .events import EVENT_INDEX, MeasurementResult, TargetMetrics

BUDGET_ROW = "budget"


@dataclass(frozen=True)
class LinearSystem:
    matrix: np.ndarray  # (q+1) x m
    rhs: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_weights: np.ndarray

    def __post_init__(self):
        rows, cols = self.matrix.shape
        if not (len(self.rhs) == len(self.row_labels) == len(self.row_weights) == rows):
            raise InvalidSystemError("row dimensions are inconsistent")
        if len(self.col_labels) != cols:
            raise InvalidSystemError("column dimensions are inconsistent")
        if not np.all(self.row_weights > 0):
            raise InvalidSystemError("row weights must be positive")


@dataclass(frozen=True, eq=False)
class MetricRows:
    """The metric rows and the budget row of the systems over one block set
    and one set of targets, with their labels and each metric's per-block
    denominator counts: everything in a system but the right-hand side and
    the row weights.

    The arrays are read-only, since every system assembled from the rows
    shares them, and C-contiguous: over a strided view the solver's sums run
    in another order and the last bits of its solution move.
    """

    matrix: np.ndarray  # (q+1) x m
    denominators: np.ndarray  # q x m
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    targets: TargetMetrics

    def __post_init__(self):
        if not self.col_labels:
            raise InvalidSystemError("the library has no blocks")
        for name in ("matrix", "denominators"):
            array = np.array(getattr(self, name), dtype=float, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "definitions", self.targets.definitions())

    @classmethod
    def of(cls, library, targets: TargetMetrics) -> "MetricRows":
        """The rows over every block of ``library``."""
        definitions = targets.definitions()
        labels = tuple(d.id for d in definitions) + (BUDGET_ROW,)
        # the budget row is instructions over instructions at target 0, so
        # its coefficients come out as the instruction counts themselves
        pairs = [(d.numerator, d.denominator) for d in definitions]
        pairs.append(("instructions", "instructions"))
        columns = [[EVENT_INDEX[event] for event in pair] for pair in pairs]
        # (rows, blocks, numerator/denominator)
        counts = library.event_matrix[:, columns].transpose(1, 0, 2)
        cols = library.ids()
        # row-major: the first hit is the first (metric, block) pair lacking
        # an event, numerator before denominator
        missing = np.argwhere(np.isnan(counts))
        if len(missing):
            i, j, k = missing[0]
            raise IncompleteProfileError(
                f"block {cols[j]} lacks event {pairs[i][k]} needed by metric {labels[i]}"
            )
        values = np.array([targets.targets[d.id] for d in definitions] + [0.0])
        # a product that overflows is caught, with its row named, in _system
        with np.errstate(over="ignore"):
            matrix = counts[:, :, 0] - values[:, None] * counts[:, :, 1]
        return cls(matrix, counts[:-1, :, 1], labels, cols, targets)

    def columns(self, ids) -> "MetricRows":
        """The rows at the columns of the blocks ``ids``."""
        column = {label: j for j, label in enumerate(self.col_labels)}
        index = [column[block_id] for block_id in ids]
        return MetricRows(
            self.matrix[:, index], self.denominators[:, index],
            self.row_labels, tuple(ids), self.targets,
        )


@dataclass(frozen=True)
class NnlsSolution:
    x: np.ndarray
    residual_norm: float
    iterations: int
    certified: bool = True


def _row_weights(rows: MetricRows, denominators, budget: float) -> np.ndarray:
    """1/(target * denominator estimate) per metric row, q/budget for the
    budget row; weighted residuals are then relative errors."""
    weights = np.ones(len(rows.row_labels))
    for i, definition in enumerate(rows.definitions):
        scale = rows.targets.targets[definition.id] * denominators[i]
        if math.isinf(scale):
            raise InvalidSystemError(
                f"weighted row {definition.id}: target times denominator estimate overflows a float"
            )
        if scale > 0:
            weights[i] = 1.0 / scale
    weights[-1] = max(len(rows.definitions), 1) / max(abs(budget), 1.0)
    return weights


def _system(rows: MetricRows, rhs, weights) -> LinearSystem:
    """The weighted system over ``rows``, unless a row's weighted sum of
    squares overflows: lstsq returns NaN for it, so the solve could only end
    uncertified."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = rows.matrix * weights[:, None]
        overflows = ~np.isfinite(np.einsum("ij,ij->i", a, a) + (rhs * weights) ** 2)
    if overflows.any():
        raise InvalidSystemError(
            f"weighted row {rows.row_labels[overflows.argmax()]} overflows a float"
        )
    return LinearSystem(rows.matrix, rhs, rows.row_labels, rows.col_labels, weights)


def assemble_initial_system(rows: MetricRows, ins1: float) -> LinearSystem:
    """Equation system for the first solve: homogeneous metric rows plus the
    instruction-budget row with right-hand side ``ins1``.

    Denominator estimates for the row weights assume the instruction budget
    is spread evenly over the blocks.
    """
    if ins1 <= 0:
        raise InvalidSystemError(f"ins1 must be > 0, got {ins1}")
    rhs = np.zeros(len(rows.row_labels))
    rhs[-1] = float(ins1)
    with np.errstate(over="ignore"):
        per_instruction = (rows.denominators / rows.matrix[-1]).tolist()
    # Python's left-to-right sum, not numpy's pairwise one, fixes the weights'
    # last bits
    denominators = [ins1 * sum(row) / len(row) for row in per_instruction]
    return _system(rows, rhs, _row_weights(rows, denominators, float(ins1)))


def assemble_incremental_system(
    rows: MetricRows, measured: MeasurementResult, delta_ins: float
) -> LinearSystem:
    """Equation system for one refinement round.

    The unknowns are nonnegative execution-count increases; each metric row's
    right-hand side is the gap ``v * den(measured) - num(measured)`` left by
    the measured counts, and the budget row asks for ``delta_ins`` more
    instructions.
    """
    if delta_ins < 0:
        raise InvalidSystemError(f"delta_ins must be >= 0, got {delta_ins}")
    rhs = np.zeros(len(rows.row_labels))
    denominators = []
    for i, definition in enumerate(rows.definitions):
        value = rows.targets.targets[definition.id]
        num = measured.counts.get(definition.numerator)
        den = measured.counts.get(definition.denominator)
        if num is None or den is None:
            raise IncompleteProfileError(
                f"measurement lacks events for metric {definition.id}"
            )
        rhs[i] = value * den - num
        denominators.append(den)
    rhs[-1] = float(delta_ins)
    return _system(rows, rhs, _row_weights(rows, denominators, float(delta_ins)))


def unreachable_rows(system: LinearSystem) -> tuple[str, ...]:
    """Metric rows whose right-hand side cannot be approached with x >= 0."""
    matrix, rhs = system.matrix, system.rhs
    flagged = (rhs > 0) & (matrix <= 0).all(1) | (rhs < 0) & (matrix >= 0).all(1)
    return tuple(
        label
        for label, flag in zip(system.row_labels, flagged.tolist())
        if flag and label != BUDGET_ROW
    )


def unreachable_targets(library, targets: TargetMetrics) -> dict[str, tuple[float, float]]:
    """The targets no program over ``library`` can reach, each with the range
    of its metric over the library's blocks.

    A program's metric is a nonnegative-weighted mediant of the blocks' own
    ratios, so it lies between the smallest and the largest of them (in a
    valid profile a zero denominator comes with a zero numerator, which adds
    nothing).  A target outside that range by more than a relative 1e-9,
    which rounding cannot explain, is unreachable.  Blocks lacking an event
    are left out; the solver names them.
    """
    far = {}
    for definition in targets.definitions():
        num = library.event_matrix[:, EVENT_INDEX[definition.numerator]]
        den = library.event_matrix[:, EVENT_INDEX[definition.denominator]]
        keep = (den > 0) & ~np.isnan(num)
        if not keep.any():
            continue
        with np.errstate(over="ignore"):
            ratios = num[keep] / den[keep]
        lo, hi = float(ratios.min()), float(ratios.max())
        value = targets.targets[definition.id]
        if value < lo * (1 - 1e-9) or value > hi * (1 + 1e-9):
            far[definition.id] = (lo, hi)
    return far


def nnls(
    system: LinearSystem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    start=None,
) -> NnlsSolution:
    """Minimize ``||W(Ax - b)||`` subject to ``x >= 0`` (Lawson-Hanson).

    ``start`` is an optional boolean mask over the columns: the guessed
    passive set.  The least-squares solution on it is re-solved without its
    nonpositive components until it is strictly positive, and the
    Lawson-Hanson loop then runs from that feasible point with the same dual
    test and certificate as a cold solve.  Whenever the final passive set is
    the one a cold solve reaches, ``x`` and the residual are bit-identical to
    the cold solve's, since both are ``lstsq`` over that set.

    ``iterations`` counts the columns the loop added to the passive set.
    Exceeding ``max_iter`` returns the best solution found so far with
    ``certified=False``; a certified solution satisfies the KKT conditions at
    ``tol * scale`` where ``scale = max(1, ||(WA)^T Wb||_inf)``.
    """
    if tol <= 0:
        raise InvalidSystemError(f"tol must be > 0, got {tol}")
    if not (np.isfinite(system.matrix).all() and np.isfinite(system.rhs).all()):
        raise InvalidSystemError("system contains NaN or Inf entries")

    a = system.matrix * system.row_weights[:, None]
    b = system.rhs * system.row_weights
    rows, cols = a.shape
    if max_iter is None:
        max_iter = 3 * cols + 30

    x = np.zeros(cols)
    passive = np.zeros(cols, dtype=bool)
    if start is not None:
        passive = np.array(start, dtype=bool)
        if passive.shape != (cols,):
            raise InvalidSystemError(
                f"start mask has shape {passive.shape}, system has {cols} columns"
            )
        while passive.any():
            z = np.zeros(cols)
            z[passive], *_ = np.linalg.lstsq(a[:, passive], b, rcond=None)
            if z[passive].min() > 0:
                x = z
                break
            passive &= z > 0
    scale = max(1.0, float(np.abs(a.T @ b).max()) if cols else 1.0)
    threshold = tol * scale

    iterations = 0
    certified = False
    while iterations < max_iter:
        dual = a.T @ (b - a @ x)
        dual[passive] = -np.inf
        if passive.all() or dual.max() <= threshold:
            certified = True
            break
        passive[int(dual.argmax())] = True
        iterations += 1

        while True:
            z = np.zeros(cols)
            z[passive], *_ = np.linalg.lstsq(a[:, passive], b, rcond=None)
            # a step back can empty the passive set; x = 0 is then feasible
            if z[passive].min(initial=np.inf) > 0:
                x = z
                break
            # step back to the boundary and drop the blocking components
            mask = passive & (z <= 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, x / (x - z), np.inf)
            alpha = float(ratios.min())
            if not math.isfinite(alpha):
                alpha = 0.0  # blocking components already sit at zero
            blocking = int(ratios.argmin())
            x = x + alpha * (z - x)
            # rounding can leave the blocking component a hair above zero,
            # and the same step then repeats with ever smaller alpha forever
            x[blocking] = 0.0
            passive &= x > 0
            x[~passive] = 0.0

    x = np.where(x > 0, x, 0.0)  # exact zeros, never -0.0
    residual = float(np.linalg.norm(a @ x - b))
    return NnlsSolution(x, residual, iterations, certified)


def select_blocks(solution: NnlsSolution, library, eps: float):
    """Sub-library of blocks whose solved execution share exceeds ``eps``."""
    ids = library.ids()
    if len(solution.x) != len(ids):
        raise InvalidSystemError(
            f"solution size {len(solution.x)} != library size {len(ids)}"
        )
    if eps < 0:
        raise InvalidSystemError(f"eps must be >= 0, got {eps}")
    keep = [block_id for block_id, value in zip(ids, solution.x) if value > eps]
    if not keep:
        raise EmptySelectionError(
            "every block was pruned; relax eps or enlarge the library"
        )
    return library.subset(keep)


def counts_from_solution(solution: NnlsSolution, n0: int) -> list[int]:
    """Execution counts ``round(x_j * n0)``, rounding half up."""
    return [int(math.floor(value * n0 + 0.5)) for value in solution.x]
