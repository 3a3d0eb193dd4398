"""proxybench: synthesize short proxy benchmarks from calibrated basic blocks.

Given a target vector of hardware-counter ratio metrics (CPI, cache/TLB/
branch miss rates, instruction mix), the toolkit linearly combines
calibrated basic blocks, solves a non-negative least-squares system for
their execution counts, and iteratively refines the counts against a
measurement backend until the proxy's metrics match the target.
"""

from .align import (
    AlignConfig,
    AlignmentTrace,
    RoundRecord,
    align,
    dump_trace,
    instruction_total,
    load_trace,
)
from .blocks import (
    BlockLibrary,
    BlockSpec,
    calibrate_synthetic,
    default_library,
    dump_library,
    library_from_specs,
    load_library,
    make_arith_block,
    make_branch_block,
    make_function_block,
    make_memory_block,
    render_program,
    synthetic_profile,
)
from .errors import ProxyBenchError
from .events import (
    EVENTS,
    METRICS,
    METRICS_BY_ID,
    N0_DEFAULT,
    EventProfile,
    MeasurementResult,
    MetricDefinition,
    ProxyProgram,
    TargetMetrics,
    compute_all_metrics,
    compute_metric,
    dump_program,
    dump_targets,
    load_program,
    load_targets,
)
from .measure import (
    Measurer,
    NoiseModel,
    SimulatedMachine,
    format_counts,
    parse_counts,
    predict_events,
)
from .report import (
    AccuracyReport,
    ComparisonSeries,
    accuracy,
    build_report,
    category_accuracy,
    dump_report,
    load_report,
    mean_abs_rel_error,
    pearson,
)
from .solver import (
    LinearSystem,
    MetricRows,
    NnlsSolution,
    assemble_incremental_system,
    assemble_initial_system,
    counts_from_solution,
    nnls,
    select_blocks,
    unreachable_rows,
)

__version__ = "0.1.0"
