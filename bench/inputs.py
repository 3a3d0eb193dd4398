"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from the workload
seed: target-metric sets drawn from hidden reference programs, the per-input
noise seeds, and the wide block library.  The same seed gives the same
inputs, and ``input_digest`` fingerprints them so two commits can be shown to
have run identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import proxybench as pb

# Parameter sweep of the wide library.  It is seed-free and contains every
# parameter point of ``pb.default_library()`` (the test suite checks this), so
# targets drawn over the default library stay reachable from it.
WIDE_MEMORY_STRIDES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
WIDE_MEMORY_BUFFERS = tuple(2**k for k in range(13, 28, 2)) + (64 * 1024 * 1024,)
WIDE_FUNCTION_STRIDES = (64, 128, 256, 512, 1024, 2048, 4096)
WIDE_FUNCTION_COUNTS = (4, 8, 16, 64, 256, 512, 1024, 2048, 4096)
WIDE_BRANCH_STEP = 8
WIDE_ARITH_REPS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class AlignInput:
    """One align request: targets taken from a hidden program, plus the seed
    of its measurement noise."""

    targets: pb.TargetMetrics
    noise_seed: int


def hidden_program(library, rng) -> pb.ProxyProgram:
    """5-9 integer blocks plus one fp block, 10k-200k executions each; the
    fp block keeps all 14 built-in metrics positive."""
    ids = list(library.ids())
    plain = [i for i in ids if not i.startswith("fpmix")]
    k = int(rng.integers(5, 10))
    chosen = [str(b) for b in rng.choice(plain, size=k, replace=False)]
    chosen.append(str(rng.choice([i for i in ids if i.startswith("fpmix")])))
    return pb.ProxyProgram(tuple((b, int(rng.integers(10_000, 200_000))) for b in chosen))


def align_inputs(seed: int, count: int, library=None) -> list[AlignInput]:
    """``count`` align requests drawn from ``seed`` over the default library."""
    library = library if library is not None else pb.default_library()
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(count):
        predicted = pb.predict_events(hidden_program(library, rng), library)
        targets = pb.TargetMetrics(pb.compute_all_metrics(predicted, pb.METRICS))
        noise_seed = int(rng.integers(0, 2**31))
        inputs.append(AlignInput(targets, noise_seed))
    return inputs


def _two_op_mixes():
    ops = pb.blocks.ARITH_OPS
    for op in ops:
        for reps in WIDE_ARITH_REPS:
            yield ((op, reps),)
    for i, first in enumerate(ops):
        for second in ops[i + 1:]:
            for r1 in WIDE_ARITH_REPS:
                for r2 in WIDE_ARITH_REPS:
                    yield ((first, r1), (second, r2))


def wide_specs() -> list[pb.BlockSpec]:
    """Uncalibrated specs of the wide sweep, in library order."""
    specs = []
    for stride in WIDE_MEMORY_STRIDES:
        for buffer in WIDE_MEMORY_BUFFERS:
            if buffer >= stride:
                specs.append(pb.make_memory_block(stride, buffer))
    for stride in WIDE_FUNCTION_STRIDES:
        for count in WIDE_FUNCTION_COUNTS:
            specs.append(pb.make_function_block(stride, count))
    for threshold in range(0, 1025, WIDE_BRANCH_STEP):
        specs.append(pb.make_branch_block(threshold))
    for fp in (False, True):
        for mix in _two_op_mixes():
            specs.append(pb.make_arith_block(mix, fp=fp))
    return specs


def wide_library() -> pb.BlockLibrary:
    return pb.library_from_specs([pb.calibrate_synthetic(s) for s in wide_specs()])


def input_digest(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:16]
