"""Parameterized basic blocks, source rendering, and the default library.

Each block is an interior instruction sequence wrapped in an exterior counted
loop; the loop bound is the block's execution count.  Four families cover the
main micro-architectural levers:

* ``memory_access`` -- walk a buffer at a fixed byte stride (load+store per
  iteration).  Larger strides reduce spatial locality and raise data-side
  cache and DTLB miss rates.
* ``function_access`` -- call one of ``count`` sequentially laid out
  functions, advancing the call target by a fixed byte stride.  Larger
  strides spread the instruction footprint and raise L1I/ITLB miss rates.
* ``branch_predict`` -- draw a pseudo-random value R in [0, 1024) from an
  in-source linear-congruential recurrence (fixed seed, so runs are
  reproducible) and branch iff R > threshold.  Thresholds near 512 make the
  branch hardest to predict.
* ``arithmetic`` -- a loop-carried dependence chain of add/sub/mul/div, so
  slow-operation mixes raise CPI.  Optional floating-point variants also
  model partially vectorized math (not part of the integer families).

Synthetic calibration model
---------------------------

``synthetic_profile`` attaches a deterministic, analytic event profile so the
solver and alignment loop are testable without hardware counters; real
calibration data can replace it through the measurement import path.  All
rates are per interior iteration, counts are ``round(rate * n0)``:

* loop overhead (every family): 5 instructions, 1 load + 1 store (counter
  traffic), 2 integer ops, 1 branch.
* memory_access: a buffer access touches a new cache line with probability
  ``min(stride, 64)/64`` and a new page with probability
  ``min(stride, 4096)/4096``; a new-line (new-page) touch misses L1D (DTLB)
  with the capacity factor ``min(0.9, max(0, 1 - capacity/buffer))`` where
  capacity is 32 KiB for L1D and 256 KiB of DTLB reach.
* function_access: instruction footprint is ``stride * count`` bytes; calls
  touch 2 instruction lines, missing L1I/ITLB with the same capacity-factor
  shape.
* branch_predict: the block's branch misprediction rate is
  ``min(t, 1024 - t) / 1024`` (0.5 at t=512, 0 at the deterministic ends).
* arithmetic: cycles = instructions + sum(reps * (latency - 1)); integer
  latencies add/sub 1, mul 3, div 20; float latencies 3/3/5/25.
* L2 receives both caches' L1 misses and re-misses with probability
  ``min(0.9, stride/128)`` (0.5 for strideless families); L3 likewise with
  ``min(0.9, stride/256)``.
* cycles = instructions + 12*(L1 misses) + 30*(L2 misses) + 150*(L3 misses)
  + 30*(TLB misses) + 15*(branch misses) + arithmetic latency.
* small baseline rates keep every miss event nonzero (cold-start effects):
  1e-4 for L1 misses, 1e-5 for TLB misses, 1e-3 for branch misses.

All miss probabilities are capped at 0.9 so a noisy measurement cannot push
a miss count past its access count.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    DocumentFormatError,
    InvalidParameterError,
    ProxyBenchError,
    UnresolvedBlockError,
)
from .events import (
    EVENT_INDEX,
    EVENTS,
    N0_DEFAULT,
    PROFILE,
    EventProfile,
    ProxyProgram,
    _checked_profile,
    _valid_rows,
    profile_from_doc,
    profile_to_doc,
    require_n0,
)
from .jsonutil import NONEMPTY, OptionalKey, check, codec, shown

# each family's params, as a library document and every BlockSpec hold them;
# BlockSpec alone checks them, coerces no value and stores a mix as a tuple
# of (op, reps) tuples, so a loaded library writes back the document it was
# read from and equals the library it was dumped from
_PARAMS = {
    "memory_access": {"stride": int, "buffer": int},
    "function_access": {"stride": int, "count": int},
    "branch_predict": {"threshold": int},
    "arithmetic": {"mix": [(str, int)], "fp": bool},
}
FAMILIES = tuple(_PARAMS)

ARITH_OPS = ("add", "sub", "mul", "div")

CACHE_LINE = 64
PAGE = 4096
L1_CAPACITY = 32 * 1024
TLB_REACH = 64 * PAGE
RATE_CAP = 0.9
FUNC_SPACING = 64  # function i of a pool sits 64 * i bytes past function 0

_BASE_L1_MISS = 1e-4
_BASE_TLB_MISS = 1e-5
_BASE_BRANCH_MISS = 1e-3

_INT_LATENCY = {"add": 1.0, "sub": 1.0, "mul": 3.0, "div": 20.0}
_FP_LATENCY = {"add": 3.0, "sub": 3.0, "mul": 5.0, "div": 25.0}
# share of each fp op stream modeled as packed-SIMD issue
_FP_VEC_SHARE = {"add": 0.25, "sub": 0.25, "mul": 0.5, "div": 0.5}

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_SEED = 0x9E3779B97F4A7C15
_LOOP_MAX = 2**64 - 1  # the largest count of the uint64_t loop counter


@dataclass(frozen=True)
class BlockSpec:
    """One parameterized basic block, optionally calibrated; ``params`` is
    read-only."""

    id: str
    family: str
    params: Mapping
    profile: EventProfile | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidParameterError(f"block id must be a nonempty string, got {shown(self.id)}")
        if "*/" in self.id:  # it would end the comment that names the block in C
            raise InvalidParameterError(f"block id must not contain '*/', got {self.id!r}")
        params = dict(self.params)
        _validate_params(self.family, params)
        if self.family == "arithmetic":
            params["mix"] = tuple(map(tuple, params["mix"]))
        object.__setattr__(self, "params", MappingProxyType(params))

    def __reduce__(self):
        return BlockSpec, (self.id, self.family, dict(self.params), self.profile)

    def with_profile(self, profile: EventProfile) -> "BlockSpec":
        return BlockSpec(self.id, self.family, dict(self.params), profile)

    def describe(self) -> str:
        params = " ".join(f"{k}={_param_str(v)}" for k, v in sorted(self.params.items()))
        return f"{self.id} {self.family} {params}"


def _param_str(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{op}x{reps}" for op, reps in value)
    return str(value)


def _validate_params(family: str, params: dict) -> None:
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown block family {shown(family)}")
    try:
        check(_PARAMS[family], params, f"malformed {family} params")
    except DocumentFormatError as exc:
        raise InvalidParameterError(str(exc)) from None
    if family == "memory_access":
        stride, buffer = params["stride"], params["buffer"]
        if not 1 <= stride <= 2**20:
            raise InvalidParameterError(f"memory stride must be in [1, 2^20], got {shown(stride)}")
        if buffer < stride:
            raise InvalidParameterError(f"buffer ({shown(buffer)}) must be >= stride ({stride})")
    elif family == "function_access":
        stride, count = params["stride"], params["count"]
        if stride < 1:
            raise InvalidParameterError(f"function stride must be >= 1, got {shown(stride)}")
        if not 2 <= count <= 65536:
            raise InvalidParameterError(f"function count must be in [2, 65536], got {shown(count)}")
    elif family == "branch_predict":
        threshold = params["threshold"]
        if not 0 <= threshold <= 1024:
            raise InvalidParameterError(f"threshold must be in [0, 1024], got {shown(threshold)}")
    elif family == "arithmetic":
        mix = params["mix"]
        if not mix:
            raise InvalidParameterError("arithmetic mix must be nonempty")
        for op, reps in mix:
            if op not in ARITH_OPS:
                raise InvalidParameterError(f"unknown arithmetic op {op!r}")
            if reps < 1:
                raise InvalidParameterError(f"repetitions must be >= 1, got {shown(reps)} for {op}")
        total = sum(reps for _, reps in mix)
        if total > 65536:  # a line of C each, as many as a function pool's count
            raise InvalidParameterError(f"repetitions must total at most 65536, got {shown(total)}")


def make_memory_block(stride: int, buffer: int, block_id: str | None = None) -> BlockSpec:
    """Buffer walk at a fixed byte stride, wrapping at the buffer end."""
    block_id = block_id or f"mem_s{shown(stride, str)}_b{shown(buffer, str)}"
    return BlockSpec(block_id, "memory_access", {"stride": stride, "buffer": buffer})


def make_function_block(stride: int, count: int, block_id: str | None = None) -> BlockSpec:
    """Calls across ``count`` sequential functions at a fixed byte stride."""
    block_id = block_id or f"fn_s{shown(stride, str)}_c{shown(count, str)}"
    return BlockSpec(block_id, "function_access", {"stride": stride, "count": count})


def make_branch_block(threshold: int, block_id: str | None = None) -> BlockSpec:
    """Data-dependent branch taken iff a pseudo-random R > threshold."""
    block_id = block_id or f"br_t{shown(threshold, str)}"
    return BlockSpec(block_id, "branch_predict", {"threshold": threshold})


def make_arith_block(mix, fp: bool = False, block_id: str | None = None) -> BlockSpec:
    """Dependence-chained arithmetic with the given (op, repetitions) mix."""
    params = {"mix": mix, "fp": fp}
    if block_id is None:
        _validate_params("arithmetic", params)  # the default id is read from the mix
        block_id = "_".join(["fpmix" if fp else "mix"] + [f"{op}{reps}" for op, reps in mix])
    return BlockSpec(block_id, "arithmetic", params)


# ---------------------------------------------------------------------------
# synthetic calibration


def _capacity_factor(capacity: float, footprint: float) -> float:
    return min(RATE_CAP, max(0.0, 1.0 - capacity / footprint))


def _line_fraction(stride: int) -> float:
    return min(stride, CACHE_LINE) / CACHE_LINE


def _page_fraction(stride: int) -> float:
    return min(stride, PAGE) / PAGE


def _iteration_rates(spec: BlockSpec) -> dict[str, float]:
    """Per-iteration event rates of the documented analytic model."""
    # exterior loop overhead shared by all families; the rest start at 0
    r = {"instructions": 5.0, "load_insts": 1.0, "store_insts": 1.0, "int_insts": 2.0,
         "branch_insts": 1.0, "l1d_accesses": 2.0}
    r.update(dict.fromkeys(("fp_insts", "vec_insts", "branch_misses", "l1d_misses",
                            "l1i_misses", "dtlb_misses", "itlb_misses"), 0.0))

    extra_cycles = 0.0
    l2_p = 0.5
    l3_p = 0.5

    if spec.family == "memory_access":
        stride, buffer = spec.params["stride"], spec.params["buffer"]
        r["instructions"] += 7.0
        r["load_insts"] += 1.0
        r["store_insts"] += 1.0
        r["int_insts"] += 3.0
        r["branch_insts"] += 1.0
        r["l1d_accesses"] += 2.0
        r["l1d_misses"] = _line_fraction(stride) * _capacity_factor(L1_CAPACITY, buffer)
        r["dtlb_misses"] = _page_fraction(stride) * _capacity_factor(TLB_REACH, buffer)
        l2_p = min(RATE_CAP, stride / 128)
        l3_p = min(RATE_CAP, stride / 256)
    elif spec.family == "function_access":
        stride, count = spec.params["stride"], spec.params["count"]
        footprint = stride * count
        r["instructions"] += 11.0
        r["load_insts"] += 2.0
        r["store_insts"] += 1.0
        r["int_insts"] += 5.0
        r["branch_insts"] += 2.0
        r["l1d_accesses"] += 3.0
        r["l1i_misses"] = 2.0 * _line_fraction(stride) * _capacity_factor(L1_CAPACITY, footprint)
        r["itlb_misses"] = _page_fraction(stride) * _capacity_factor(TLB_REACH, footprint)
        r["branch_misses"] = 0.01  # indirect-call target mispredicts
        l2_p = min(RATE_CAP, stride / 128)
        l3_p = min(RATE_CAP, stride / 256)
    elif spec.family == "branch_predict":
        threshold = spec.params["threshold"]
        r["instructions"] += 6.0
        r["int_insts"] += 4.0
        r["branch_insts"] += 1.0
        # block-level misprediction rate: peaks at 0.5 when threshold is 512
        p = min(threshold, 1024 - threshold) / 1024
        r["branch_misses"] = r["branch_insts"] * p
    elif spec.family == "arithmetic":
        mix, fp = spec.params["mix"], spec.params["fp"]
        ops = float(sum(reps for _, reps in mix))
        latency = _FP_LATENCY if fp else _INT_LATENCY
        r["instructions"] += ops
        if fp:
            r["fp_insts"] = ops
            r["vec_insts"] = float(sum(reps * _FP_VEC_SHARE[op] for op, reps in mix))
        else:
            r["int_insts"] += ops
        extra_cycles = float(sum(reps * (latency[op] - 1.0) for op, reps in mix))

    # baseline cold-start misses keep every miss event nonzero
    if spec.family != "branch_predict":
        r["branch_misses"] += _BASE_BRANCH_MISS * r["branch_insts"]
    r["l1d_misses"] += _BASE_L1_MISS * r["l1d_accesses"]
    r["l1i_accesses"] = r["instructions"]
    r["l1i_misses"] += _BASE_L1_MISS * r["l1i_accesses"]
    r["dtlb_accesses"] = r["l1d_accesses"]
    r["dtlb_misses"] += _BASE_TLB_MISS * r["dtlb_accesses"]
    r["itlb_accesses"] = r["instructions"]
    r["itlb_misses"] += _BASE_TLB_MISS * r["itlb_accesses"]

    r["l2_accesses"] = r["l1d_misses"] + r["l1i_misses"]
    r["l2_misses"] = r["l2_accesses"] * l2_p
    r["l3_accesses"] = r["l2_misses"]
    r["l3_misses"] = r["l3_accesses"] * l3_p

    r["cycles"] = (
        r["instructions"]
        + 12.0 * (r["l1d_misses"] + r["l1i_misses"])
        + 30.0 * r["l2_misses"]
        + 150.0 * r["l3_misses"]
        + 30.0 * (r["dtlb_misses"] + r["itlb_misses"])
        + 15.0 * r["branch_misses"]
        + extra_cycles
    )
    return r


def synthetic_profile(spec: BlockSpec, n0: int = N0_DEFAULT) -> EventProfile:
    """Deterministic analytic profile for ``spec``, rounded to whole counts."""
    rates = _iteration_rates(spec)
    counts = {event: float(round(rate * n0)) for event, rate in rates.items()}
    return EventProfile(counts, n0)


def calibrate_synthetic(spec: BlockSpec, n0: int = N0_DEFAULT) -> BlockSpec:
    return spec.with_profile(synthetic_profile(spec, n0))


# ---------------------------------------------------------------------------
# library

MEMORY_STRIDES = (8, 16, 32, 64, 128, 256, 512, 1024, 4096)
MEMORY_BUFFER = 64 * 1024 * 1024
FUNCTION_STRIDES = (64, 256, 1024, 4096)
FUNCTION_COUNT = 512
BRANCH_THRESHOLDS = (0, 128, 256, 384, 448, 512)
ARITH_MIXES = (
    ("add16", (("add", 16),)),
    ("addmul8", (("add", 8), ("mul", 8))),
    ("mul16", (("mul", 16),)),
    ("div8", (("div", 8),)),
)


@dataclass(frozen=True)
class BlockLibrary:
    """An ordered set of blocks sharing one calibration base ``n0``.

    Immutable after construction: ``blocks`` is a read-only view of a private
    copy, so the memoized content hash and the cached event matrix can never
    go stale.
    """

    blocks: Mapping[str, BlockSpec] = field(default_factory=dict)
    n0: int = N0_DEFAULT

    def __post_init__(self):
        require_n0(self.n0, "library")
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))
        object.__setattr__(self, "_content_hash", None)
        for block_id, spec in self.blocks.items():
            if block_id != spec.id:
                raise DocumentFormatError(f"library key {shown(block_id)} != block id {spec.id!r}")
            if spec.profile is not None and spec.profile.n0 != self.n0:
                raise DocumentFormatError(
                    f"block {block_id}: profile n0 {shown(spec.profile.n0)} "
                    f"!= library n0 {shown(self.n0)}"
                )

    def __reduce__(self):
        # the state keeps the hash of a library loaded from its text
        return BlockLibrary, (dict(self.blocks), self.n0), {"_content_hash": self._content_hash}

    def __len__(self) -> int:
        return len(self.blocks)

    def ids(self) -> tuple[str, ...]:
        return tuple(self.blocks)

    def require(self, block_id: str) -> BlockSpec:
        spec = self.blocks.get(block_id)
        if spec is None:
            raise UnresolvedBlockError(f"no block {block_id!r} in library")
        return spec

    def subset(self, ids) -> "BlockLibrary":
        keep = set(ids)
        return BlockLibrary(
            {block_id: spec for block_id, spec in self.blocks.items() if block_id in keep},
            self.n0,
        )

    def content_hash(self) -> str:
        """First 12 hex digits of the sha256 of the library document: the
        text :func:`load_library` read the library from, or else the text
        :func:`dump_library` writes, computed on the first call."""
        if self._content_hash is None:
            object.__setattr__(self, "_content_hash", _text_hash(dump_library(self)))
        return self._content_hash

    @cached_property
    def row_index(self) -> Mapping[str, int]:
        """Block id -> row of :attr:`event_matrix`."""
        return MappingProxyType({block_id: row for row, block_id in enumerate(self.blocks)})

    @cached_property
    def event_matrix(self) -> np.ndarray:
        """Read-only ``(blocks x EVENTS)`` profile counts in library order,
        NaN where a profile lacks an event and on every uncalibrated block."""
        rows = [_ABSENT_ROW if spec.profile is None else _event_row(spec.profile.counts)
                for spec in self.blocks.values()]
        matrix = np.array(rows, dtype=float).reshape(len(rows), len(EVENTS))
        matrix.flags.writeable = False
        return matrix


# one row of the event matrix per block: the counts of ``EVENTS`` in order
_EVENT_ROW = operator.itemgetter(*EVENTS)
_ABSENT_ROW = (math.nan,) * len(EVENTS)


def _event_row(counts: Mapping[str, float]) -> tuple:
    """``counts`` of every event in ``EVENTS`` order, NaN where absent.  Most
    profiles hold every event, so one ``itemgetter`` call builds their row."""
    try:
        return _EVENT_ROW(counts)
    except KeyError:
        return tuple(counts.get(event, math.nan) for event in EVENTS)


def library_from_specs(specs, n0: int = N0_DEFAULT) -> BlockLibrary:
    blocks: dict[str, BlockSpec] = {}
    for spec in specs:
        if spec.id in blocks:
            raise DocumentFormatError(f"duplicate block id {spec.id!r}")
        blocks[spec.id] = spec
    return BlockLibrary(blocks, n0)


def default_library(n0: int = N0_DEFAULT, fp_variants: bool = True) -> BlockLibrary:
    """The built-in parameter sweep with synthetic profiles attached.

    ``fp_variants`` adds floating-point copies of the arithmetic mixes; they
    are an extension beyond the four integer families (nothing else emits fp
    or vector instructions) and can be disabled.
    """
    specs = []
    for stride in MEMORY_STRIDES:
        specs.append(make_memory_block(stride, MEMORY_BUFFER, f"mem_stride{stride}"))
    for stride in FUNCTION_STRIDES:
        specs.append(make_function_block(stride, FUNCTION_COUNT, f"fn_stride{stride}"))
    for threshold in BRANCH_THRESHOLDS:
        specs.append(make_branch_block(threshold, f"br_t{threshold}"))
    for fp in (False, True) if fp_variants else (False,):
        for name, mix in ARITH_MIXES:
            specs.append(make_arith_block(mix, fp, f"{'fp' if fp else ''}mix_{name}"))
    return library_from_specs([calibrate_synthetic(s, n0) for s in specs], n0)


# ---------------------------------------------------------------------------
# source rendering


def _memory_parts(params: dict):
    stride, buffer = params["stride"], params["buffer"]
    decls = [
        f"volatile unsigned char *buf = buf_{buffer};",
        "uint64_t off = 0u;",
    ]
    body = [
        "buf[off] = (unsigned char)(buf[off] + 1u);",
        f"off += {stride}u;",
        f"if (off >= {buffer}u) off -= {buffer}u;",
    ]
    return decls, body, []


def _call_step(stride: int) -> int:
    """How many functions a function_access block's index advances per call."""
    return max(1, stride // FUNC_SPACING)


def _function_parts(params: dict):
    stride, count = params["stride"], params["count"]
    decls = [
        "uint64_t idx = 0u;",
        "uint64_t acc = sink;",
    ]
    body = [
        f"acc = tab_{count}[idx](acc);",
        f"idx = (idx + {_call_step(stride)}u) % {count}u;",
    ]
    return decls, body, ["sink += acc;"]


def _branch_parts(params: dict):
    threshold = params["threshold"]
    decls = [
        f"uint64_t state = {_LCG_SEED}u;",
        "uint64_t acc = 0u;",
    ]
    body = [
        f"state = state * {_LCG_MUL}u + {_LCG_ADD}u;",
        "uint64_t r = (state >> 33) & 1023u;",
        f"if (r > {threshold}u) {{",
        "    acc += r;",
        "}",
    ]
    return decls, body, ["sink += acc;"]


def _arith_parts(params: dict):
    mix, fp = params["mix"], params["fp"]
    if fp:
        decls = [
            "double a = 1.0;",
            "double b = (double)((sink & 1u) | 1u);",
        ]
        tail = ["sink += (uint64_t)a;"]
    else:
        decls = [
            "uint64_t a = 1u;",
            "uint64_t b = (sink & 1u) | 1u;",
        ]
        tail = ["sink += a;"]
    symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
    body = []
    for op, reps in mix:
        body.extend([f"a = a {symbol[op]} b;"] * reps)
    return decls, body, tail


_FAMILY_PARTS = {
    "memory_access": _memory_parts,
    "function_access": _function_parts,
    "branch_predict": _branch_parts,
    "arithmetic": _arith_parts,
}


def _buffer(size: int, users) -> list[str]:
    return [f"static unsigned char buf_{size}[{size}u];"]


def _pool(count: int, users) -> list[str]:
    """The functions that blocks ``users`` can call, and their table.  A
    block's index visits the multiples of gcd(count, step), so with u the
    largest power of two dividing count and every step, function i is
    defined only where u divides i.  Aligned to ``FUNC_SPACING * u``, each
    still sits ``FUNC_SPACING * i`` bytes past function 0.  The table keeps
    all ``count`` slots; one never called holds 0, so a call to it crashes."""
    gcd = math.gcd(count, *(_call_step(spec.params["stride"]) for spec in users))
    unit = gcd & -gcd
    lines, names = [], []
    for i in range(count):
        if i % unit:
            names.append("0")
            continue
        names.append(f"fn_{count}_{i:04d}")
        lines.append(
            f"static __attribute__((noinline, aligned({FUNC_SPACING * unit}))) "
            f"uint64_t {names[-1]}(uint64_t x) {{ return x + {i + 1}u; }}"
        )
    lines.append(f"static uint64_t (*const tab_{count}[{count}])(uint64_t) = {{")
    for start in range(0, count, 8):
        lines.append("    " + ", ".join(names[start:start + 8]) + ",")
    lines.append("};")
    return lines


# the param that sizes a family's static resource; blocks of the family that
# agree on it share one buffer or one function pool, named after that size,
# whose source lines _RESOURCE[family](size, blocks) gives, once, in the order
# of its first user
_SHARED_BY = {"memory_access": "buffer", "function_access": "count"}
_RESOURCE = {"memory_access": _buffer, "function_access": _pool}


def _fragment(spec: BlockSpec, iterations: int) -> list[str]:
    """The exterior counted loop wrapping the family interior, indented to
    sit in ``main``."""
    if iterations > _LOOP_MAX:  # a wider literal would be cut to 64 bits
        raise InvalidParameterError(
            f"block {spec.id}: iterations must be <= 2^64 - 1, got {shown(iterations)}"
        )
    decls, body, tail = _FAMILY_PARTS[spec.family](spec.params)
    lines = [f"/* block {spec.id}: {spec.family} */", "{"]
    lines += [f"    {d}" for d in decls]
    lines.append(f"    for (uint64_t it = 0u; it < {iterations}u; ++it) {{")
    lines += [f"        {b}" for b in body]
    lines.append("    }")
    lines += [f"    {t}" for t in tail]
    lines.append("}")
    return ["    " + line for line in lines]


def render_program(program: ProxyProgram, library: BlockLibrary) -> str:
    """One compilable translation unit running ``program`` end to end.  A
    block's calibration source is the proxy of the program of that block
    alone; the empty program renders the harness, the calibration baseline."""
    users = {}  # (family, size) -> {block id: spec} of the blocks sharing it
    for block_id, _ in program.entries:
        spec = library.require(block_id)
        shared = _SHARED_BY.get(spec.family)
        if shared:
            users.setdefault((spec.family, spec.params[shared]), {})[block_id] = spec

    lines = [
        "/* generated proxy benchmark */",
        "/* compile: cc -O0 -o proxy this_file.c */",
        "#include <stdint.h>",
        "#include <stdio.h>",
        "#include <time.h>",
        "",
        "static volatile uint64_t sink;",
        "",
    ]
    for (family, size), sharing in users.items():
        lines += _RESOURCE[family](size, list(sharing.values())) + [""]
    lines += [
        "int main(void)",
        "{",
        "    struct timespec ts0, ts1;",
        "    clock_gettime(CLOCK_MONOTONIC, &ts0);",
    ]
    for block_id, executions in program.entries:
        lines += _fragment(library.blocks[block_id], executions)
    lines += [
        "    clock_gettime(CLOCK_MONOTONIC, &ts1);",
        "    double elapsed = (double)(ts1.tv_sec - ts0.tv_sec)",
        "        + 1e-9 * (double)(ts1.tv_nsec - ts0.tv_nsec);",
        '    printf("elapsed_seconds=%.6f sink=%llu\\n", elapsed,',
        "           (unsigned long long)sink);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# library documents

BLOCK = {"id": NONEMPTY, "family": str, "params": dict, OptionalKey("profile"): PROFILE}
LIBRARY = {"n0": int, "blocks": [dict]}  # each block is checked on its own


def block_to_doc(spec: BlockSpec) -> dict:
    doc = {"id": spec.id, "family": spec.family, "params": dict(spec.params)}
    if spec.profile is not None:
        doc["profile"] = profile_to_doc(spec.profile)
    return doc


def library_to_doc(library: BlockLibrary) -> dict:
    return {
        "n0": library.n0,
        "blocks": [block_to_doc(spec) for spec in library.blocks.values()],
    }


def library_from_doc(doc: dict) -> BlockLibrary:
    """The library of a document that fits ``LIBRARY``, in one loop over its
    blocks.  A block that passes C-level screens (the keys of ``BLOCK``, an
    id and a family of type str, params that are an object, a profile of the
    library's ``n0`` with an int or float count of each event) fills a row of
    one count matrix, held to ``_validate_counts``'s rules in one pass.  Any
    other block, and any whose row breaks a rule, is checked against ``BLOCK``
    and built through ``EventProfile``, so the first bad block raises."""
    n0, blocks, rows, numbers = doc["n0"], doc["blocks"], [], {int, float}
    block_keys, profile_keys, events = BLOCK.keys(), PROFILE.keys(), EVENT_INDEX.keys()
    for block in blocks:
        profile = block.get("profile")
        # an int n0 > 0 is a count; an event count is an int or a float, no bool
        screened = (block.keys() == block_keys and type(block["id"]) is str and block["id"]
                    and type(block["family"]) is str and type(block["params"]) is dict
                    and type(profile) is dict and profile.keys() == profile_keys
                    and type(profile["n0"]) is int and profile["n0"] == n0 > 0
                    and type(profile["counts"]) is dict and profile["counts"].keys() == events
                    and numbers.issuperset(map(type, row := _EVENT_ROW(profile["counts"]))))
        rows.append(row if screened else _ABSENT_ROW)
    try:
        matrix = np.array(rows, dtype=float).reshape(len(rows), len(EVENTS))
    except OverflowError:  # an int past the float range: its block leaves the screen
        rows = [_ABSENT_ROW if max(map(abs, row)) > sys.float_info.max else row for row in rows]
        matrix = np.array(rows, dtype=float).reshape(len(rows), len(EVENTS))
    specs = []
    for index, (block, row, screened) in enumerate(zip(blocks, rows, _valid_rows(matrix).tolist())):
        if not screened:
            check(BLOCK, block, f"block {block.get('id')}")
        try:
            profile = (_checked_profile(row, n0) if screened else
                       profile_from_doc(block["profile"]) if "profile" in block else None)
            specs.append(BlockSpec(block["id"], block["family"], block["params"], profile))
        except ProxyBenchError as exc:
            raise type(exc)(f"block {block['id']}: {exc}") from None
        if not screened and profile is not None:  # its row holds NaN
            matrix[index] = _event_row(profile.counts)
    library = library_from_specs(specs, n0)
    matrix.flags.writeable = False
    vars(library)["event_matrix"] = matrix  # the cached property's value
    return library


def _text_hash(text: str) -> str:
    # "surrogatepass": a str built in memory may hold a lone surrogate, which
    # no UTF-8 file can
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:12]


dump_library, _load_library = codec("library", LIBRARY, library_to_doc, library_from_doc)


def load_library(text: str) -> BlockLibrary:
    """The library document ``text``, with the hash of ``text`` itself as its
    content hash.  Every file proxybench writes is ``dump_library``'s text,
    so re-encoding it would give the same hash."""
    library = _load_library(text)
    object.__setattr__(library, "_content_hash", _text_hash(text))
    return library
