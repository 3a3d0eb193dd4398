import copy
import functools
import hashlib
import itertools
import json
import math
import operator
import pickle
import re
import shutil
import subprocess
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxybench import (
    ProxyProgram,
    default_library,
    make_arith_block,
    make_branch_block,
    make_function_block,
    make_memory_block,
    render_program,
    synthetic_profile,
)
from proxybench.blocks import (
    _LCG_ADD as LCG_ADD,
    _LCG_MUL as LCG_MUL,
    _LCG_SEED as LCG_SEED,
    _PARAMS,
    ARITH_OPS,
    BlockLibrary,
    BlockSpec,
    _iteration_rates,
    calibrate_synthetic,
    dump_library,
    library_from_specs,
    load_library,
)
from proxybench.errors import (
    DocumentFormatError,
    InvalidParameterError,
    UnresolvedBlockError,
)
from proxybench.events import EVENTS, MISS_ACCESS_PAIRS, EventProfile

LOOP_HEADER = "for (uint64_t it = 0u;"


def rate(profile, miss, access):
    return profile.counts[miss] / profile.counts[access]


class TestConstructors:
    def test_memory_stride_above_buffer_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_memory_block(stride=64, buffer=32)

    def test_memory_stride_range(self):
        with pytest.raises(InvalidParameterError):
            make_memory_block(stride=0, buffer=64)
        with pytest.raises(InvalidParameterError):
            make_memory_block(stride=2**20 + 1, buffer=2**21)
        make_memory_block(stride=2**20, buffer=2**20)

    def test_function_count_bounds(self):
        with pytest.raises(InvalidParameterError):
            make_function_block(stride=64, count=1)
        with pytest.raises(InvalidParameterError):
            make_function_block(stride=64, count=65537)
        make_function_block(stride=64, count=2)

    def test_branch_threshold_bounds(self):
        with pytest.raises(InvalidParameterError):
            make_branch_block(-1)
        with pytest.raises(InvalidParameterError):
            make_branch_block(1025)
        make_branch_block(0)
        make_branch_block(1024)

    def test_block_id_that_would_end_its_c_comment_rejected(self):
        # the id is rendered inside /* block <id>: <family> */
        with pytest.raises(InvalidParameterError, match=r"block id must not contain '\*/'"):
            make_branch_block(128, block_id="x */ int y = ; /*")
        assert "/* block a*b/c: branch_predict */" in render_program(
            ProxyProgram((("a*b/c", 1),)), library_from_specs([make_branch_block(128, "a*b/c")])
        )

    # per family, params of a wrong type and the message each one raises:
    # let through, they reach the rendered C (``off += Trueu;``) or write a
    # library that load_library rejects
    WRONG_TYPES = {
        "memory_access": [
            ({"stride": True, "buffer": 64}, "stride: expected an integer, got true"),
            ({"stride": 8.5, "buffer": 64}, "stride: expected an integer, got 8.5"),
            ({"stride": "8", "buffer": 64}, 'stride: expected an integer, got "8"'),
            ({"stride": 8}, "missing keys ['buffer']"),
        ],
        "function_access": [
            ({"stride": 64, "count": 4.0}, "count: expected an integer, got 4.0"),
            ({"stride": Fraction(64), "count": 4}, 'stride: expected an integer, got "Fraction(64, 1)"'),
        ],
        "branch_predict": [
            ({"threshold": None}, "threshold: expected an integer, got null"),
            ({"threshold": 8, "fp": True}, "unknown keys ['fp']"),
        ],
        "arithmetic": [
            ({"mix": 5, "fp": False}, "mix: expected a list, got 5"),
            ({"mix": (("add", True),), "fp": False}, "mix[0][1]: expected an integer, got true"),
            ({"mix": (("add", 2, 3),), "fp": False}, 'mix[0]: expected a list of 2 items, got ["add", 2, 3]'),
            ({"mix": (("add", 2),), "fp": 1}, "fp: expected a boolean, got 1"),
        ],
    }

    @pytest.mark.parametrize("family", WRONG_TYPES)
    def test_params_of_a_wrong_type_rejected(self, family):
        for params, message in self.WRONG_TYPES[family]:
            with pytest.raises(InvalidParameterError) as caught:
                BlockSpec("b", family, params)
            assert str(caught.value) == f"malformed {family} params: {message}"

    @pytest.mark.parametrize("block_id", ["", 5, None])
    def test_block_id_that_is_no_nonempty_string_rejected(self, block_id):
        # an empty id would dump a library that load_library rejects
        with pytest.raises(InvalidParameterError, match="block id must be a nonempty string"):
            BlockSpec(block_id, "branch_predict", {"threshold": 8})

    # values the constructors once coerced with int() and bool()
    UNCOERCED = {
        "fractional stride": lambda: make_memory_block(8.5, 64),
        "string stride": lambda: make_memory_block("8", 64),
        "boolean threshold": lambda: make_branch_block(True),
        "fractional repetitions": lambda: make_arith_block([("add", 2.9)]),
        "string fp": lambda: make_arith_block([("add", 2)], fp="no"),
    }

    @pytest.mark.parametrize("case", UNCOERCED)
    def test_constructors_pass_params_on_as_given(self, case):
        with pytest.raises(InvalidParameterError, match="^malformed "):
            self.UNCOERCED[case]()

    @pytest.mark.parametrize("mix", [5, None, [("add",)]], ids=["int", "none", "short_pair"])
    def test_malformed_mix_without_block_id_rejected(self, mix):
        # the default id is read from the mix, so the mix is checked first
        with pytest.raises(InvalidParameterError) as named:
            make_arith_block(mix, block_id="x")
        with pytest.raises(InvalidParameterError) as caught:
            make_arith_block(mix)
        assert str(caught.value) == str(named.value)

    def test_arith_mix_validation(self):
        with pytest.raises(InvalidParameterError):
            make_arith_block(())
        with pytest.raises(InvalidParameterError):
            make_arith_block((("add", 0),))
        with pytest.raises(InvalidParameterError):
            make_arith_block((("xor", 4),))

    def test_arith_repetitions_total_at_most_65536(self):
        # each repetition is a line of C, as each function of a pool is
        spec = make_arith_block((("add", 32768), ("mul", 32768)))
        assert render_program(ProxyProgram((("mix_add32768_mul32768", 1),)),
                              library_from_specs([spec])).count("a = a ") == 65536
        with pytest.raises(InvalidParameterError,
                           match="^repetitions must total at most 65536, got 65537$"):
            make_arith_block((("add", 32768), ("mul", 32769)))

    # values built in memory whose digits int() cannot print, and the
    # message each one raises; a document holds no int that long
    TOO_LONG = {
        "library n0": (lambda: BlockLibrary({}, -(10**5000)), DocumentFormatError,
                       "library n0 must be a positive integer, got {}"),
        "block id": (lambda: BlockSpec(-(10**5000), "memory_access", {}), InvalidParameterError,
                     "block id must be a nonempty string, got {}"),
        "family": (lambda: BlockSpec("x", -(10**5000), {}), InvalidParameterError,
                   "unknown block family {}"),
        "memory stride": (lambda: make_memory_block(10**5000, 10**5000, "m"),
                          InvalidParameterError, "memory stride must be in [1, 2^20], got {}"),
        "memory stride, default id": (lambda: make_memory_block(10**5000, 10**5000),
                                      InvalidParameterError,
                                      "memory stride must be in [1, 2^20], got {}"),
        "buffer": (lambda: make_memory_block(8, -(10**5000)), InvalidParameterError,
                   "buffer ({}) must be >= stride (8)"),
        "function stride": (lambda: make_function_block(-(10**5000), 4), InvalidParameterError,
                            "function stride must be >= 1, got {}"),
        "function count": (lambda: make_function_block(64, 10**5000), InvalidParameterError,
                           "function count must be in [2, 65536], got {}"),
        "threshold": (lambda: make_branch_block(10**5000, "b"), InvalidParameterError,
                      "threshold must be in [0, 1024], got {}"),
        "threshold, default id": (lambda: make_branch_block(10**5000), InvalidParameterError,
                                  "threshold must be in [0, 1024], got {}"),
        "repetitions": (lambda: make_arith_block((("add", 10**5000),)), InvalidParameterError,
                        "repetitions must total at most 65536, got {}"),
        "library key": (lambda: BlockLibrary({10**5000: make_branch_block(8, "b")}),
                        DocumentFormatError, "library key {} != block id 'b'"),
        "profile n0": (lambda: BlockLibrary({"b": make_branch_block(8, "b").with_profile(
                           EventProfile({"instructions": 1.0}, 10**5000))}, 5),
                       DocumentFormatError, "block b: profile n0 {} != library n0 5"),
        "iterations": (lambda: render_program(ProxyProgram((("b", 10**5000),)),
                                              library_from_specs([make_branch_block(8, "b")])),
                       InvalidParameterError, "block b: iterations must be <= 2^64 - 1, got {}"),
    }

    @pytest.mark.parametrize("case", TOO_LONG)
    def test_a_value_too_long_to_print_is_named(self, case):
        build, error, message = self.TOO_LONG[case]
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message.format("<int too long to show>")


class TestSyntheticProfiles:
    def test_memory_stride64_in_small_buffer_has_no_capacity_misses(self):
        # a 32 KiB buffer fits L1D entirely
        spec = make_memory_block(stride=64, buffer=32 * 1024)
        profile = synthetic_profile(spec)
        assert rate(profile, "l1d_misses", "l1d_accesses") < 1e-3

    def test_memory_unit_stride_is_most_local(self):
        dense = synthetic_profile(make_memory_block(stride=1, buffer=4096))
        sparse = synthetic_profile(make_memory_block(stride=64, buffer=64 * 2**20))
        assert rate(dense, "l1d_misses", "l1d_accesses") < rate(
            sparse, "l1d_misses", "l1d_accesses"
        )

    def test_memory_page_stride_stresses_dtlb(self):
        big = synthetic_profile(make_memory_block(stride=4096, buffer=64 * 2**20))
        small = synthetic_profile(make_memory_block(stride=8, buffer=64 * 2**20))
        assert rate(big, "dtlb_misses", "dtlb_accesses") > 50 * rate(
            small, "dtlb_misses", "dtlb_accesses"
        )
        assert rate(big, "l1d_misses", "l1d_accesses") > rate(
            small, "l1d_misses", "l1d_accesses"
        )

    def test_function_page_stride_stresses_itlb_and_l1i(self):
        big = synthetic_profile(make_function_block(stride=4096, count=256))
        small = synthetic_profile(make_function_block(stride=64, count=256))
        assert rate(big, "itlb_misses", "itlb_accesses") > rate(
            small, "itlb_misses", "itlb_accesses"
        )
        assert rate(big, "l1i_misses", "l1i_accesses") > rate(
            small, "l1i_misses", "l1i_accesses"
        )

    def test_branch_threshold_midpoint_rate(self):
        profile = synthetic_profile(make_branch_block(512))
        assert rate(profile, "branch_misses", "branch_insts") == 0.5

    def test_branch_deterministic_ends(self):
        for threshold in (0, 1024):
            profile = synthetic_profile(make_branch_block(threshold))
            assert rate(profile, "branch_misses", "branch_insts") == 0.0

    def test_arith_cpi_ordering(self):
        def cpi(spec):
            profile = synthetic_profile(spec)
            return profile.counts["cycles"] / profile.counts["instructions"]

        add_only = cpi(make_arith_block((("add", 16),)))
        mixed = cpi(make_arith_block((("add", 8), ("mul", 8))))
        div_only = cpi(make_arith_block((("div", 8),)))
        assert add_only < mixed < div_only


class TestDefaultLibrary:
    def test_size_at_least_23(self, library):
        assert len(library) >= 23
        assert len(default_library(fp_variants=False)) == 23

    def test_midpoint_branch_block(self, library):
        profile = library.blocks["br_t512"].profile
        assert rate(profile, "branch_misses", "branch_insts") == 0.5

    def test_l1d_miss_rate_monotone_in_stride(self, library):
        strides = (8, 16, 32, 64, 128, 256, 512, 1024, 4096)
        rates = [
            rate(library.blocks[f"mem_stride{s}"].profile, "l1d_misses", "l1d_accesses")
            for s in strides
        ]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[0] < rates[-1]

    def test_branch_miss_unimodal_peak_at_512(self, library):
        thresholds = (0, 128, 256, 384, 448, 512)
        rates = [
            rate(library.blocks[f"br_t{t}"].profile, "branch_misses", "branch_insts")
            for t in thresholds
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_arith_cpi_monotone_in_div_fraction(self, library):
        def cpi(block_id):
            counts = library.blocks[block_id].profile.counts
            return counts["cycles"] / counts["instructions"]

        assert cpi("mix_add16") < cpi("mix_addmul8") < cpi("mix_mul16") < cpi("mix_div8")

    def test_every_profile_satisfies_invariants(self, library):
        for spec in library.blocks.values():
            counts = spec.profile.counts
            assert counts["instructions"] > 0
            for miss, access in MISS_ACCESS_PAIRS:
                assert counts[miss] <= counts[access]
            # counts are integral by construction (counters count events)
            assert all(float(v).is_integer() for v in counts.values())

    def test_fp_variants_carry_fp_and_vec(self, library):
        fp = library.blocks["fpmix_add16"].profile.counts
        assert fp["fp_insts"] > 0 and fp["vec_insts"] > 0
        plain = library.blocks["mix_add16"].profile.counts
        assert plain["fp_insts"] == 0 and plain["vec_insts"] == 0


def one_block(spec, iterations, library=None):
    """The calibration source of ``spec``: the proxy of that block alone."""
    library = library or library_from_specs([spec])
    return render_program(ProxyProgram(((spec.id, iterations),)), library)


class TestRendering:
    def test_loop_bound_literal_appears_once(self, library):
        text = one_block(library.blocks["mix_add16"], 300000, library)
        assert text.count("300000") == 1

    def test_zero_iterations(self, library):
        text = one_block(library.blocks["mix_add16"], 0, library)
        assert "it < 0u" in text
        assert LOOP_HEADER in text

    def test_rendering_is_deterministic(self, library):
        spec = library.blocks["mem_stride64"]
        assert one_block(spec, 12345, library) == one_block(spec, 12345, library)

    def test_memory_block_walks_by_stride(self):
        spec = calibrate_synthetic(make_memory_block(stride=64, buffer=32 * 1024))
        text = one_block(spec, 10)
        assert "off += 64u;" in text
        assert "if (off >= 32768u) off -= 32768u;" in text

    def test_function_block_targets_are_sequential(self):
        spec = make_function_block(stride=64, count=16, block_id="fnx")
        text = one_block(spec, 10)
        definitions = re.findall(r"uint64_t fn_16_(\d{4})\(uint64_t x\)", text)
        assert definitions == [f"{i:04d}" for i in range(16)]
        assert "idx = (idx + 1u) % 16u;" in text

    def test_function_block_two_hot_functions_alternate(self):
        spec = make_function_block(stride=64, count=2, block_id="pair")
        text = one_block(spec, 10)
        assert "idx = (idx + 1u) % 2u;" in text

    def test_branch_block_embeds_fixed_recurrence(self):
        text = one_block(make_branch_block(512), 10)
        assert "state = state * 6364136223846793005u + 1442695040888963407u;" in text
        assert "if (r > 512u)" in text

    def test_program_empty_is_harness_only(self, library):
        text = render_program(ProxyProgram(), library)
        assert LOOP_HEADER not in text
        assert "int main(void)" in text

    def test_program_order_follows_entries(self, library):
        forward = render_program(
            ProxyProgram((("mem_stride8", 100), ("br_t512", 200))), library
        )
        backward = render_program(
            ProxyProgram((("br_t512", 200), ("mem_stride8", 100))), library
        )
        assert forward != backward
        assert sorted(forward.splitlines()) == sorted(backward.splitlines())

    def test_program_loop_count_matches_entries(self, library):
        ids = library.ids()[:10]
        program = ProxyProgram(tuple((b, 100 + i) for i, b in enumerate(ids)))
        text = render_program(program, library)
        assert text.count(LOOP_HEADER) == 10

    def test_program_unknown_block(self, library):
        with pytest.raises(UnresolvedBlockError):
            render_program(ProxyProgram((("ghost", 1),)), library)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_rendered_program_compiles(self, tmp_path, library):
        program = ProxyProgram(
            (("mem_stride64", 1000), ("fn_stride64", 1000), ("br_t512", 1000),
             ("mix_div8", 1000), ("fpmix_add16", 1000))
        )
        source = tmp_path / "proxy.c"
        source.write_text(render_program(program, library))
        binary = tmp_path / "proxy"
        subprocess.run(
            ["cc", "-O0", "-o", str(binary), str(source)],
            check=True, capture_output=True,
        )
        run = subprocess.run([str(binary)], check=True, capture_output=True, text=True)
        assert "elapsed_seconds=" in run.stdout

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_blocks_share_one_pool_per_count_and_one_buffer_per_size(self, tmp_path, library):
        fn_ids = [b for b in library.ids() if b.startswith("fn_stride")]
        mem_ids = [b for b in library.ids() if b.startswith("mem_stride")][:3]
        assert len(fn_ids) == 4
        ids = [fn_ids[0], mem_ids[0], fn_ids[1], mem_ids[1], fn_ids[2], mem_ids[2], fn_ids[3]]
        program = ProxyProgram(tuple((b, 1000 + 37 * i) for i, b in enumerate(ids)))
        text = render_program(program, library)
        assert text.count("aligned(64)))") == 512
        assert text.count("static uint64_t (*const tab_") == 1
        assert text.count("static unsigned char buf_") == 1

        source = tmp_path / "proxy.c"
        source.write_text(text)
        binary = tmp_path / "proxy"
        subprocess.run(
            ["cc", "-O0", "-o", str(binary), str(source)],
            check=True, capture_output=True,
        )
        run = subprocess.run([str(binary)], check=True, capture_output=True, text=True)
        assert f"sink={sink_reference(program, library)}\n" in run.stdout


INT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.floordiv}
FP_OPS = {**INT_OPS, "div": operator.truediv}


def sink_reference(program, library):
    """The ``sink`` a proxy prints, block by block in program order.  A
    memory block leaves sink alone.  A function block starts from sink, adds
    idx + 1 per call and folds its sum back.  A branch block draws from the
    in-source LCG and sums each r = (state >> 33) & 1023 above its threshold.
    An arithmetic block runs its chain from a = 1 with b = (sink & 1) | 1,
    mod 2^64 or on doubles, and adds a (truncated) to sink."""
    sink = 0
    for block_id, executions in program.entries:
        spec = library.blocks[block_id]
        params = spec.params
        if spec.family == "function_access":
            step, count = max(1, params["stride"] // 64), params["count"]
            acc, idx = sink, 0
            for _ in range(executions):
                acc = (acc + idx + 1) % 2**64
                idx = (idx + step) % count
        elif spec.family == "branch_predict":
            state, acc = LCG_SEED, 0
            for _ in range(executions):
                state = (state * LCG_MUL + LCG_ADD) % 2**64
                r = (state >> 33) & 1023
                if r > params["threshold"]:
                    acc += r
        elif spec.family == "arithmetic":
            fp, b = params["fp"], (sink & 1) | 1
            ops = FP_OPS if fp else INT_OPS
            chain = [ops[op] for op, reps in params["mix"] for _ in range(reps)]
            a, b = (1.0, float(b)) if fp else (1, b)
            for _ in range(executions):
                for step in chain:
                    a = step(a, b) if fp else step(a, b) % 2**64
            assert 0 <= a < 2**64  # where C's (uint64_t)a of a double is defined
            acc = int(a)
        else:
            continue
        sink = (sink + acc) % 2**64
    return sink


def call_unit(count, strides):
    """The largest power of two dividing ``count`` and every block's step."""
    unit = 1
    while all(n % (2 * unit) == 0 for n in (count, *(max(1, s // 64) for s in strides))):
        unit *= 2
    return unit


def visited(stride, count):
    """The indexes the C walk ``idx = (idx + step) % count`` calls in ``count`` calls."""
    step, idx, seen = max(1, stride // 64), 0, set()
    for _ in range(count):
        seen.add(idx)
        idx = (idx + step) % count
    return seen


def defined_functions(text, count):
    return [int(i) for i in re.findall(rf"uint64_t fn_{count}_(\d+)\(uint64_t x\)", text)]


def compile_and_run(tmp_path, text):
    """Compile ``text`` at -O0 and run it; its stdout and the binary."""
    source, binary = tmp_path / "proxy.c", tmp_path / "proxy"
    source.write_text(text)
    subprocess.run(["cc", "-O0", "-o", str(binary), str(source)], check=True, capture_output=True)
    run = subprocess.run([str(binary)], check=True, capture_output=True, text=True)
    return run.stdout, binary


def build(tmp_path, text):
    """Compile ``text`` at -O0 and run it; its stdout and the ``nm -n``
    address of each symbol."""
    stdout, binary = compile_and_run(tmp_path, text)
    nm = subprocess.run(["nm", "-n", str(binary)], check=True, capture_output=True, text=True)
    symbols = {}
    for line in nm.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3:
            symbols[fields[2]] = int(fields[0], 16)
    return stdout, symbols


# programs that mix the families, each block once or twice
MIXED_PROGRAMS = (
    (("mem_stride64", 1000), ("br_t512", 1100), ("mix_div8", 900), ("fpmix_add16", 1200)),
    (("fn_stride256", 1000), ("mix_addmul8", 1000), ("br_t128", 1000), ("fn_stride4096", 900)),
    (("fpmix_div8", 1000), ("br_t0", 1000), ("mix_mul16", 1000), ("mem_stride4096", 1000),
     ("mix_mul16", 500), ("fpmix_mul16", 1000), ("br_t448", 1000), ("fn_stride64", 1000)),
)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestCalibrationSources:
    """A block's calibration source is the proxy of that block alone; it and
    proxies that mix families print the ``sink`` of the reference model."""

    @pytest.mark.parametrize("block_id", default_library().ids())
    def test_one_block_proxy_prints_the_reference_sink(self, tmp_path, library, block_id):
        program = ProxyProgram(((block_id, 1000),))
        stdout, _ = compile_and_run(tmp_path, render_program(program, library))
        assert f"sink={sink_reference(program, library)}\n" in stdout

    @pytest.mark.parametrize("entries", MIXED_PROGRAMS, ids=lambda entries: str(len(entries)))
    def test_mixed_proxy_prints_the_reference_sink(self, tmp_path, library, entries):
        program = ProxyProgram(entries)
        stdout, _ = compile_and_run(tmp_path, render_program(program, library))
        assert f"sink={sink_reference(program, library)}\n" in stdout


# every default block once, the proxy that the ISO C builds compile
EVERY_BLOCK = ProxyProgram(tuple((b, 1000 + 37 * i) for i, b in enumerate(default_library().ids())))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("std", ("c99", "c11", "c17"))
def test_proxy_compiles_as_iso_c(tmp_path, library, std):
    source, binary = tmp_path / "proxy.c", tmp_path / "proxy"
    source.write_text(render_program(EVERY_BLOCK, library))
    subprocess.run(["cc", "-O0", f"-std={std}", "-Wall", "-Wextra", "-Werror", "-pedantic",
                    "-o", str(binary), str(source)], check=True, capture_output=True)
    run = subprocess.run([str(binary)], check=True, capture_output=True, text=True)
    assert f"sink={sink_reference(EVERY_BLOCK, library)}\n" in run.stdout


@functools.cache
def cc_is_gcc() -> bool:
    """Whether ``cc`` is GCC, which keeps ``register`` locals in registers at
    -O0; clang, which defines ``__GNUC__`` too, ignores ``register`` there."""
    if shutil.which("cc") is None:
        return False
    macros = subprocess.run(["cc", "-dM", "-E", "-x", "c", "/dev/null"],
                            capture_output=True, text=True).stdout.split()
    return "__GNUC__" in macros and "__clang__" not in macros


def loop_body(assembly: str) -> list[str]:
    """The instructions of the block loop in ``main`` of a one-block proxy's
    ``cc -O0 -S`` output: from the label after the loop's entry ``jmp`` (the
    first in ``main``) to the jump back to that label."""
    lines = [line.strip() for line in assembly.splitlines()]
    main = lines[lines.index("main:"):]
    entry = next(i for i, line in enumerate(main) if line.startswith("jmp\t"))
    label = next(line for line in main[entry:] if line.endswith(":"))[:-1]
    body = []
    for line in main[main.index(label + ":") + 1:]:
        if line.endswith(":") or line.startswith("."):  # a label or a directive
            continue
        body.append(line)
        if line.startswith("j") and line.endswith("\t" + label):
            return body
    raise AssertionError(f"no jump back to {label}")


@pytest.mark.parametrize("block_id", default_library().ids())
def test_loop_state_stays_in_registers(tmp_path, library, block_id):
    """Each loop body reads and writes memory no more often than the count
    model's loads and stores per iteration: block state is ``register``, and
    only the loop counter lives on the stack."""
    if not cc_is_gcc():
        pytest.skip("cc is not GCC")
    source, assembly = tmp_path / "proxy.c", tmp_path / "proxy.s"
    source.write_text(render_program(ProxyProgram(((block_id, 1000),)), library))
    subprocess.run(["cc", "-O0", "-S", "-o", str(assembly), str(source)],
                   check=True, capture_output=True)
    body = loop_body(assembly.read_text())
    memory = [line for line in body if "(" in line and not line.startswith("lea")]
    rates = _iteration_rates(library.blocks[block_id])
    assert len(memory) <= rates["load_insts"] + rates["store_insts"], body


POOL_STRIDES = (1, 63, 64, 100, 128, 192, 256, 512, 1024, 2048, 4096, 8192)
POOL_COUNTS = (2, 3, 4, 8, 12, 16, 64, 100, 256, 512, 1024, 4096)
DEFAULT_POOL = ("fn_stride64", "fn_stride256", "fn_stride1024", "fn_stride4096")
needs_cc_and_nm = pytest.mark.skipif(
    shutil.which("cc") is None or shutil.which("nm") is None, reason="no C compiler or nm"
)


class TestCalledFunctionPools:
    """A pool defines only the functions its blocks can call, each where a
    pool of all ``count`` functions puts it."""

    def test_each_walk_calls_only_defined_functions(self):
        walks = 0
        sharing = [(s,) for s in POOL_STRIDES] + list(itertools.combinations(POOL_STRIDES, 2))
        for count in POOL_COUNTS:
            for strides in sharing:
                specs = [make_function_block(s, count, f"f{s}") for s in strides]
                program = ProxyProgram(tuple((spec.id, 1) for spec in specs))
                text = render_program(program, library_from_specs(specs))
                defined = set(defined_functions(text, count))
                unit = call_unit(count, strides)
                assert len(defined) == count // unit
                assert text.count(f"aligned({64 * unit})))") == count // unit
                for stride in strides:
                    assert visited(stride, count) <= defined
                    walks += 1
                # every slot stays, and one never called holds 0
                table = text.split(f"tab_{count}[{count}])(uint64_t) = {{\n")[1]
                slots = table.split("};")[0].replace(",", " ").split()
                assert slots == [
                    f"fn_{count}_{i:04d}" if i in defined else "0" for i in range(count)
                ]
        assert walks == 1728

    @needs_cc_and_nm
    @pytest.mark.parametrize("ids", [
        ids for k in range(1, 5) for ids in itertools.combinations(DEFAULT_POOL, k)
    ], ids="+".join)
    def test_program_calls_the_same_addresses(self, tmp_path, library, ids):
        program = ProxyProgram(tuple((b, 1000 + 37 * i) for i, b in enumerate(ids)))
        text = render_program(program, library)
        stdout, symbols = build(tmp_path, text)
        assert f"sink={sink_reference(program, library)}\n" in stdout
        unit = call_unit(512, [library.blocks[b].params["stride"] for b in ids])
        self.check_layout(text, symbols, 512, 512 // unit)

    @staticmethod
    def check_layout(text, symbols, count, expected):
        defined = defined_functions(text, count)
        assert len(defined) == expected
        base = symbols[f"fn_{count}_0000"]
        assert [symbols[f"fn_{count}_{i:04d}"] - base for i in defined] == [64 * i for i in defined]


# block ids that differ only in punctuation, which the C names of blocks merge
PUNCTUATION_TWINS = (
    make_function_block(64, 8, "a-b"),
    make_function_block(128, 16, "a_b"),
    make_memory_block(64, 4096, "m-1"),
    make_memory_block(128, 8192, "m_1"),
)


class TestResourceNames:
    """Each buffer, function pool and table is named after the size its
    blocks share, not after any block."""

    def test_names_are_the_shared_sizes(self):
        program = ProxyProgram(tuple((spec.id, 100) for spec in PUNCTUATION_TWINS))
        text = render_program(program, library_from_specs(PUNCTUATION_TWINS))
        assert re.findall(r"static unsigned char (buf_\d+)\[(\d+)u\];", text) == [
            ("buf_4096", "4096"), ("buf_8192", "8192"),
        ]
        assert re.findall(r"static uint64_t \(\*const (tab_\d+)\[(\d+)\]\)", text) == [
            ("tab_8", "8"), ("tab_16", "16"),
        ]
        assert defined_functions(text, 8) == list(range(8))
        assert defined_functions(text, 16) == list(range(0, 16, 2))
        assert "a_b" not in text.split("int main(void)")[0]

    def test_one_working_set_renders_the_same_names_in_any_order(self):
        # two more blocks share the 8-function pool and the 4096-byte buffer
        specs = PUNCTUATION_TWINS + (make_function_block(256, 8, "c"),
                                     make_memory_block(8, 4096, "n"))
        library = library_from_specs(specs)
        names = set()
        for order in itertools.permutations(specs):
            program = ProxyProgram(tuple((spec.id, 100) for spec in order))
            text = render_program(program, library)
            names.add(frozenset(re.findall(r"\b(?:buf|tab|fn)_\w+", text)))
        assert len(names) == 1

    @needs_cc_and_nm
    def test_punctuation_twins_compile_and_run(self, tmp_path):
        library = library_from_specs(PUNCTUATION_TWINS)
        program = ProxyProgram(tuple((spec.id, 1000 + 37 * i)
                                     for i, spec in enumerate(PUNCTUATION_TWINS)))
        text = render_program(program, library)
        stdout, symbols = build(tmp_path, text)
        assert f"sink={sink_reference(program, library)}\n" in stdout
        TestCalledFunctionPools.check_layout(text, symbols, 8, 8)
        TestCalledFunctionPools.check_layout(text, symbols, 16, 8)


class TestLibraryDocuments:
    def test_round_trip_is_byte_identical(self, library):
        text = dump_library(library)
        assert dump_library(load_library(text)) == text

    def test_duplicate_id_rejected(self):
        spec = calibrate_synthetic(make_branch_block(0, "dup"))
        with pytest.raises(DocumentFormatError):
            library_from_specs([spec, spec])

    def test_corrupt_profile_names_block(self, library):
        import json

        doc = json.loads(dump_library(library))
        doc["blocks"][0]["profile"]["counts"]["l1d_misses"] = 1e18
        with pytest.raises(DocumentFormatError, match=doc["blocks"][0]["id"]):
            load_library(json.dumps(doc))

    def test_mismatched_n0_rejected(self, library):
        import json

        doc = json.loads(dump_library(library))
        doc["blocks"][0]["profile"]["n0"] = 999
        with pytest.raises(DocumentFormatError):
            load_library(json.dumps(doc))

    @pytest.mark.parametrize("later, at", [
        ("shape", 10), ("params shape", 10), ("profile n0", 10), ("range", 10), ("range", 6),
    ])
    def test_bad_count_named_before_a_later_check(self, library, later, at):
        # block 6's bad count comes first in the file, and a block's counts
        # are checked before its family and param ranges
        doc = json.loads(dump_library(library))
        doc["blocks"][6]["profile"]["counts"]["cycles"] = -1.0
        block = doc["blocks"][at]
        if later == "shape":
            block["extra"] = 1
        elif later == "params shape":
            block["params"]["stride"] = "8"
        elif later == "profile n0":
            block["profile"]["n0"] = 0
        else:
            block["params"]["stride"] = 0
        with pytest.raises(DocumentFormatError) as error:
            load_library(json.dumps(doc))
        assert str(error.value) == (
            f"block {doc['blocks'][6]['id']}: profile: count for cycles must be finite and >= 0"
        )

    def test_library_key_that_is_not_its_block_id_rejected(self):
        with pytest.raises(DocumentFormatError, match="^library key 'a' != block id 'b'$"):
            BlockLibrary({"a": make_branch_block(8, "b")})

    def test_subset_preserves_order_and_n0(self, library):
        keep = library.ids()[5:10]
        sub = library.subset(keep)
        assert sub.ids() == keep
        assert sub.n0 == library.n0


class TestLibraryCaches:
    def test_library_is_read_only(self, library):
        spec = library.blocks["mix_add16"]
        with pytest.raises(TypeError):
            library.blocks["mix_add16"] = spec
        with pytest.raises(TypeError):
            spec.params["fp"] = True
        with pytest.raises(TypeError):
            spec.profile.counts["cycles"] = 0.0

    def test_construction_copies_the_blocks(self):
        blocks = {"b": calibrate_synthetic(make_branch_block(0, "b"))}
        library = BlockLibrary(blocks)
        blocks["c"] = calibrate_synthetic(make_branch_block(8, "c"))
        assert library.ids() == ("b",)

    def test_content_hash_is_the_document_digest(self):
        library = default_library()
        expected = hashlib.sha256(dump_library(library).encode("utf-8")).hexdigest()[:12]
        assert library.content_hash() == expected
        assert library.content_hash() == expected

    def test_event_matrix_holds_the_profile_counts(self):
        plain = make_arith_block((("add", 1),), block_id="plain")
        partial = make_arith_block((("add", 1),), block_id="partial").with_profile(
            EventProfile({"instructions": 7.0, "cycles": 9.0})
        )
        full = calibrate_synthetic(make_branch_block(512, "full"))
        library = library_from_specs([plain, partial, full])
        expected = [[math.nan] * len(EVENTS)] + [
            [spec.profile.counts.get(event, math.nan) for event in EVENTS]
            for spec in (partial, full)
        ]
        assert np.array_equal(library.event_matrix, expected, equal_nan=True)
        assert dict(library.row_index) == {"plain": 0, "partial": 1, "full": 2}
        assert not library.event_matrix.flags.writeable
        with pytest.raises(ValueError):
            library.event_matrix[1, 0] = 1.0

    def test_subset_builds_its_own_matrix_in_subset_order(self, library):
        keep = ("br_t0", "mem_stride64", "mix_div8")
        sub = library.subset(reversed(keep))
        assert sub.ids() == ("mem_stride64", "br_t0", "mix_div8")
        rows = [library.row_index[block_id] for block_id in sub.ids()]
        assert np.array_equal(sub.event_matrix, library.event_matrix[rows])

    def test_copies_keep_blocks_and_hash(self, library):
        for clone in (copy.deepcopy(library), pickle.loads(pickle.dumps(library))):
            assert clone == library
            assert clone.content_hash() == library.content_hash()


def sweep_library():
    """Calibrated blocks of every family over several params each."""
    specs = [make_memory_block(stride, 1 << 20) for stride in (8, 64, 512, 4096)]
    specs += [make_function_block(stride, count) for stride in (64, 1024) for count in (4, 512)]
    specs += [make_branch_block(threshold) for threshold in range(0, 1025, 128)]
    specs += [make_arith_block(((op, reps),), fp=fp)
              for op in ("add", "mul", "div") for reps in (1, 7) for fp in (False, True)]
    return library_from_specs([calibrate_synthetic(spec) for spec in specs])


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class TestLoadedLibraryHash:
    @pytest.mark.parametrize("make", [default_library, sweep_library])
    def test_canonical_text_hashes_as_the_library(self, make):
        library = make()
        text = dump_library(library)
        loaded = load_library(text)
        assert loaded.content_hash() == library.content_hash() == text_hash(text)

    def test_other_text_hashes_as_read(self, library):
        text = json.dumps(json.loads(dump_library(library)))
        loaded = load_library(text)
        assert loaded == library
        assert loaded.content_hash() == text_hash(text)
        assert loaded.content_hash() != library.content_hash()

    def test_copies_keep_a_loaded_hash(self, library):
        loaded = load_library(json.dumps(json.loads(dump_library(library))))
        for clone in (copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded))):
            assert clone == loaded
            assert clone.content_hash() == loaded.content_hash()

    def test_loading_and_hashing_encode_nothing(self, monkeypatch):
        # library_to_doc builds each block's document with block_to_doc
        import proxybench.blocks as blocks_mod
        import proxybench.jsonutil as jsonutil_mod

        calls = {"block_to_doc": 0, "dumps_canonical": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        text = dump_library(sweep_library())
        counted(blocks_mod, "block_to_doc")
        counted(jsonutil_mod, "dumps_canonical")
        load_library(text).content_hash()
        assert calls == {"block_to_doc": 0, "dumps_canonical": 0}
        # the counters see the re-encoding of a library built in memory
        sweep_library().content_hash()
        assert calls["block_to_doc"] > 0 and calls["dumps_canonical"] == 1

    def test_loading_validates_each_profile_once(self, monkeypatch):
        import proxybench.events as events_mod

        calls = []
        validate = events_mod._validate_counts

        def counted(*args, **kwargs):
            calls.append(kwargs["what"])
            return validate(*args, **kwargs)

        library = sweep_library()
        uncalibrated = make_branch_block(1000)
        text = dump_library(library_from_specs([*library.blocks.values(), uncalibrated]))
        monkeypatch.setattr(events_mod, "_validate_counts", counted)
        loaded = load_library(text)
        # every calibrated block is screened in columns, beside the one that
        # is not
        assert len(library) == 29 and calls == []
        assert loaded.blocks[uncalibrated.id].profile is None

    def test_loading_checks_each_block_params_once(self, monkeypatch):
        import proxybench.blocks as blocks_mod

        shapes = []
        original = blocks_mod.check

        def counted(shape, value, what):
            shapes.append(shape)
            return original(shape, value, what)

        library = sweep_library()
        text = dump_library(library)
        monkeypatch.setattr(blocks_mod, "check", counted)
        load_library(text)
        params_checks = [shape for shape in shapes if shape in _PARAMS.values()]
        assert len(params_checks) == len(library)


def mix_of(kind):
    """(op, reps) pairs, as a list or a tuple of lists or tuples."""
    pair = st.tuples(st.sampled_from(ARITH_OPS), st.integers(1, 10**6)).map(kind[1])
    return st.lists(pair, min_size=1, max_size=4).map(kind[0])


ANY_PARAMS = {
    "memory_access": st.fixed_dictionaries(
        {"stride": st.integers(0, 2**20 + 1), "buffer": st.integers(1, 2**32)}
    ),
    "function_access": st.fixed_dictionaries(
        {"stride": st.integers(0, 2**16), "count": st.integers(1, 65537)}
    ),
    "branch_predict": st.fixed_dictionaries(
        {"threshold": st.integers(-1, 1025) | st.sampled_from([True, 8.0, "8"])}
    ),
    "arithmetic": st.fixed_dictionaries({
        "mix": st.sampled_from([(list, list), (list, tuple), (tuple, list), (tuple, tuple)])
        .flatmap(mix_of),
        "fp": st.booleans(),
    }),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(ANY_PARAMS)).flatmap(
        lambda family: st.tuples(st.just(family), ANY_PARAMS[family])
    ),
    st.text(min_size=1, max_size=6),
)
def test_a_block_that_constructs_loads_back_equal(family_params, block_id):
    family, params = family_params
    try:
        spec = BlockSpec(block_id, family, params)
    except InvalidParameterError:
        assume(False)
    calibrated = calibrate_synthetic(spec)
    loaded = load_library(dump_library(library_from_specs([calibrated]))).blocks[block_id]
    assert loaded == calibrated
    assert loaded.describe() == calibrated.describe() == spec.describe()
