import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxybench import (
    AlignConfig,
    SimulatedMachine,
    align,
    calibrate_synthetic,
    dump_library,
    library_from_specs,
    make_arith_block,
    make_branch_block,
    make_function_block,
    make_memory_block,
)
from proxybench.align import dump_trace, trace_to_doc
from proxybench.blocks import ARITH_OPS, library_to_doc
from proxybench.errors import DocumentFormatError
from proxybench.jsonutil import NONEMPTY, OptionalKey, check, dumps_canonical
from tests.conftest import hidden_targets


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1.7976931348623157e308, 0.1]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    finite_floats,
    st.text(),
    st.text(alphabet='"\\/\n\r\t\b\f\x00\x1f\x7f é😀\ud800'),
)
# one dict never mixes str keys with non-str keys: sorting them fails in json
# as well (tested below)
str_keys = st.one_of(st.text(), st.text(alphabet='"\\\n\x00é😀\ud800', max_size=4))
number_keys = st.one_of(st.integers(), st.integers(min_value=2**70), finite_floats, st.booleans())
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(str_keys, children, max_size=5),
        st.dictionaries(number_keys, children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert dumps_canonical(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "é\n\"\\\x00\ud800😀",
        2**200,
        -(2**64),
        -0.0,
        5e-324,
        1e16,
        True,
        False,
        None,
        [True, False, None, -0.0, 5e-324, 1e16, 2**100, " "],
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}, [], [[{}]]], "d": {"e": {"f": ()}}},
        [[[[[]]]], {"x": [[[{}]]]}],
        {"nested": {"flat": {"x": 1, "y": [1, 2]}, "n": 3}},
        ({"t": (1, 2)}, (3, (4,))),
    ],
)
def test_edge_cases(doc):
    assert dumps_canonical(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {2: "a", 1.5: "b", False: "c", 2**70: "d", -0.0: "e"},  # flat
        {2: ["a"], 1.5: {"x": 1}, False: [], 2**70: "d", 1e16: [[]]},  # nested
        {None: 1},
        {None: [1]},
        {True: {"k": [None]}, False: 0},
    ],
)
def test_non_str_keys_are_coerced_like_json(doc):
    assert dumps_canonical(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        (float("nan"), ValueError),
        ([1.0, float("inf")], ValueError),
        ({"a": [1, {"b": -float("inf")}]}, ValueError),
        ({float("nan"): 1}, ValueError),
        ({float("nan"): [1]}, ValueError),
        (object(), TypeError),
        ([1, object()], TypeError),
        ({"a": {"b": [set()]}}, TypeError),
        ({(1, 2): 1}, TypeError),
        ({(1, 2): [1]}, TypeError),
        ({1: 1, "a": 2}, TypeError),
        ({1: [1], "a": [2]}, TypeError),
    ],
)
def test_rejects_what_json_rejects(doc, error):
    with pytest.raises(error):
        oracle(doc)
    with pytest.raises(error):
        dumps_canonical(doc)


def sweep_library():
    """~650 calibrated blocks over every family, arithmetic mixes included."""
    reps = (1, 2, 4, 8, 16, 32)
    mixes = [((op, r),) for op in ARITH_OPS for r in reps] + [
        ((a, r1), (b, r2))
        for a, b in itertools.combinations(ARITH_OPS, 2)
        for r1 in reps
        for r2 in reps
    ]
    specs = [
        make_memory_block(stride, 2**k)
        for stride in (8, 64, 512, 4096)
        for k in range(13, 28, 2)
    ]
    specs += [
        make_function_block(stride, count)
        for stride in (64, 256, 1024, 4096)
        for count in (4, 64, 512, 4096)
    ]
    specs += [make_branch_block(threshold) for threshold in range(0, 1025, 8)]
    specs += [make_arith_block(mix, fp) for mix in mixes for fp in (False, True)]
    return library_from_specs([calibrate_synthetic(spec) for spec in specs])


def test_sweep_library_document_matches_json_dumps():
    library = sweep_library()
    assert len(library) > 600
    assert dump_library(library) == oracle(library_to_doc(library))


def test_trace_document_matches_json_dumps(library):
    _, targets, ins1 = hidden_targets(library, np.random.default_rng(99))
    _, trace = align(library, targets, AlignConfig(ins1=ins1), SimulatedMachine(library))
    assert dump_trace(trace) == oracle(trace_to_doc(trace))


OBJECT = {"k": int, OptionalKey("o"): str}
NAN = math.nan

# (shape, value, the message of ``check(shape, value, "doc")``, or None where
# the value fits): one or more cases for each element of the shape notation
SHAPE_CASES = {
    "int given true": (int, True, "doc: expected an integer, got true"),
    "int given 8.0": (int, 8.0, "doc: expected an integer, got 8.0"),
    "float given NaN": (float, NAN, "doc: expected a finite number, got NaN"),
    "float given an infinity": (float, -math.inf, "doc: expected a finite number, got -Infinity"),
    "float given true": (float, True, "doc: expected a finite number, got true"),
    "float given 10**400": (float, 10**400, "doc: expected a finite number, got 1" + "0" * 36 + "..."),
    "float given an int": (float, 3, None),
    "str given a number": (str, 5, "doc: expected a string, got 5"),
    "bool given 1": (bool, 1, "doc: expected a boolean, got 1"),
    "dict given a list": (dict, [], "doc: expected an object, got []"),
    "NONEMPTY given an empty string": (NONEMPTY, "", 'doc: expected a nonempty string, got ""'),
    "S | None given null": (int | None, None, None),
    "S | None given a string": (int | None, "x", 'doc: expected an integer, got "x"'),
    "list given an object": ([int], {}, "doc: expected a list, got {}"),
    "index path into [S]": ({"a": [int]}, {"a": [1, 2, True]}, "doc: a[2]: expected an integer, got true"),
    "top-level index path": ([[str]], [[], ["x", 1]], "doc: [1][1]: expected a string, got 1"),
    "tuple of the wrong length": ((str, int), ["x"], 'doc: expected a list of 2 items, got ["x"]'),
    "tuple item": ((str, int), ["x", "y"], 'doc: [1]: expected an integer, got "y"'),
    "tuple in memory": ([(str, int)], (("add", 2),), None),
    "map holding one NaN": ({str: float}, {"a": 1.0, "b": NAN}, "doc: b: expected a finite number, got NaN"),
    "map holding a bool": ({str: float}, {"a": 1.0, "b": False}, "doc: b: expected a finite number, got false"),
    "unknown keys": (OBJECT, {"k": 1, "z": 2, "a": 3}, "doc: unknown keys ['a', 'z']"),
    "unknown and missing keys": (OBJECT, {"z": 2}, "doc: unknown keys ['z']"),
    "missing keys": (OBJECT, {"o": "x"}, "doc: missing keys ['k']"),
    "absent OptionalKey": (OBJECT, {"k": 1}, None),
    "present OptionalKey": (OBJECT, {"k": 1, "o": 2}, "doc: o: expected a string, got 2"),
    "object holding a NaN deep inside": (
        {"m": object}, {"m": {"a": [1, {"b": [NAN]}]}}, "doc: m.a[1].b[0]: expected a finite number, got NaN"
    ),
    "long value cut short": (str, list(range(30)), "doc: expected a string, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11..."),
}


@pytest.mark.parametrize("shape, value, message", SHAPE_CASES.values(), ids=SHAPE_CASES)
def test_check_message_of_each_shape_element(shape, value, message):
    if message is None:
        check(shape, value, "doc")
        return
    with pytest.raises(DocumentFormatError) as caught:
        check(shape, value, "doc")
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [10**5000, [1, 10**5000]], ids=["int", "list"])
def test_check_message_of_a_value_too_long_to_print(value):
    # a value built in memory may hold an int of more digits than str() writes
    kind = type(value).__name__
    with pytest.raises(DocumentFormatError, match=f"^doc: expected a string, got <{kind} too long"):
        check(str, value, "doc")
