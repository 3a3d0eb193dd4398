"""The library decode against a per-block reference.

``load_library`` decodes a library in one loop over its blocks.  Each block
that passes a screen of C-level tests is built from its row of one count
matrix, held to the count rules in columns; any other block, and any whose
row breaks a rule, is checked against ``BLOCK`` and built through
``EventProfile`` and ``BlockSpec`` on its own, so the first bad block raises.
The reference here decodes block by block, written out on its own.  Whatever
the document, ``load_library`` must raise the reference's exception, or
return the reference's library with the reference's event matrix.  The tests
guard the decoder against a change of outcome on any malformed document.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from proxybench import default_library, dump_library, load_library
from proxybench.blocks import BLOCK, LIBRARY, BlockSpec, library_from_specs
from proxybench.errors import DocumentFormatError, InvalidParameterError, UnknownEventError
from proxybench.events import EVENT_INDEX, profile_from_doc
from proxybench.jsonutil import check
from tests.test_blocks import sweep_library
from tests.test_cli_fuzz import SETTINGS, mutated, mutation


def block_from_doc(doc: dict) -> BlockSpec:
    """The block of a JSON object, checked as ``BLOCK``, then built from its
    profile and its params, which ``BlockSpec`` checks by its family."""
    check(BLOCK, doc, f"block {doc.get('id')}")
    block_id = doc["id"]
    try:
        profile = profile_from_doc(doc["profile"]) if "profile" in doc else None
        return BlockSpec(block_id, doc["family"], doc["params"], profile)
    except (DocumentFormatError, InvalidParameterError, UnknownEventError) as exc:
        raise type(exc)(f"block {block_id}: {exc}") from None


def reference(text: str):
    """The library of ``text``, decoded block by block."""
    doc = json.loads(text)
    check(LIBRARY, doc, "library")
    return library_from_specs([block_from_doc(block) for block in doc["blocks"]], doc["n0"])


def outcome(load, text: str):
    try:
        return load(text)
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)


def assert_same_outcome(text: str):
    loaded, expected = outcome(load_library, text), outcome(reference, text)
    if isinstance(expected, tuple) or isinstance(loaded, tuple):
        assert loaded == expected
        return loaded
    assert loaded == expected
    assert dump_library(loaded) == dump_library(expected)
    assert np.array_equal(loaded.event_matrix, expected.event_matrix, equal_nan=True)
    assert not loaded.event_matrix.flags.writeable
    assert all(
        type(value) is float
        for spec in loaded.blocks.values() if spec.profile is not None
        for value in spec.profile.counts.values()
    )
    return loaded


@pytest.fixture(scope="module")
def document():
    """The default library, one of its blocks uncalibrated and one profile
    lacking an event."""
    doc = json.loads(dump_library(default_library()))
    del doc["blocks"][4]["profile"]
    del doc["blocks"][9]["profile"]["counts"]["vec_insts"]
    return doc


def counts(doc, index):
    return doc["blocks"][index]["profile"]["counts"]


def test_mutated_library_decodes_as_the_reference(document):
    @settings(SETTINGS, max_examples=300)
    @given(mutation({"library": document}, "library"))
    def check_one(change):
        assert_same_outcome(mutated(document, *change))

    check_one()


def test_unmutated_library(document):
    loaded = assert_same_outcome(json.dumps(document))
    assert loaded.blocks[document["blocks"][4]["id"]].profile is None
    assert np.isnan(loaded.event_matrix[4]).all()
    assert np.isnan(loaded.event_matrix[9]).sum() == 1


def test_miss_above_access_deep_in_the_library(document):
    doc = json.loads(json.dumps(document))
    counts(doc, 20)["l2_misses"] = counts(doc, 20)["l2_accesses"] + 1.0
    error, message = assert_same_outcome(json.dumps(doc))
    assert error is DocumentFormatError
    assert message.startswith(f"block {doc['blocks'][20]['id']}: profile: l2_misses=")


def test_profile_n0_other_than_the_library_n0(document):
    doc = json.loads(json.dumps(document))
    doc["blocks"][7]["profile"]["n0"] = 12345
    assert assert_same_outcome(json.dumps(doc)) == (
        DocumentFormatError,
        f"block {doc['blocks'][7]['id']}: profile n0 12345 != library n0 {doc['n0']}",
    )


def test_library_n0_that_is_no_count(document):
    # each profile n0 equals the library's, and none of them is a count
    doc = json.loads(json.dumps(document))
    doc["n0"] = 0
    for block in doc["blocks"]:
        if "profile" in block:
            block["profile"]["n0"] = 0
    assert assert_same_outcome(json.dumps(doc)) == (
        DocumentFormatError,
        f"block {doc['blocks'][0]['id']}: profile n0 must be a positive integer, got 0",
    )


def test_profile_lacking_an_event(document):
    doc = json.loads(json.dumps(document))
    del counts(doc, 12)["l3_misses"]
    loaded = assert_same_outcome(json.dumps(doc))
    assert "l3_misses" not in loaded.blocks[doc["blocks"][12]["id"]].profile.counts


def test_integer_count_comes_back_as_a_float(document):
    doc = json.loads(json.dumps(document))
    counts(doc, 3)["cycles"] = 123456789
    counts(doc, 5)["cycles"] = 10**300
    loaded = assert_same_outcome(json.dumps(doc))
    assert loaded.blocks[doc["blocks"][3]["id"]].profile.counts["cycles"] == 123456789.0
    assert loaded.blocks[doc["blocks"][5]["id"]].profile.counts["cycles"] == 1e300


def test_first_of_two_bad_blocks_is_named(document):
    doc = json.loads(json.dumps(document))
    for index in (6, 15):
        counts(doc, index)["cycles"] = -1.0
    error, message = assert_same_outcome(json.dumps(doc))
    assert error is DocumentFormatError
    assert message.startswith(f"block {doc['blocks'][6]['id']}: ")
    # a profile n0 is held to the library's only once every block is built,
    # so a later block's bad count is named first, as block by block
    doc = json.loads(json.dumps(document))
    doc["blocks"][6]["profile"]["n0"] = 1
    counts(doc, 15)["cycles"] = -1.0
    error, message = assert_same_outcome(json.dumps(doc))
    assert message.startswith(f"block {doc['blocks'][15]['id']}: ")


def add_unknown_event(block):
    block["profile"]["counts"]["widgets"] = 1.0


def zero_instructions(block):
    block["profile"]["counts"]["instructions"] = 0.0


def drop_instructions(block):
    del block["profile"]["counts"]["instructions"]


def zero_stride(block):
    block["params"]["stride"] = 0


# one edit of block 11 for each check of the decode, and the
# error the reference raises
CHECKS = {
    add_unknown_event: "block fn_stride1024: unknown event name: 'widgets'",
    zero_instructions: "block fn_stride1024: profile must have instructions > 0",
    drop_instructions: "block fn_stride1024: profile must have instructions > 0",
    zero_stride: "block fn_stride1024: function stride must be >= 1, got 0",
}


@pytest.mark.parametrize("edit", CHECKS, ids=lambda edit: edit.__name__)
def test_each_check_of_the_block_by_block_decode(document, edit):
    doc = json.loads(json.dumps(document))
    edit(doc["blocks"][11])
    assert assert_same_outcome(json.dumps(doc))[1] == CHECKS[edit]


def test_duplicate_id(document):
    doc = json.loads(json.dumps(document))
    doc["blocks"][11]["id"] = doc["blocks"][2]["id"]
    assert assert_same_outcome(json.dumps(doc)) == (
        DocumentFormatError, "duplicate block id 'mem_stride32'"
    )


# A calibrated block with every event is decoded in columns: one screen of its
# keys and value types, and one pass over the count matrix of all blocks.  The
# cases below hold that decode to the reference too.


@pytest.fixture(scope="module", params=["default", "sweep"])
def calibrated(request):
    """A fully calibrated library document."""
    make = {"default": default_library, "sweep": sweep_library}[request.param]
    return json.loads(dump_library(make()))


def test_mutated_calibrated_library_decodes_as_the_reference(calibrated):
    @settings(SETTINGS, max_examples=300)
    @given(mutation({"library": calibrated}, "library"))
    def check_one(change):
        assert_same_outcome(mutated(calibrated, *change))

    check_one()


def test_calibrated_load_checks_each_block_once(calibrated, monkeypatch):
    import proxybench.blocks as blocks_mod
    import proxybench.events as events_mod

    calls = []
    validate, shape_check = events_mod._validate_counts, blocks_mod.check

    def counted_validate(*args, **kwargs):
        calls.append("counts")
        return validate(*args, **kwargs)

    def counted_check(shape, value, what):
        if shape is BLOCK:
            calls.append(what)
        return shape_check(shape, value, what)

    text = json.dumps(calibrated)
    monkeypatch.setattr(events_mod, "_validate_counts", counted_validate)
    monkeypatch.setattr(blocks_mod, "check", counted_check)
    loaded = load_library(text)
    assert calls == []
    # the decode's matrix is the library's, and it is the matrix that the
    # library of the same blocks builds on first use
    assert "event_matrix" in vars(loaded)
    built = library_from_specs(loaded.blocks.values(), loaded.n0).event_matrix
    assert loaded.event_matrix.tobytes() == built.tobytes()
    assert_same_outcome(text)


def edited(edit) -> str:
    """The fully calibrated default library document, edited."""
    doc = json.loads(dump_library(default_library()))
    edit(doc)
    return json.dumps(doc)


def bool_count(doc):
    counts(doc, 3)["cycles"] = True


def text_count(doc):
    counts(doc, 3)["cycles"] = "7"


def int_count_past_the_float_range(doc):
    counts(doc, 5)["cycles"] = 10**400


def negative_count(doc):
    counts(doc, 8)["l1d_misses"] = -1.0


def nan_count(doc):
    counts(doc, 8)["cycles"] = float("nan")


def infinite_count(doc):
    counts(doc, 8)["cycles"] = float("inf")


def miss_above_access_in_the_last_block(doc):
    counts(doc, -1)["itlb_misses"] = counts(doc, -1)["itlb_accesses"] + 1.0


def instructions_zero(doc):
    counts(doc, 0)["instructions"] = 0.0


def unknown_event_for_a_known_one(doc):
    del counts(doc, 11)["vec_insts"]
    counts(doc, 11)["widgets"] = 1.0


def twenty_second_event(doc):
    counts(doc, 11)["widgets"] = 1.0


def profile_n0_other_than_the_library_n0(doc):
    doc["blocks"][7]["profile"]["n0"] = 12345


def profile_n0_true(doc):
    # true == 1, so every other n0 is 1
    doc["n0"] = 1
    for block in doc["blocks"]:
        block["profile"]["n0"] = 1
    doc["blocks"][7]["profile"]["n0"] = True


def library_n0_zero(doc):
    doc["n0"] = 0
    for block in doc["blocks"]:
        block["profile"]["n0"] = 0


def comment_closing_id(doc):
    doc["blocks"][7]["id"] = "mem*/x"


def duplicate_id(doc):
    doc["blocks"][11]["id"] = doc["blocks"][2]["id"]


def family_not_a_string(doc):
    doc["blocks"][7]["family"] = 5


def extra_block_key(doc):
    doc["blocks"][7]["note"] = "x"


def params_as_pairs(doc):
    doc["blocks"][7]["params"] = [["stride", 1024], ["buffer", 67108864]]


def extra_profile_key(doc):
    doc["blocks"][7]["profile"]["extra"] = 1


def counts_a_list(doc):
    doc["blocks"][7]["profile"]["counts"] = []


def stride_zero(doc):
    doc["blocks"][11]["params"]["stride"] = 0


def empty_id(doc):
    doc["blocks"][7]["id"] = ""


def id_not_a_string(doc):
    doc["blocks"][7]["id"] = 5


def block_without_a_profile_first(doc):
    # the screened blocks after it are built as the reference builds them
    del doc["blocks"][0]["profile"]
    doc["blocks"][3]["params"]["stride"] = 0


# one edit for each screen of the column decode, and of the checks that it
# leaves to BlockSpec and BlockLibrary, with the error the reference raises
SCREENS = {
    bool_count: (DocumentFormatError, (
        "block mem_stride64: profile.counts.cycles: expected a finite number, got true")),
    text_count: (DocumentFormatError, (
        'block mem_stride64: profile.counts.cycles: expected a finite number, got "7"')),
    int_count_past_the_float_range: (DocumentFormatError, (
        "block mem_stride256: profile.counts.cycles: expected a finite number, "
        "got 1000000000000000000000000000000000000...")),
    negative_count: (DocumentFormatError, (
        "block mem_stride4096: profile: count for l1d_misses must be finite and >= 0")),
    nan_count: (DocumentFormatError, (
        "block mem_stride4096: profile.counts.cycles: expected a finite number, got NaN")),
    infinite_count: (DocumentFormatError, (
        "block mem_stride4096: profile.counts.cycles: expected a finite number, got Infinity")),
    miss_above_access_in_the_last_block: (DocumentFormatError, (
        "block fpmix_div8: profile: itlb_misses=130000001.0 exceeds itlb_accesses=130000000.0")),
    instructions_zero: (DocumentFormatError, (
        "block mem_stride8: profile must have instructions > 0")),
    unknown_event_for_a_known_one: (UnknownEventError, (
        "block fn_stride1024: unknown event name: 'widgets'")),
    twenty_second_event: (UnknownEventError, (
        "block fn_stride1024: unknown event name: 'widgets'")),
    profile_n0_other_than_the_library_n0: (DocumentFormatError, (
        "block mem_stride1024: profile n0 12345 != library n0 10000000")),
    profile_n0_true: (DocumentFormatError, (
        "block mem_stride1024: profile.n0: expected an integer, got true")),
    library_n0_zero: (DocumentFormatError, (
        "block mem_stride8: profile n0 must be a positive integer, got 0")),
    comment_closing_id: (InvalidParameterError, (
        "block mem*/x: block id must not contain '*/', got 'mem*/x'")),
    duplicate_id: (DocumentFormatError, "duplicate block id 'mem_stride32'"),
    family_not_a_string: (DocumentFormatError, (
        "block mem_stride1024: family: expected a string, got 5")),
    extra_block_key: (DocumentFormatError, "block mem_stride1024: unknown keys ['note']"),
    params_as_pairs: (DocumentFormatError, (
        'block mem_stride1024: params: expected an object, '
        'got [["stride", 1024], ["buffer", 67108864]]')),
    extra_profile_key: (DocumentFormatError, (
        "block mem_stride1024: profile: unknown keys ['extra']")),
    counts_a_list: (DocumentFormatError, (
        "block mem_stride1024: profile.counts: expected an object, got []")),
    stride_zero: (InvalidParameterError, (
        "block fn_stride1024: function stride must be >= 1, got 0")),
    empty_id: (DocumentFormatError, 'block : id: expected a nonempty string, got ""'),
    id_not_a_string: (DocumentFormatError, "block 5: id: expected a nonempty string, got 5"),
    block_without_a_profile_first: (InvalidParameterError, (
        "block mem_stride64: memory stride must be in [1, 2^20], got 0")),
}


@pytest.mark.parametrize("edit", SCREENS, ids=lambda edit: edit.__name__)
def test_each_screen_of_the_column_decode(edit):
    assert assert_same_outcome(edited(edit)) == SCREENS[edit]


def test_calibrated_int_counts_come_back_as_floats():
    def int_counts(doc):
        counts(doc, 3)["cycles"] = 123456789
        counts(doc, 5)["cycles"] = 10**300
        counts(doc, 6)["cycles"] = 2**53 + 1  # rounds to even, as float() does

    loaded = assert_same_outcome(edited(int_counts))
    cycles = [spec.profile.counts["cycles"] for spec in loaded.blocks.values()]
    assert cycles[3] == 123456789.0 and cycles[5] == 1e300 and cycles[6] == float(2**53)


def test_calibrated_negative_zero_count_kept():
    def negative_zero(doc):
        counts(doc, 8)["fp_insts"] = -0.0

    loaded = assert_same_outcome(edited(negative_zero))
    value = loaded.blocks["mem_stride4096"].profile.counts["fp_insts"]
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
    assert math.copysign(1.0, loaded.event_matrix[8, EVENT_INDEX["fp_insts"]]) == -1.0


def test_block_with_no_profile_among_calibrated_blocks():
    def no_profile(doc):
        del doc["blocks"][7]["profile"]

    loaded = assert_same_outcome(edited(no_profile))
    assert loaded.blocks["mem_stride1024"].profile is None
    assert np.isnan(loaded.event_matrix[7]).all()


def test_calibrated_library_with_no_blocks():
    loaded = assert_same_outcome(json.dumps({"n0": 10, "blocks": []}))
    assert len(loaded) == 0 and loaded.event_matrix.shape == (0, len(EVENT_INDEX))


def counted_decode(text, monkeypatch):
    """The outcome of loading ``text``, the ``_validate_counts`` calls its
    decode made, each named by its cycles count, and its ``check(BLOCK,
    ...)`` calls, each named by its block."""
    import proxybench.blocks as blocks_mod
    import proxybench.events as events_mod

    validated, checked = [], []
    validate, shape_check = events_mod._validate_counts, blocks_mod.check

    def counted_validate(counts, **kwargs):
        validated.append(counts["cycles"] if "cycles" in counts else None)
        return validate(counts, **kwargs)

    def counted_check(shape, value, what):
        if shape is BLOCK:
            checked.append(what)
        return shape_check(shape, value, what)

    monkeypatch.setattr(events_mod, "_validate_counts", counted_validate)
    monkeypatch.setattr(blocks_mod, "check", counted_check)
    try:
        return outcome(load_library, text), validated, checked
    finally:
        monkeypatch.undo()


def test_only_the_block_lacking_an_event_leaves_the_screen(monkeypatch):
    doc = json.loads(dump_library(default_library()))
    del counts(doc, 9)["vec_insts"]
    counts(doc, 9)["cycles"] = 987654321.0  # names the block's validation
    text = json.dumps(doc)
    loaded, validated, checked = counted_decode(text, monkeypatch)
    assert validated == [987654321.0]
    assert checked == [f"block {doc['blocks'][9]['id']}"]
    # the decode's matrix is the library's, with a NaN where block 9 lacks
    # its event, and it is the matrix the library of the same blocks builds
    assert "event_matrix" in vars(loaded)
    built = library_from_specs(loaded.blocks.values(), loaded.n0).event_matrix
    assert loaded.event_matrix.tobytes() == built.tobytes()
    assert np.isnan(loaded.event_matrix).sum() == 1
    assert np.isnan(loaded.event_matrix[9, EVENT_INDEX["vec_insts"]])
    assert_same_outcome(text)


def test_only_the_block_with_an_int_past_the_float_range_leaves_the_screen(monkeypatch):
    doc = json.loads(dump_library(default_library()))
    counts(doc, 5)["cycles"] = 10**400
    counts(doc, 6)["cycles"] = 10**300  # an int in the float range stays in the screen
    text = json.dumps(doc)
    error, validated, checked = counted_decode(text, monkeypatch)
    assert validated == [] and checked == [f"block {doc['blocks'][5]['id']}"]
    assert error == assert_same_outcome(text) == SCREENS[int_count_past_the_float_range]


def test_int_counts_stay_in_the_screen(monkeypatch):
    doc = json.loads(dump_library(default_library()))
    for block in doc["blocks"][::2]:
        block["profile"]["counts"] = {
            name: int(value) for name, value in block["profile"]["counts"].items()
        }
    text = json.dumps(doc)
    loaded, validated, checked = counted_decode(text, monkeypatch)
    assert validated == [] and checked == []
    assert loaded == assert_same_outcome(text)
