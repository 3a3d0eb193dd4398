"""The library decode against a per-block reference.

``load_library`` checks each block through ``EventProfile`` and ``BlockSpec``
and raises the error of the first bad block.  The reference here does the
same, written out on its own.  Whatever the document, ``load_library`` must
raise the reference's exception, or return the reference's library with the
reference's event matrix.  The tests guard the decoder against a change of
outcome on any malformed document.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from proxybench import default_library, dump_library, load_library
from proxybench.blocks import BLOCK, LIBRARY, BlockSpec, library_from_specs
from proxybench.errors import DocumentFormatError, InvalidParameterError, UnknownEventError
from proxybench.events import profile_from_doc
from proxybench.jsonutil import check
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
