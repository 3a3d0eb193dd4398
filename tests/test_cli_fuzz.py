"""CLI fuzz: single-value mutations of the input documents.

Each mutated library, targets or program document goes through the command
that reads it, and so do a library emptied of its blocks and a file that is
not UTF-8.  The command must exit 0, or print one ``error: …`` line and exit
1; an exception escaping ``main`` would reach the user as a traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxybench import (
    default_library,
    dump_library,
    dump_program,
    dump_targets,
    format_counts,
    predict_events,
)
from proxybench.cli import main
from tests.conftest import hidden_targets, sample_hidden_program

# the values a mutation puts in place of one value of a document
VALUES = (
    None, True, False, 0, -1, 1, 3, 8.5, 8.0, -0.0, 1e-300, 1e308, 2**70, -(2**70),
    float("nan"), float("inf"), "", "x", "7", "fp", [], [1], {}, {"a": 1},
)

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def paths(doc, prefix=()):
    """Every path to a value inside ``doc``, containers included."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = prefix + (key,)
        found.append(path)
        if isinstance(value, (dict, list)) and value:
            found += paths(value, path)
    return found


def mutated(doc, path, value) -> str:
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


@pytest.fixture(scope="module")
def documents():
    library = default_library()
    rng = np.random.default_rng(3131)
    _, targets, _ = hidden_targets(library, rng)
    program = sample_hidden_program(library, rng)
    return {
        "library": json.loads(dump_library(library)),
        "targets": json.loads(dump_targets(targets)),
        "program": json.loads(dump_program(program)),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, documents):
    path = tmp_path_factory.mktemp("fuzz")
    for name, doc in documents.items():
        (path / f"{name}.json").write_text(json.dumps(doc))
    return path


def mutation(documents, name):
    return st.sampled_from(paths(documents[name])).flatmap(
        lambda path: st.sampled_from(VALUES).map(lambda value: (path, value))
    )


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    if code == 0:
        return
    assert code == 1
    assert err.startswith("error: "), err
    assert len(err.splitlines()) == 1, err


COMMANDS = {
    "validate": lambda files, out: ["library", "validate", files["library"]],
    "align": lambda files, out: [
        "align", files["targets"], "--library", files["library"],
        "--out", out / "run", "--rounds", "2", "--ins1", "5e6",
    ],
    "render": lambda files, out: [
        "render", files["program"], "--library", files["library"], "--out", out / "proxy.c",
    ],
}

# (mutated document, command that reads it)
CASES = [
    ("library", "validate"),
    ("library", "align"),
    ("library", "render"),
    ("targets", "align"),
    ("program", "render"),
]


@pytest.mark.parametrize("document, command", CASES)
def test_mutated_document_ends_cleanly(documents, workdir, document, command):
    @SETTINGS
    @given(mutation(documents, document))
    def check(change):
        files = {name: workdir / f"{name}.json" for name in documents}
        files[document] = workdir / f"mutated_{document}.json"
        files[document].write_text(mutated(documents[document], *change))
        assert_clean_exit(*run(COMMANDS[command](files, workdir)))

    check()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_library_without_blocks_ends_cleanly(documents, workdir, command):
    files = {name: workdir / f"{name}.json" for name in documents}
    files["library"] = workdir / "empty_library.json"
    files["library"].write_text(mutated(documents["library"], ("blocks",), []))
    code, err = run(COMMANDS[command](files, workdir))
    assert_clean_exit(code, err)
    if command == "align":
        assert (code, err) == (1, "error: round 1: the library has no blocks\n")


# each command that reads a file, with the file that is not UTF-8 first
NOT_UTF8 = {
    "validate": lambda files, bad, out: ["library", "validate", bad],
    "show": lambda files, bad, out: ["library", "show", bad],
    "align targets": lambda files, bad, out: [
        "align", bad, "--library", files["library"], "--out", out / "run",
    ],
    "align library": lambda files, bad, out: [
        "align", files["targets"], "--library", bad, "--out", out / "run",
    ],
    "render program": lambda files, bad, out: ["render", bad, "--library", files["library"]],
    "render library": lambda files, bad, out: ["render", files["program"], "--library", bad],
    "import-counts": lambda files, bad, out: ["import-counts", bad],
    "evaluate real": lambda files, bad, out: ["evaluate", bad, files["counts"]],
    "evaluate proxy": lambda files, bad, out: ["evaluate", files["counts"], bad],
}


@pytest.mark.parametrize("command", sorted(NOT_UTF8))
def test_file_that_is_not_utf8_is_an_error_line(documents, workdir, command):
    files = {name: workdir / f"{name}.json" for name in documents}
    files["counts"] = workdir / "ok.counts"
    library = default_library()
    counts = predict_events(sample_hidden_program(library, np.random.default_rng(7)), library)
    files["counts"].write_text(format_counts(counts))
    bad = workdir / "bad.json"
    bad.write_bytes(b'{"metrics": {"cpi": 1.0}}\xff')
    code, err = run(NOT_UTF8[command](files, bad, workdir))
    assert (code, err) == (1, f"error: {bad}: not UTF-8 text (invalid start byte)\n")
