"""Loader property test: single-value mutations of real documents.

Each mutated library, profile, targets, program, trace or report document goes
straight to its ``load_*`` function; traces and reports are read by no CLI
command.  A load must raise a ``ProxyBenchError``, or return an object whose
dump parses back to the mutated document.  Only in a number field may an int
come back as the equal float.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import proxybench as pb
from proxybench.align import config_to_doc
from proxybench.errors import DocumentFormatError, ProxyBenchError
from proxybench.events import dump_profile, load_profile
from tests.conftest import hidden_targets, sample_hidden_program
from tests.test_cli_fuzz import VALUES, mutated, mutation

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

CODECS = {
    "library": (pb.dump_library, pb.load_library),
    "profile": (dump_profile, load_profile),
    "targets": (pb.dump_targets, pb.load_targets),
    "program": (pb.dump_program, pb.load_program),
    "trace": (pb.dump_trace, pb.load_trace),
    "report": (pb.dump_report, pb.load_report),
}

# the containers and keys that hold numbers; every other numeric value is an
# integer, or part of the report's free-form metadata, and must come back as is
NUMBER_MAPS = {"counts", "metrics", "accuracy", "targets", "per_metric", "per_category"}
NUMBER_KEYS = {"residual_norm", "growth", "ins1", "tol", "prune_eps", "stop_threshold"}


def number_field(path) -> bool:
    if not path or path[0] == "metadata":
        return False
    if len(path) >= 3 and path[-3] == "table":
        return path[-1] in (1, 2, 3)
    return path[-1] in NUMBER_KEYS or (len(path) >= 2 and path[-2] in NUMBER_MAPS)


def same(expected, actual, path=()) -> bool:
    """Whether ``actual`` is the JSON value ``expected``, type for type,
    except for an int that came back as the equal float in a number field."""
    if type(expected) is int and type(actual) is float and number_field(path):
        return expected == actual
    if type(expected) is not type(actual):
        return False
    if type(expected) is dict:
        return expected.keys() == actual.keys() and all(
            same(value, actual[key], path + (key,)) for key, value in expected.items()
        )
    if type(expected) is list:
        return len(expected) == len(actual) and all(
            same(value, item, path + (i,)) for i, (value, item) in enumerate(zip(expected, actual))
        )
    return expected == actual


@pytest.fixture(scope="module")
def documents():
    library = pb.default_library()
    rng = np.random.default_rng(3131)
    _, targets, _ = hidden_targets(library, rng)
    config = pb.AlignConfig(rounds=2, ins1=5e6, max_iter=200, stop_threshold=1.5)
    _, trace = pb.align(library, targets, config, pb.SimulatedMachine(library))
    metadata = {"seed": 7, "noise": "uniform:0.03", "config": config_to_doc(config)}
    objects = {
        "library": library,
        "profile": library.blocks["fpmix_addmul8"].profile,
        "targets": targets,
        "program": sample_hidden_program(library, rng),
        "trace": trace,
        "report": pb.build_report(targets, trace, metadata=metadata),
    }
    return {name: json.loads(CODECS[name][0](obj)) for name, obj in objects.items()}


@pytest.mark.parametrize("name", sorted(CODECS))
def test_mutated_document_raises_or_round_trips(documents, name):
    dump, load = CODECS[name]

    @SETTINGS
    @given(mutation(documents, name))
    def check(change):
        text = mutated(documents[name], *change)
        try:
            loaded = load(text)
        except ProxyBenchError:
            return
        assert same(json.loads(text), json.loads(dump(loaded))), change

    check()


def test_metadata_takes_any_json_value(documents):
    # a loader that rejected every mutation would pass the property above
    rejected = []
    for value in VALUES:
        try:
            pb.load_report(mutated(documents["report"], ("metadata", "seed"), value))
        except ProxyBenchError:
            rejected.append(value)
    assert [repr(value) for value in rejected] == ["nan", "inf"]  # not JSON


def test_deep_nesting_is_a_format_error(documents):
    # ``json`` and the shape check both recurse once per level
    for depth in (600, 100_000):
        text = mutated(documents["report"], ("metadata", "seed"), "deep")
        text = text.replace('"deep"', "[" * depth + "]" * depth)
        with pytest.raises(DocumentFormatError, match="report: nested too deeply"):
            pb.load_report(text)


def nested(depth: int):
    value = 7
    for _ in range(depth):
        value = {"a": value}
    return value


def test_deep_report_metadata_dumps_to_a_format_error(documents):
    report = pb.load_report(json.dumps(documents["report"]))
    deep = pb.AccuracyReport(report.per_metric, report.per_category, report.table,
                             {"seed": nested(3000)})
    with pytest.raises(DocumentFormatError, match="report: nested too deeply"):
        pb.dump_report(deep)


def test_loaded_report_dumps_or_is_too_deep_at_every_depth(documents):
    # ``_encode`` recurses deeper per level than the load, so some depths
    # load and are then too deep to dump
    for depth in range(440, 560):
        text = mutated(documents["report"], ("metadata", "seed"), "deep")
        text = text.replace('"deep"', json.dumps(nested(depth)))
        try:
            pb.dump_report(pb.load_report(text))
        except DocumentFormatError as exc:
            assert str(exc) == "report: nested too deeply"


# values of a number field that compare with no number, and the error each
# raises; a numpy float is a number
NOT_NUMBERS = {
    "growth None": (lambda: pb.AlignConfig(growth=None), "growth must be finite and > 0"),
    "ins1 text": (lambda: pb.AlignConfig(ins1="x"), "ins1 must be finite and > 0"),
    "stop_threshold text": (
        lambda: pb.AlignConfig(stop_threshold="x"), "stop_threshold must be None or finite"
    ),
    "epsilon text": (lambda: pb.NoiseModel.uniform("x"), "epsilon must be in [0, 1)"),
    "sigma None": (lambda: pb.NoiseModel.gaussian(None), "sigma must be finite and >= 0"),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_a_number_field_rejects_a_value_that_is_no_number(case):
    build, message = NOT_NUMBERS[case]
    with pytest.raises(DocumentFormatError) as caught:
        build()
    assert str(caught.value).startswith(message)
    pb.AlignConfig(growth=np.float64(0.3), ins1=np.float32(1e6), stop_threshold=np.float64(0.9))
    pb.NoiseModel.uniform(np.float64(0.1))
    pb.NoiseModel.gaussian(np.float32(0.1))


# (document, path, value).  At the first twelve, the old loaders raised a
# bare TypeError, KeyError, AttributeError or ValueError; the rest loaded a
# wrong value, coerced on the way in.
STRICT_CASES = {
    "config growth null": ("trace", ("config", "growth"), None),
    "rounds an integer": ("trace", ("rounds",), 0),
    "measured empty": ("trace", ("rounds", 0, "measured"), {}),
    "measured counts a list": ("trace", ("rounds", 0, "measured", "counts"), []),
    "metric an empty string": ("trace", ("rounds", 0, "metrics", "cpi"), ""),
    "residual norm null": ("trace", ("rounds", 0, "residual_norm"), None),
    "round NaN": ("trace", ("rounds", 0, "round"), float("nan")),
    "unreachable an integer": ("trace", ("rounds", 0, "unreachable"), 0),
    "trace targets a list": ("trace", ("targets",), []),
    "report metadata a string": ("report", ("metadata",), "x"),
    "report per_metric a list": ("report", ("per_metric",), []),
    "report table row too short": ("report", ("table", 0), [1]),
    "round fractional": ("trace", ("rounds", 0, "round"), 1.5),
    "round a boolean": ("trace", ("rounds", 0, "round"), True),
    "trace block null": ("trace", ("rounds", 0, "program", "entries", 0, "block"), None),
    "trace block an integer": ("trace", ("rounds", 0, "program", "entries", 0, "block"), 3),
    "program block null": ("program", ("entries", 0, "block"), None),
    "program block an integer": ("program", ("entries", 0, "block"), 3),
    "unreachable a string": ("trace", ("rounds", 0, "unreachable"), "ab"),
    "library hash an integer": ("trace", ("library_hash",), 5),
    "profile n0 a boolean": ("profile", ("n0",), True),
    "profile n0 2.5": ("profile", ("n0",), 2.5),
    "profile n0 2.7": ("profile", ("n0",), 2.7),
    "target a boolean": ("targets", ("metrics", "cpi"), True),
    "config rounds fractional": ("trace", ("config", "rounds"), 2.5),
    "config prune_eps a string": ("trace", ("config", "prune_eps"), "x"),
    "report metadata a list": ("report", ("metadata",), []),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_wrong_type_is_rejected_naming_its_key(documents, case):
    name, path, value = STRICT_CASES[case]
    with pytest.raises(DocumentFormatError) as err:
        CODECS[name][1](mutated(documents[name], path, value))
    key_path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    assert str(err.value).startswith(f"{name}: {key_path}: "), err.value


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "name, path",
    [
        ("library", ("n0",)),
        ("program", ("entries", 0, "executions")),
        ("trace", ("rounds", 0, "round")),
    ],
)
def test_integer_over_the_digit_limit_is_a_format_error(documents, name, path):
    # valid JSON, but ``json`` refuses to convert an integer literal this long
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    text = mutated(documents[name], path, "long").replace('"long"', digits)
    with pytest.raises(DocumentFormatError, match="malformed JSON"):
        CODECS[name][1](text)


# values that ``float()`` refuses, given to the public constructors directly
UNCONVERTIBLE = {"none": None, "text": "abc", "huge int": 10**400}


@pytest.mark.parametrize("case", sorted(UNCONVERTIBLE))
def test_constructors_reject_a_count_that_is_not_a_number(case):
    value = UNCONVERTIBLE[case]
    counts = {"instructions": 1e6, "cycles": value}
    with pytest.raises(DocumentFormatError, match="count for cycles must be a finite number"):
        pb.EventProfile(counts)
    with pytest.raises(DocumentFormatError, match="count for cycles must be a finite number"):
        pb.MeasurementResult(counts)
    with pytest.raises(DocumentFormatError, match="target cpi must be a finite number"):
        pb.TargetMetrics({"cpi": value})
