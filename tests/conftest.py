import sys

import numpy as np
import pytest

from proxybench import (
    METRICS,
    ProxyProgram,
    TargetMetrics,
    compute_all_metrics,
    default_library,
    predict_events,
)
from proxybench.solver import nnls


@pytest.fixture(scope="session")
def library():
    return default_library()


def sample_hidden_program(library, rng, include_fp=True, lo=10_000, hi=200_000):
    """A random reference program over the library; with ``include_fp`` it
    always contains one fp block so all 14 built-in metrics are positive."""
    ids = list(library.ids())
    plain = [i for i in ids if not i.startswith("fpmix")]
    k = int(rng.integers(5, 10))
    chosen = [str(b) for b in rng.choice(plain, size=k, replace=False)]
    if include_fp:
        chosen.append(str(rng.choice([i for i in ids if i.startswith("fpmix")])))
    return ProxyProgram(tuple((b, int(rng.integers(lo, hi))) for b in chosen))


def hidden_targets(library, rng, lo=10_000, hi=200_000):
    """Targets and instruction budget taken from a hidden reference program."""
    hidden = sample_hidden_program(library, rng, lo=lo, hi=hi)
    predicted = predict_events(hidden, library)
    targets = TargetMetrics(compute_all_metrics(predicted, METRICS))
    return hidden, targets, predicted.counts["instructions"]


@pytest.fixture
def rng():
    return np.random.default_rng(20231115)


@pytest.fixture
def recorded_solves(monkeypatch):
    """Every ``nnls`` call that ``align`` makes, as (system, args, kwargs,
    solution)."""
    calls = []

    def recording_nnls(system, *args, **kwargs):
        solution = nnls(system, *args, **kwargs)
        calls.append((system, args, kwargs, solution))
        return solution

    monkeypatch.setattr(sys.modules["proxybench.align"], "nnls", recording_nnls)
    return calls
