"""Span tracing of proxybench from outside the package.

The benchmark records a span around each call into a layer's public
functions by replacing the name where the caller looks it up (the caller's
module globals, or a class attribute), so the package itself stays
uninstrumented.  Spans live in memory as
``[name, start_ns, end_ns, parent_index, op_id, attrs]`` and are written out
when the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ATTRS = range(6)
ROOT = "op"


class Tracer:
    """Collects spans while ``op`` is set; wrapped calls pass straight
    through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``; ``attrs``
        maps ``(args, result)`` to the counts stored on the span."""
        if self.op is None:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(index)
        if attrs is not None:
            self.spans[index][ATTRS] = attrs(args, result)
        return result

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, attrs=attrs, **kwargs)

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process below span ``parent``.

        ``perf_counter_ns`` reads the system-wide monotonic clock, so the
        other process's times are on this process's time line.
        """
        base = len(self.spans)
        for name, start, end, child_parent, _, attrs in spans:
            owner = base + child_parent if child_parent >= 0 else parent
            self.spans.append([name, start, end, owner, self.op, attrs])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs"],
                       "spans": self.spans}, handle, separators=(",", ":"))
            handle.write("\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Duration minus child coverage, for every span."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_ns(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def op_stats(spans: list[list]) -> dict[int, dict[str, dict]]:
    """Per op id and span name: calls, inclusive and self seconds, and the
    sums of the spans' counted attributes."""
    selfs = self_times_ns(spans)
    stats: dict[int, dict[str, dict]] = defaultdict(dict)
    for span, own in zip(spans, selfs):
        entry = stats[span[OP]].setdefault(
            span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)}
        )
        entry["calls"] += 1
        entry["s"] += (span[END] - span[START]) * 1e-9
        entry["self_s"] += own * 1e-9
        for key, value in (span[ATTRS] or {}).items():
            entry["attrs"][key] += value
    return stats


# ---------------------------------------------------------------------------
# the proxybench layers


class TracedMeasurer:
    """A ``Measurer`` that records each ``measure`` call as a span."""

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self.events = inner.events

    def measure(self, program, nonce: int = 0):
        return self.tracer.call("measure.measure", self.inner.measure, program, nonce)


def _text_bytes(args, result):
    return {"bytes": len(result)}  # generated documents and sources are ASCII


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary that ``align`` and ``cli align`` cross.

    ``proxybench.align`` on the package is the re-exported function, so the
    align module is taken from ``sys.modules``.
    """
    import proxybench.cli  # noqa: F401  (registers the module)

    align = sys.modules["proxybench.align"]
    cli = sys.modules["proxybench.cli"]
    report = sys.modules["proxybench.report"]
    measure = sys.modules["proxybench.measure"]
    blocks = sys.modules["proxybench.blocks"]

    wrap = tracer.wrap
    wrap(align, "assemble_initial_system", "solver.assemble_initial_system")
    wrap(align, "assemble_incremental_system", "solver.assemble_incremental_system")
    wrap(align, "unreachable_rows", "solver.unreachable_rows",
         lambda args, result: {"flagged": len(result)})
    wrap(align, "nnls", "solver.nnls", lambda args, result: {
        "iterations": result.iterations,
        "cols": args[0].matrix.shape[1],
        "certified": int(result.certified),
    })
    wrap(align, "select_blocks", "solver.select_blocks",
         lambda args, result: {"working_set_blocks": len(result)})
    wrap(align, "counts_from_solution", "solver.counts_from_solution")
    wrap(align, "compute_all_metrics", "events.compute_all_metrics")
    wrap(align, "accuracy", "report.accuracy")
    wrap(report, "accuracy", "report.accuracy")
    wrap(measure, "predict_events", "events.predict_events")
    wrap(blocks.BlockLibrary, "content_hash", "blocks.content_hash")

    wrap(cli, "load_targets", "events.load_targets")
    wrap(cli, "load_library", "blocks.load_library",
         lambda args, result: {"bytes": len(args[0])})
    wrap(cli, "align", "align.align")
    wrap(cli, "build_report", "report.build_report")
    wrap(cli, "dump_program", "events.dump_program", _text_bytes)
    wrap(cli, "render_program", "blocks.render_program", _text_bytes)
    wrap(cli, "dump_trace", "align.dump_trace", _text_bytes)
    wrap(cli, "dump_report", "report.dump_report", _text_bytes)
    wrap(cli, "write_text_atomic", "jsonutil.write_text_atomic",
         lambda args, result: {"bytes": len(args[1])})

    machine = cli.SimulatedMachine
    tracer.replace(cli, "SimulatedMachine",
                   lambda *args: TracedMeasurer(tracer, machine(*args)))
