"""Command-line front end.

Subcommands: ``library`` (init-default / show / validate), ``align``,
``render``, ``import-counts``, ``evaluate``.  Diagnostics go to stderr, data
to stdout or files; given identical inputs, flags, and seed, every output is
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from .align import AlignConfig, align, config_to_doc, dump_trace
from .blocks import default_library, dump_library, load_library, render_program
from .errors import ProxyBenchError
from .events import METRICS, compute_all_metrics, dump_program, load_program, load_targets
from .jsonutil import write_text_atomic
from .measure import NoiseModel, SimulatedMachine, format_counts, parse_counts
from .report import (
    ComparisonSeries,
    accuracy,
    build_report,
    category_accuracy,
    dump_report,
    mean_abs_rel_error,
    pearson,
)
from .solver import unreachable_targets

DEFAULT_SEED = 8675309
DEFAULT_NOISE = "uniform:0.03"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ProxyBenchError(f"{path}: not UTF-8 text ({exc.reason})") from None


# noise kind -> (model, level when the spec gives none)
_NOISE_LEVELS = {"uniform": (NoiseModel.uniform, 0.03), "gaussian": (NoiseModel.gaussian, 0.01)}


def _parse_noise(spec: str, seed: int) -> NoiseModel:
    if spec == "none":
        return NoiseModel.none()
    kind, _, value = spec.partition(":")
    model, default = _NOISE_LEVELS.get(kind, (None, None))
    if model is None:
        raise ProxyBenchError(f"unknown noise spec {spec!r} (use none, uniform:E, gaussian:S)")
    try:
        level = float(value) if value else default
    except ValueError:
        raise ProxyBenchError(f"noise spec {spec!r}: {value!r} is not a number") from None
    return model(level, seed)


def _cmd_library(args) -> int:
    if args.action == "init-default":
        library = default_library(fp_variants=not args.no_fp_variants)
        write_text_atomic(args.path, dump_library(library))
        print(f"wrote {len(library)} blocks to {args.path}", file=sys.stderr)
        return 0
    library = load_library(_read(args.path))
    if args.action == "show":
        for spec in library.blocks.values():
            print(spec.describe())
        return 0
    # validate: construction re-checks every invariant, so reaching here means
    # the document is sound
    print(f"ok: {len(library)} blocks, n0={library.n0}", file=sys.stderr)
    return 0


def _cmd_align(args) -> int:
    targets = load_targets(_read(args.targets))
    library = load_library(_read(args.library))
    config = AlignConfig(
        rounds=args.rounds,
        growth=args.growth,
        ins1=args.ins1,
        tol=args.tol,
        prune_eps=args.eps,
    )
    noise = _parse_noise(args.noise, args.seed)
    program, trace = align(library, targets, config, SimulatedMachine(library, noise))
    # warned once align has finished, so an align that fails still ends in
    # its one error line
    for metric, (lo, hi) in unreachable_targets(library, targets).items():
        print(
            f"warning: target {metric}={targets.targets[metric]:g} is outside the "
            f"library's reachable range [{lo:g}, {hi:g}]",
            file=sys.stderr,
        )
    report = build_report(
        targets,
        trace,
        metadata={
            "library_hash": trace.library_hash,
            "config": config_to_doc(config),
            "noise": args.noise,
            "seed": args.seed,
            "provenance": trace.rounds[-1].measured.provenance,
        },
    )
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "program.json"), dump_program(program))
    write_text_atomic(os.path.join(args.out, "proxy.c"), render_program(program, library))
    write_text_atomic(os.path.join(args.out, "trace.json"), dump_trace(trace))
    write_text_atomic(os.path.join(args.out, "report.json"), dump_report(report))
    for category in sorted(report.per_category):
        print(f"{category}\t{100.0 * report.per_category[category]:.1f}%")
    return 0


def _cmd_render(args) -> int:
    program = load_program(_read(args.program))
    library = load_library(_read(args.library))
    source = render_program(program, library)
    if args.out:
        write_text_atomic(args.out, source)
    else:
        sys.stdout.write(source)
    return 0


def _cmd_import_counts(args) -> int:
    text = _read(args.path)
    try:
        result = parse_counts(text)
    except ProxyBenchError as exc:
        raise ProxyBenchError(f"{args.path}: {exc}") from None
    text = format_counts(result)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _metrics_from_file(path: str) -> dict:
    # parse and metric errors both carry the offending file
    text = _read(path)
    try:
        return compute_all_metrics(parse_counts(text), METRICS)
    except ProxyBenchError as exc:
        raise ProxyBenchError(f"{path}: {exc}") from None


def _cmd_evaluate(args) -> int:
    paths = args.counts
    if len(paths) % 2 != 0:
        raise ProxyBenchError("evaluate expects REAL PROXY file pairs")
    scored = [
        (_metrics_from_file(paths[i]), _metrics_from_file(paths[i + 1]))
        for i in range(0, len(paths), 2)
    ]
    if len(scored) == 1 and not args.series:
        real, proxy = scored[0]
        per_metric = {m: accuracy(real[m], proxy[m]) for m in real}
        print("metric\treal\tproxy\taccuracy")
        for definition in METRICS:
            m = definition.id
            print(f"{m}\t{real[m]!r}\t{proxy[m]!r}\t{per_metric[m]!r}")
        print("category\taccuracy")
        floors = category_accuracy(per_metric, METRICS)
        for category in sorted(floors):
            print(f"{category}\t{floors[category]!r}")
        return 0
    print("metric\trho\tmean_rel_error")
    for definition in METRICS:
        series = ComparisonSeries(
            tuple(real[definition.id] for real, _ in scored),
            tuple(proxy[definition.id] for _, proxy in scored),
        )
        print(f"{definition.id}\t{pearson(series)!r}\t{mean_abs_rel_error(series)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxybench",
        description="Synthesize proxy benchmarks matching a hardware-counter metric target.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_library = sub.add_parser("library", help="manage block libraries")
    p_library.add_argument("action", choices=("init-default", "show", "validate"))
    p_library.add_argument("path")
    p_library.add_argument(
        "--no-fp-variants",
        action="store_true",
        help="omit the floating-point arithmetic variants from init-default",
    )
    p_library.set_defaults(func=_cmd_library)

    p_align = sub.add_parser("align", help="construct and refine a proxy benchmark")
    p_align.add_argument("targets", help="target metrics JSON")
    p_align.add_argument("--library", required=True, help="block library JSON")
    p_align.add_argument("--out", required=True, help="output directory")
    p_align.add_argument("--rounds", type=int, default=AlignConfig.rounds)
    p_align.add_argument("--growth", type=float, default=AlignConfig.growth)
    p_align.add_argument("--ins1", type=float, default=AlignConfig.ins1)
    p_align.add_argument("--tol", type=float, default=AlignConfig.tol)
    p_align.add_argument("--eps", type=float, default=AlignConfig.prune_eps)
    p_align.add_argument("--noise", default=DEFAULT_NOISE)
    p_align.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_align.set_defaults(func=_cmd_align)

    p_render = sub.add_parser("render", help="render a program manifest to C source")
    p_render.add_argument("program", help="program manifest JSON")
    p_render.add_argument("--library", required=True)
    p_render.add_argument("--out")
    p_render.set_defaults(func=_cmd_render)

    p_import = sub.add_parser("import-counts", help="validate and canonicalize a counts file")
    p_import.add_argument("path")
    p_import.add_argument("--out")
    p_import.set_defaults(func=_cmd_import_counts)

    p_eval = sub.add_parser("evaluate", help="score proxy counts against real counts")
    p_eval.add_argument("counts", nargs="+", metavar="REAL PROXY")
    p_eval.add_argument(
        "--series",
        action="store_true",
        help="report correlation and mean error per metric over many pairs",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProxyBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
