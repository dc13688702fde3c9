"""Command-line interface: evaluate, convert, plot, generate code, benchmark.

Model files are dispatched by extension: ``.fzl`` (native DSL), ``.fcl``
(Fuzzy Control Language), ``.fis`` (Matlab toolbox format).  Exit codes:
0 success, 1 parse/load error, 2 missing or malformed input, 3 evaluation
or generation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bench as bench_mod
from . import codegen, viz
from .engine import grouped_max_output, infer
from .errors import CodegenError, EvaluationError, MissingInputError, ParseError
from .model import FuzzySystem


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_model(path: str) -> FuzzySystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Failure(1, f"cannot read {path}: {exc.strerror or exc}")
    diagnostics = None
    try:
        if path.endswith(".fzl"):
            from .dsl import parse_system

            fis = parse_system(text, origin=path)
        elif path.endswith(".fcl"):
            from .interop import parse_fcl

            fis, diagnostics = parse_fcl(text, origin=path)
        elif path.endswith(".fis"):
            from .interop import parse_fis

            fis, diagnostics = parse_fis(text, origin=path)
        else:
            raise _Failure(1, f"cannot tell the model format of {path!r} "
                              f"(expected .fzl, .fcl or .fis)")
    except ParseError as exc:
        raise _Failure(1, str(exc))
    if diagnostics is not None:
        for location, message in diagnostics.warnings:
            print(f"{path}: warning: {message} [{location}]", file=sys.stderr)
    return fis


def _parse_assignments(pairs: list[str]) -> dict[str, float]:
    inputs = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise _Failure(2, f"input must look like name=value, got {pair!r}")
        try:
            value = float(raw)
        except ValueError:
            raise _Failure(2, f"input {name.strip()!r} has a non-numeric "
                              f"value {raw!r}")
        if not math.isfinite(value):
            raise _Failure(2, f"input {name.strip()!r} has a non-finite value {raw!r}")
        inputs[name.strip()] = value
    return inputs


def _fmt(value: float) -> str:
    s = f"{value:.6g}"
    if "." not in s and "e" not in s and s.strip("-").isdigit():
        s += ".0"
    return s


def cmd_eval(args) -> int:
    fis = _load_model(args.model)
    inputs = _parse_assignments(args.inputs)
    try:
        if args.pipeline == "eq1":
            first = range(0, len(fis.rules) // 2)
            second = range(len(fis.rules) // 2, len(fis.rules))
            value = grouped_max_output(fis, inputs, args.gray_levels, first, second)
            name = next(iter(fis.outputs))
            crisp = {name: value}
            firing = intervals = firing_intervals = None
            degenerate: tuple = ()
        else:
            result = infer(fis, inputs)
            crisp = result.crisp
            firing = list(result.firing) if result.firing is not None else None
            intervals, firing_intervals = result.intervals, result.firing_intervals
            degenerate = result.degenerate
    except MissingInputError as exc:
        raise _Failure(2, str(exc))
    except EvaluationError as exc:
        raise _Failure(3, str(exc))
    if args.json:
        payload = {"crisp": {k: v for k, v in crisp.items()},
                   "firing": firing,
                   "degenerate": sorted(degenerate)}
        if intervals is not None:  # interval type-2
            payload["intervals"] = {k: list(v) for k, v in intervals.items()}
            payload["firing_intervals"] = [list(pair) for pair in firing_intervals]
        print(json.dumps(payload, sort_keys=True))
        return 0
    for name, value in crisp.items():
        print(f"{name} = {_fmt(value)}")
    if args.firing and firing is not None:
        for i, act in enumerate(firing):
            print(f"# rule {i + 1}: {_fmt(act)}")
    elif args.firing and firing_intervals is not None:
        for i, (low, high) in enumerate(firing_intervals):
            print(f"# rule {i + 1}: [{_fmt(low)}, {_fmt(high)}]")
    return 0


def cmd_convert(args) -> int:
    from .dsl import format_system

    fis = _load_model(args.model)
    text = format_system(fis)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(1, f"cannot write {args.out}: {exc.strerror or exc}")
    return 0


def cmd_plot(args) -> int:
    fis = _load_model(args.model)
    figure = viz.plot_system(fis, samples=args.samples)
    if args.ascii:
        for chart in figure.charts:
            print(viz.render_ascii(chart, args.width, args.height))
        for line in figure.rules:
            print(line)
        return 0
    if not args.out:
        raise _Failure(1, "plot needs an output file (or --ascii)")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(viz.render_system_svg(figure))
    except OSError as exc:
        raise _Failure(1, f"cannot write {args.out}: {exc.strerror or exc}")
    return 0


def cmd_codegen(args) -> int:
    fis = _load_model(args.model)
    try:
        text = codegen.generate(fis, function_name=args.name,
                                inline_mfs=not args.helpers)
    except CodegenError as exc:
        raise _Failure(3, str(exc))
    if args.stdout:
        print(text, end="")
        return 0
    if not args.out:
        raise _Failure(1, "codegen needs an output file (or --stdout)")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(1, f"cannot write {args.out}: {exc.strerror or exc}")
    return 0


def cmd_bench(args) -> int:
    results = bench_mod.run(args.case, args.iterations, args.seed,
                            with_codegen=not args.no_codegen)
    if args.csv:
        print(bench_mod.to_csv(results), end="")
    else:
        print(bench_mod.format_table(results))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzkit",
        description="Fuzzy inference toolkit: evaluate, convert, plot, "
                    "generate code, and benchmark fuzzy systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a model at given inputs")
    p.add_argument("model", help="model file (.fzl, .fcl or .fis)")
    p.add_argument("inputs", nargs="*", help="input assignments, name=value")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON object instead of plain text")
    p.add_argument("--firing", action="store_true",
                   help="also print each rule's activation ([lower, upper] "
                        "for interval type-2 models)")
    p.add_argument("--pipeline", choices=["eq1"],
                   help="use the two-group competitive readout instead of "
                        "the standard pipeline (rules split into halves)")
    p.add_argument("--gray-levels", type=int, default=256,
                   help="output scale for the eq1 pipeline (default 256)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("convert", help="rewrite any supported model as DSL text")
    p.add_argument("model")
    p.add_argument("out", help="output path (.fzl)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("plot", help="render a model's variables and rules")
    p.add_argument("model")
    p.add_argument("out", nargs="?", help="output SVG path")
    p.add_argument("--ascii", action="store_true",
                   help="print character charts to standard output")
    p.add_argument("--width", type=int, default=80, help="ascii columns")
    p.add_argument("--height", type=int, default=20, help="ascii rows")
    p.add_argument("--samples", type=int, default=viz.DEFAULT_SAMPLES,
                   help="points per membership curve")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("codegen", help="emit a standalone function for a model")
    p.add_argument("model")
    p.add_argument("out", nargs="?", help="output .py path")
    p.add_argument("--stdout", action="store_true", help="print to standard output")
    p.add_argument("--name", help="name for the generated function")
    p.add_argument("--helpers", action="store_true",
                   help="factor membership functions into nested helpers")
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("bench", help="benchmark the bundled example systems")
    p.add_argument("case", nargs="?", default="all",
                   choices=[*sorted(bench_mod.CASES), "all"])
    p.add_argument("--iterations", type=int, default=bench_mod.DEFAULT_ITERATIONS,
                   help="minimum timed inferences per variant")
    p.add_argument("--seed", type=int, help="input-generation seed "
                                            "(falls back to FUZZKIT_SEED)")
    p.add_argument("--csv", action="store_true", help="CSV instead of a table")
    p.add_argument("--no-codegen", action="store_true",
                   help="skip the generated-code variants")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    # parse_known_args lets name=value assignments follow flag arguments
    # (argparse cannot match positionals split around optionals).
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        stray = [t for t in extra if t.startswith("-") or "=" not in t]
        if stray or not hasattr(args, "inputs"):
            print(f"fuzzkit: error: unrecognized arguments: {' '.join(extra)}",
                  file=sys.stderr)
            return 2
        args.inputs.extend(extra)
    try:
        return args.fn(args)
    except _Failure as exc:
        print(f"fuzzkit: error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"fuzzkit: error: {exc}", file=sys.stderr)
        return 1
    except MissingInputError as exc:
        print(f"fuzzkit: error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, CodegenError) as exc:
        print(f"fuzzkit: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
