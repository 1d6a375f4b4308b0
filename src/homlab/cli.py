"""Command-line surface.

Subcommands: count, analyze, classify, distinguish, reduce, gadget, verify-paper.
All output is deterministic (JSON keys sorted, counts as decimal strings).
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 usage,
mode/kind mismatch or a malformed HOMLAB_MAX_WORK, 4 precondition violation
or out of memory, 5 internal invariant violated, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import exactcmp
from .bicliques import analyze
from .classifier import DEFAULT_GAMMA_BOUND, STAGE_REFUSED, classify, reduce_col_to_fixcol
from .counting import (
    WORK_BUDGET_ENV,
    WorkBudgetExceeded,
    count_bis,
    count_col,
    count_fixcol,
    count_inj_fixcol,
)
from .distinguisher import TargetsIsomorphic, build_selector
from .gadgets import (
    GadgetParams,
    build_bis_gadget,
    build_col_gadget,
    build_kab_gamma_gadget,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
)
from .graphs import Graph, ParseError, TwoColouredGraph, parse_bigraph, parse_graph, work_budget
from .structure import InvariantViolation, PreconditionError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_PRECONDITION = 4
EXIT_INVARIANT = 5
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _header_word(text: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line.split()[0]
    return ""


def _load(path: str, plain: bool = False) -> Graph | TwoColouredGraph:
    """Parse a bigraph file, or a plain graph file when `plain` is set.

    The header is read leniently to name a file of the other kind; the
    parser decodes strictly, so a byte that is not UTF-8 is a parse error.
    """
    data = _read(path)
    kind, other = ("plain graph", "bigraph") if plain else ("bigraph", "plain graph")
    if _header_word(data.decode("utf-8", "replace")) == ("bigraph" if plain else "graph"):
        raise _CliError(EXIT_USAGE, f"{path} is a {other}, a {kind} is needed")
    try:
        return parse_graph(data) if plain else parse_bigraph(data)
    except ParseError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_or_empty(path: str | None) -> TwoColouredGraph:
    """The bigraph in an optional file argument; the empty bigraph when it is absent."""
    return TwoColouredGraph(0, 0, []) if path is None else _load(path)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


# The dispatch tables hold the functions themselves: patching homlab.cli.count_col
# or homlab.cli.build_* does not reach them.  count_bis stays a direct call.
_COUNTERS = {"col": count_col, "fixcol": count_fixcol, "inj": count_inj_fixcol}


def _cmd_count(args) -> int:
    if args.mode == "bis":
        if args.target is not None:
            raise _CliError(EXIT_USAGE, "mode bis takes only --instance")
        print(count_bis(_load(args.instance)))
        return EXIT_OK
    if args.target is None:
        raise _CliError(EXIT_USAGE, f"mode {args.mode} needs --target")
    plain = args.mode == "col"
    print(_COUNTERS[args.mode](_load(args.target, plain), _load(args.instance, plain)))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _emit(analyze(_load(args.target), _load_or_empty(args.gamma_graph)).to_json_dict())
    return EXIT_OK


def _cmd_classify(args) -> int:
    h = _load(args.target)
    try:
        report = classify(h, bound=args.bound)
    except PreconditionError as exc:
        _emit({"stage": STAGE_REFUSED, "reason": str(exc)})
        return EXIT_PRECONDITION
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_distinguish(args) -> int:
    targets = [_load(p) for p in args.target]
    if len(targets) < 2:
        raise _CliError(EXIT_USAGE, "need at least two --target files")
    result = build_selector(targets)
    _emit(
        {
            "j": result.j.to_text(),
            "counts": [str(c) for c in result.counts],
            "winner": result.winner,
        }
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    h = _load(args.target, plain=True)
    _emit(reduce_col_to_fixcol(h).to_json_dict())
    return EXIT_OK


# the options each gadget kind never reads; they default to None, so a given one shows
_GADGET_UNREAD = {
    "kab": ("--size-a", "--size-b"),
    "bis": ("--j", "--copies-j", "--size-a", "--size-b"),
    "col": ("--gamma-graph", "--copies-gamma", "-a", "-b"),
}
_GADGET_DEFAULTS = {"a": 1, "b": 1, "copies_gamma": 0, "copies_j": 0, "size_a": 0, "size_b": 0}
# kind -> (builder, phase decomposer, the arguments both take after the instance);
# like _COUNTERS it holds the functions themselves
_GADGETS = {
    "kab": (build_kab_gamma_gadget, phase_decompose_kab, lambda args, gamma_graph, j: (
        gamma_graph, j, GadgetParams(args.a, args.b, args.copies_gamma, args.copies_j))),
    "bis": (build_bis_gadget, phase_decompose_bis, lambda args, gamma_graph, j: (
        gamma_graph, GadgetParams(args.a, args.b, args.copies_gamma))),
    "col": (build_col_gadget, phase_decompose_col, lambda args, gamma_graph, j: (
        j, args.size_a, args.size_b, args.copies_j)),
}


def _cmd_gadget(args) -> int:
    unread = [f for f in _GADGET_UNREAD[args.kind]
              if getattr(args, f.lstrip("-").replace("-", "_")) is not None]
    if unread:
        raise _CliError(EXIT_USAGE, f"gadget --kind {args.kind} does not read {', '.join(unread)}")
    vars(args).update({k: v for k, v in _GADGET_DEFAULTS.items() if getattr(args, k) is None})
    # an unread file option is None here, and loads as the empty bigraph
    h = _load(args.target, plain=args.kind == "col")
    g_prime = _load(args.gprime)
    gamma_graph = _load_or_empty(args.gamma_graph)
    j = _load_or_empty(args.j)
    build, decompose, operands = _GADGETS[args.kind]
    rest = operands(args, gamma_graph, j)
    if args.build_only:
        print(build(g_prime, *rest).to_text(), end="")
    else:
        _emit(decompose(h, g_prime, *rest).to_json_dict())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(
            f"{mark} {r.name:<{width}} [{r.source}] {r.seconds:7.2f}s  "
            f"expected: {r.expected}  actual: {r.actual}"
        )
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is the parse-error code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homlab",
        description="Exact homomorphism counting and biclique dominance analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact homomorphism counts")
    p.add_argument("--target", help="target graph file")
    p.add_argument("--instance", required=True, help="instance graph file")
    p.add_argument("--mode", required=True, choices=[*_COUNTERS, "bis"])
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("analyze", help="biclique dominance analysis")
    p.add_argument("--target", required=True)
    p.add_argument("--gamma-graph", default=None, help="decoration bigraph file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="dominance stage classification")
    p.add_argument("--target", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_GAMMA_BOUND, help="decoration side bound")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("distinguish", help="separating test graph for targets")
    p.add_argument("--target", action="append", required=True, help="repeatable")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("reduce", help="plain-graph reduction target selection")
    p.add_argument("--target", required=True, help="plain graph file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget", help="build a gadget and decompose its phases")
    p.add_argument("--kind", required=True, choices=list(_GADGETS))
    p.add_argument("--target", required=True)
    p.add_argument("--gprime", required=True, help="instance bigraph file")
    p.add_argument("--gamma-graph", dest="gamma_graph", default=None)
    p.add_argument("--j", default=None, help="selector bigraph file")
    p.add_argument("-a", type=int, help="block size (kab, bis; default 1)")
    p.add_argument("-b", type=int, help="block size (kab, bis; default 1)")
    p.add_argument("--copies-gamma", type=int, help="decoration copies (kab, bis; default 0)")
    p.add_argument("--copies-j", type=int, help="selector copies (kab, col; default 0)")
    p.add_argument("--size-a", type=int, help="pin block size (col; default 0)")
    p.add_argument("--size-b", type=int, help="pin block size (col; default 0)")
    p.add_argument("--build-only", action="store_true", help="emit the gadget, skip phases")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("verify-paper", help="run the bundled verification suite")
    p.add_argument("--filter", default=None, help="run only matching check groups")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error through _Parser.error
        return exc.code
    try:
        budget = work_budget()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, TargetsIsomorphic, WorkBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except exactcmp.ComparisonUncertain as exc:
        print(f"error: comparison uncertain: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError:
        hint = ""
        if WORK_BUDGET_ENV in os.environ:  # only a budget that was set can be blamed
            hint = f" (lower {WORK_BUDGET_ENV}, set to {budget})"
        print(f"error: out of memory{hint}", file=sys.stderr)
        return EXIT_PRECONDITION
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
