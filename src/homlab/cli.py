"""Command-line surface.

Subcommands: count, analyze, classify, distinguish, gadget, verify-paper.
All output is deterministic (JSON keys sorted, counts as decimal strings).
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 usage or
mode/kind mismatch, 4 precondition violation, 5 internal invariant violated.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exactcmp
from .bicliques import analyze
from .classifier import STAGE_REFUSED, classify, reduce_col_to_fixcol
from .counting import (
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
from .graphs import Graph, ParseError, TwoColouredGraph, parse_bigraph, parse_graph
from .structure import InvariantViolation, PreconditionError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_PRECONDITION = 4
EXIT_INVARIANT = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _header_word(text: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line.split()[0]
    return ""


def _load_graph(path: str) -> Graph:
    text = _read(path)
    if _header_word(text) == "bigraph":
        raise _CliError(EXIT_USAGE, f"{path} is a bigraph, a plain graph is needed")
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_bigraph(path: str) -> TwoColouredGraph:
    text = _read(path)
    if _header_word(text) == "graph":
        raise _CliError(EXIT_USAGE, f"{path} is a plain graph, a bigraph is needed")
    try:
        return parse_bigraph(text)
    except ParseError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_count(args) -> int:
    if args.mode == "bis":
        if args.target is not None:
            raise _CliError(EXIT_USAGE, "mode bis takes only --instance")
        print(count_bis(_load_bigraph(args.instance)))
        return EXIT_OK
    if args.target is None:
        raise _CliError(EXIT_USAGE, f"mode {args.mode} needs --target")
    if args.mode == "col":
        print(count_col(_load_graph(args.target), _load_graph(args.instance)))
    elif args.mode == "fixcol":
        print(count_fixcol(_load_bigraph(args.target), _load_bigraph(args.instance)))
    elif args.mode == "inj":
        print(count_inj_fixcol(_load_bigraph(args.target), _load_bigraph(args.instance)))
    else:  # pragma: no cover - argparse restricts choices
        raise _CliError(EXIT_USAGE, f"unknown mode {args.mode}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    h = _load_bigraph(args.target)
    gamma_graph = None
    if args.gamma_graph and args.gamma_graph != "none":
        gamma_graph = _load_bigraph(args.gamma_graph)
    ctx = analyze(h, gamma_graph, start_bits=args.precision)
    _emit(ctx.to_json_dict())
    return EXIT_OK


def _cmd_classify(args) -> int:
    h = _load_bigraph(args.target)
    try:
        report = classify(h, bound=args.bound, start_bits=args.precision)
    except PreconditionError as exc:
        _emit({"stage": STAGE_REFUSED, "reason": str(exc)})
        return EXIT_PRECONDITION
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_distinguish(args) -> int:
    targets = [_load_bigraph(p) for p in args.target]
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
    h = _load_graph(args.target)
    _emit(reduce_col_to_fixcol(h).to_json_dict())
    return EXIT_OK


def _cmd_gadget(args) -> int:
    if args.kind == "kab":
        h = _load_bigraph(args.target)
        g_prime = _load_bigraph(args.gprime)
        gamma_graph = (
            _load_bigraph(args.gamma_graph) if args.gamma_graph else TwoColouredGraph(0, 0, [])
        )
        j = _load_bigraph(args.j) if args.j else TwoColouredGraph(0, 0, [])
        params = GadgetParams(
            a=args.a, b=args.b,
            copies_gamma=args.copies_gamma, copies_j=args.copies_j,
        )
        if args.build_only:
            print(build_kab_gamma_gadget(g_prime, gamma_graph, j, params).to_text(), end="")
            return EXIT_OK
        _emit(phase_decompose_kab(h, g_prime, gamma_graph, j, params).to_json_dict())
    elif args.kind == "bis":
        h = _load_bigraph(args.target)
        g_prime = _load_bigraph(args.gprime)
        gamma_graph = (
            _load_bigraph(args.gamma_graph) if args.gamma_graph else TwoColouredGraph(0, 0, [])
        )
        params = GadgetParams(a=args.a, b=args.b, copies_gamma=args.copies_gamma)
        if args.build_only:
            print(build_bis_gadget(g_prime, gamma_graph, params).to_text(), end="")
            return EXIT_OK
        _emit(phase_decompose_bis(h, g_prime, gamma_graph, params).to_json_dict())
    else:  # col
        h = _load_graph(args.target)
        g_prime = _load_bigraph(args.gprime)
        j = _load_bigraph(args.j) if args.j else TwoColouredGraph(0, 0, [])
        if args.build_only:
            print(
                build_col_gadget(g_prime, j, args.size_a, args.size_b, args.copies_j).to_text(),
                end="",
            )
            return EXIT_OK
        _emit(
            phase_decompose_col(
                h, g_prime, j, args.size_a, args.size_b, args.copies_j
            ).to_json_dict()
        )
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
    parser.add_argument(
        "--precision", type=int, default=exactcmp.DEFAULT_START_BITS,
        help="starting comparator precision in bits (default 128)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact homomorphism counts")
    p.add_argument("--target", help="target graph file")
    p.add_argument("--instance", required=True, help="instance graph file")
    p.add_argument("--mode", required=True, choices=["col", "fixcol", "inj", "bis"])
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("analyze", help="biclique dominance analysis")
    p.add_argument("--target", required=True)
    p.add_argument("--gamma-graph", default=None, help="decoration bigraph file or 'none'")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="dominance stage classification")
    p.add_argument("--target", required=True)
    p.add_argument("--bound", type=int, default=3, help="decoration side bound")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("distinguish", help="separating test graph for targets")
    p.add_argument("--target", action="append", required=True, help="repeatable")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("reduce", help="plain-graph reduction target selection")
    p.add_argument("--target", required=True, help="plain graph file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget", help="build a gadget and decompose its phases")
    p.add_argument("--kind", required=True, choices=["kab", "bis", "col"])
    p.add_argument("--target", required=True)
    p.add_argument("--gprime", required=True, help="instance bigraph file")
    p.add_argument("--gamma-graph", dest="gamma_graph", default=None)
    p.add_argument("--j", default=None, help="selector bigraph file")
    p.add_argument("-a", type=int, default=1)
    p.add_argument("-b", type=int, default=1)
    p.add_argument("--copies-gamma", type=int, default=0)
    p.add_argument("--copies-j", type=int, default=0)
    p.add_argument("--size-a", type=int, default=0, help="pin block size (col)")
    p.add_argument("--size-b", type=int, default=0, help="pin block size (col)")
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
    if args.precision < 8:
        print("precision must be at least 8 bits", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, TargetsIsomorphic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except WorkBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except exactcmp.ComparisonUncertain as exc:
        print(f"error: comparison uncertain: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
