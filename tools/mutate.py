"""Comparison-swap mutation run over one module of homlab.

Each comparison operator in the module is swapped on its own (``<`` with
``<=``, ``>`` with ``>=``, ``==`` with ``!=``), and the given test files
run against each mutant.  A mutant the tests fail on, or that runs past the
per-mutant timeout, is killed; one they pass on survives.  The mutants are
made in a copy of the repository in a temporary directory, so the working
tree is never written.  Standard library only.

Run from the repository root:

    python tools/mutate.py src/homlab/classifier.py \\
        --tests tests/test_classifier.py tests/test_classify_table.py \\
        --out survivors-classifier.json

``--tests`` defaults to ``tests/test_<module>.py``.  The per-mutant timeout
is four times the unmutated run, and at least 30 s.  The JSON lists every
survivor with its line, enclosing function and the swap.  Exits 1 when the
unmutated tests fail or homlab is not imported from the copy, else 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

SWAPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def mutation_sites(source: str) -> list[dict]:
    """Every swappable comparison operator: its byte span in ``source``, the swap and its place."""
    data = source.encode("utf-8")
    line_start = [0]
    for line in data.splitlines(keepends=True):
        line_start.append(line_start[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        return line_start[lineno - 1] + col

    tree = ast.parse(source)
    # ast.walk is breadth-first, so an inner scope overwrites its outer one
    scopes: dict[ast.AST, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for child in ast.walk(node):
                if child is not node:
                    scopes[child] = node.name

    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for k, op in enumerate(node.ops):
            if type(op) not in SWAPS:
                continue
            lo = offset(operands[k].end_lineno, operands[k].end_col_offset)
            hi = offset(operands[k + 1].lineno, operands[k + 1].col_offset)
            gap = data[lo:hi].decode("utf-8")
            # the gap between two operands holds the operator, parentheses,
            # whitespace and perhaps a comment: the first match outside a comment
            for m in re.finditer(re.escape(SYMBOL[type(op)]), gap):
                if "#" not in gap[gap.rfind("\n", 0, m.start()) + 1:m.start()]:
                    break
            else:
                raise ValueError(f"no {SYMBOL[type(op)]!r} between operands at line {node.lineno}")
            start = lo + len(gap[:m.start()].encode("utf-8"))
            sites.append({
                "line": operands[k].end_lineno,
                "function": scopes.get(node, "<module>"),
                "from": SYMBOL[type(op)],
                "to": SWAPS[type(op)],
                "span": (start, start + len(SYMBOL[type(op)])),
            })
    return sorted(sites, key=lambda s: s["span"])


def copy_env(root: str) -> dict:
    # no bytecode: a swap of equal length may land within the same mtime second
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")


def run_tests(root: str, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """``passed``, ``failed`` or ``timeout`` for one pytest run in ``root``, and its seconds."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=copy_env(root), capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - t0
    return ("passed" if proc.returncode == 0 else "failed"), time.monotonic() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module to mutate, under src/")
    parser.add_argument("--tests", nargs="+", help="test files (default tests/test_<module>.py)")
    parser.add_argument("--out", default="survivors.json", help="where to write the survivors JSON")
    args = parser.parse_args(argv)

    repo = os.getcwd()
    module = os.path.relpath(os.path.abspath(args.module), repo)
    stem = os.path.splitext(os.path.basename(module))[0]
    tests = args.tests or [os.path.join("tests", f"test_{stem}.py")]
    with open(module, encoding="utf-8") as fh:
        source = fh.read()
    sites = mutation_sites(source)
    data = source.encode("utf-8")

    with tempfile.TemporaryDirectory(prefix="homlab-mutate-") as tmp:
        # the tests also read files beside src/ (perfbench references, demos)
        root = os.path.join(tmp, "repo")
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        # an installed homlab that shadows the copy would let every mutant survive
        where = subprocess.run(
            [sys.executable, "-c", "import homlab; print(homlab.__file__)"],
            cwd=root, env=copy_env(root), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(root + os.sep):
            print(f"homlab imports from {where!r}, not from the copy", file=sys.stderr)
            return 1
        status, base_s = run_tests(root, tests, timeout=None)
        if status != "passed":
            print(f"the unmutated tests do not pass: {status}", file=sys.stderr)
            return 1
        timeout = max(30.0, 4 * base_s)
        print(f"{module}: {len(sites)} mutants, tests {' '.join(tests)}, "
              f"unmutated run {base_s:.1f} s, timeout {timeout:.0f} s", flush=True)
        target = os.path.join(root, module)
        survivors = []
        for site in sites:
            a, b = site["span"]
            with open(target, "wb") as fh:
                fh.write(data[:a] + site["to"].encode() + data[b:])
            status, secs = run_tests(root, tests, timeout)
            where = f"line {site['line']} {site['function']}: {site['from']} -> {site['to']}"
            print(f"  {status:<8}{secs:6.1f} s  {where}", flush=True)
            if status == "passed":
                survivors.append({k: site[k] for k in ("line", "function", "from", "to")})

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"module": module, "tests": tests, "mutants": len(sites),
                   "survivors": survivors}, fh, indent=1)
        fh.write("\n")
    print(f"{len(sites) - len(survivors)} of {len(sites)} killed; survivors in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
