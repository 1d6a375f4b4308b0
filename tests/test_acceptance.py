"""Acceptance suite: one test per criterion, each with its time budget.

Every criterion re-runs the corresponding verification check group and
requires (a) every sub-check to pass exactly and (b) the group to finish
inside its stated wall-clock budget.  One summary line per criterion is
printed so a verbose run reads as a pass/fail table.
"""

import ast
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import homlab
from homlab import verify
from homlab.fixtures import fixture_bigraph


def _run_group(name: str, budget_seconds: float):
    fn = dict(verify.CHECK_GROUPS)[name]
    started = time.perf_counter()
    results = fn()
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in results)
    status = "PASS" if ok and elapsed < budget_seconds else "FAIL"
    print(
        f"{status} criterion[{name}] {len(results)} checks "
        f"in {elapsed:.2f}s (budget {budget_seconds:.0f}s)"
    )
    for r in results:
        assert r.passed, f"{r.name}: expected {r.expected}, got {r.actual}"
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s"
    return results


def test_criterion_01_case1_reproduction():
    results = _run_group("case1", 5.0)
    names = {r.name for r in results}
    assert {"case1/counts", "case1/gamma", "case1/gamma-dominating",
            "case1/strict-order"} <= names


def test_criterion_02_case3_reproduction():
    results = _run_group("case3", 5.0)
    names = {r.name for r in results}
    assert {"case3/counts", "case3/gamma-definition", "case3/gamma-dominating",
            "case3/strict-order"} <= names


def test_criterion_03_coexistence_dominating_sets():
    _run_group("coexistence", 2.0)


def test_criterion_04_squared_identity_and_tensor_isos():
    _run_group("tensor", 60.0)


def test_criterion_05_contraction_identity():
    _run_group("contraction", 60.0)


def test_criterion_06_separator_coverage():
    _run_group("separator", 120.0)


def test_criterion_07_selector_constructions():
    _run_group("selector", 120.0)


def test_criterion_08_kab_phase_identities():
    results = _run_group("phases-kab", 180.0)
    assert len(results) >= 5
    names = {r.name for r in results}
    assert any("gamma" in n for n in names)  # one config with a decoration copy
    assert any("-j" in n for n in names)  # one config with a selector copy


def test_criterion_09_bis_phase_correspondence():
    _run_group("phases-bis", 120.0)


def test_criterion_10_col_phase_identities():
    _run_group("phases-col", 120.0)


def test_criterion_11_dirichlet_bounds():
    _run_group("dirichlet", 30.0)


def test_criterion_12_surjection_bracket():
    _run_group("surjections", 5.0)


def test_criterion_13_power_bound_grid():
    _run_group("power-bound", 10.0)


def test_criterion_14_approximation_brackets():
    results = _run_group("bracket", 120.0)
    names = {r.name for r in results}
    assert "bracket/monotone-separation" in names


def test_criterion_15_oracle_equivalence():
    _run_group("oracle", 300.0)


def test_verify_paper_under_optimize(verify_paper_under_optimize):
    # python -O strips bare asserts; no check may rest on them
    proc = verify_paper_under_optimize
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "59/59 checks passed"


def test_library_has_no_bare_assert():
    # python -O strips assert statements; a library check raises a named error instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(homlab.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_classify_each_stage_under_optimize(tmp_path, capsys):
    # one target per reachable stage; -O must not change a byte of the JSON
    import json

    from homlab.cli import main
    from homlab.fixtures import fixture_path

    ref = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "reference.json")
    with open(ref, encoding="utf-8") as fh:
        pool = json.load(fh)["census"]["pool"]
    runs = [
        ("BaseCaseP4", fixture_path("p4.bigraph"), "3"),
        ("CaseI", fixture_path("case1.bigraph"), "2"),
        ("CaseIII", fixture_path("case3.bigraph"), "1"),
        ("CaseII_Conjectured", fixture_path("coexistence.bigraph"), "3"),
    ]
    for stage in ("ExtremalOnly", "ExtremalAbsent"):
        target = next(t["target"] for t in pool if t["stage"] == stage)
        path = tmp_path / f"{stage}.bigraph"
        path.write_text(target)
        runs.append((stage, str(path), "2"))
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    for stage, path, bound in runs:
        argv = ["classify", "--target", path, "--bound", bound]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert json.loads(plain)["stage"] == stage
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "homlab.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == plain, stage


# The checks' own bounds: each check flags exactly the answers past its bound,
# shown on answers the check is fed through a patched library function.

def _named(results, name):
    return next(r for r in results if r.name == name)


def test_dirichlet_check_accepts_answers_on_its_bound(monkeypatch):
    import itertools
    import types

    class ScriptedRandom:
        """Every trial draws d = 1, N = 2 and alpha = 1/2."""

        def __init__(self, seed):
            self.fraction_parts = itertools.cycle([1, 2])

        def choice(self, seq):
            return 1

        def randint(self, lo, hi):
            return next(self.fraction_parts) if hi == 10**6 else 2

        def random(self):
            return 0.0

    # (q, [p]) for alpha = 1/2, N = 2: q = N and |q alpha - p| N = 1 lie on the
    # bound; q > N, p < 1 and |q alpha - p| N = 3 lie past it
    answers = itertools.cycle([(2, [1]), (1, [1]), (3, [1]), (1, [0]), (1, [2])])
    seen = []

    def answer(alphas, big_n):
        seen.append((alphas, big_n))
        return next(answers)

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=ScriptedRandom))
    monkeypatch.setattr(verify, "dirichlet", answer)
    result = _named(verify.check_dirichlet(), "dirichlet/seeded")
    assert seen == [([Fraction(1, 2)], 2)] * 50
    assert result.actual == "30 bound violations over 50 trials"


def test_dirichlet_check_reaches_large_n_in_one_dimension(monkeypatch):
    calls = []
    real = verify.dirichlet

    def spy(alphas, big_n):
        calls.append((len(alphas), big_n))
        return real(alphas, big_n)

    monkeypatch.setattr(verify, "dirichlet", spy)
    assert _named(verify.check_dirichlet(), "dirichlet/seeded").passed
    assert max(n for d, n in calls if d == 1) > 2000
    assert max(n for d, n in calls if d > 1) <= 2000


def test_surjection_check_is_inclusive_at_the_lower_bound(monkeypatch):
    real = verify.surjection_count
    on_bound = []

    def lower_bound_where_integral(n, k):
        if (n - 2 * k) * k**n % n == 0:
            on_bound.append((n, k))
            return (n - 2 * k) * k**n // n
        return real(n, k)

    monkeypatch.setattr(verify, "surjection_count", lower_bound_where_integral)
    result = _named(verify.check_surjection_bracket(), "surjections/bracket")
    assert (8, 2) in on_bound
    assert result.passed, result.actual


@pytest.mark.parametrize("case1_ratios", [(1, 1, 2), (1, 2, 2)])
def test_bracket_separation_is_strict(monkeypatch, case1_ratios):
    import dataclasses

    real = verify.approx_bracket_report
    ratio = dict(zip((4, 6, 8), map(Fraction, case1_ratios)))

    def flattened(h, gamma_graph, n):
        rep = real(h, gamma_graph, n)
        if h == fixture_bigraph("case1"):
            rep = dataclasses.replace(rep, dominant_ratio=ratio[n])
        return rep

    monkeypatch.setattr(verify, "approx_bracket_report", flattened)
    result = _named(verify.check_brackets(), "bracket/monotone-separation")
    assert (result.passed, result.actual) == (False, "False")


def test_selector_check_samples_single_vertex_targets(monkeypatch):
    import random
    import types

    populations = []

    class SpyRandom(random.Random):
        def sample(self, population, k):
            populations.append(population)
            return super().sample(population, k)

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=SpyRandom))
    assert all(r.passed for r in verify.check_selector())
    assert populations and all(min(g.total for g in p) == 1 for p in populations)
