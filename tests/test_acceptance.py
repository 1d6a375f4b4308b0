"""Acceptance suite: one test per criterion, each with its time budget.

Every criterion re-runs the corresponding verification check group and
requires (a) every sub-check to pass exactly and (b) the group to finish
inside its stated wall-clock budget.  One summary line per criterion is
printed so a verbose run reads as a pass/fail table.
"""

import os
import subprocess
import sys
import time

import homlab
from homlab import verify


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


def test_verify_paper_under_optimize():
    # python -O strips bare asserts; no check may rest on them
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "homlab.cli", "verify-paper"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "59/59 checks passed"


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
