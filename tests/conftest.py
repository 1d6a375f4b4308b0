"""Shared fixtures for the test suite."""

import os
import subprocess
import sys

import pytest

import homlab
from homlab import counting


@pytest.fixture(autouse=True)
def cold_counting_caches():
    """Every test starts with ``count_fixcol``'s memo, the elimination's order
    and table caches and the injective search's target halves empty, so its
    first count of a pair reaches the kernel whatever ran before (patched
    kernels, budgets)."""
    for cache in (counting._fixcol_memo, counting._cached_order, counting._fresh,
                  counting._inj_target):
        cache.cache_clear()


@pytest.fixture(scope="session")
def verify_paper_under_optimize():
    """One `python -O -m homlab.cli verify-paper` run, shared by every test that reads it.

    -O strips bare asserts, so no check may rest on them.
    """
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    return subprocess.run(
        [sys.executable, "-O", "-m", "homlab.cli", "verify-paper"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )


@pytest.fixture(scope="session")
def check_name_under_optimize():
    """Run ``call`` under python -O once ``patch`` is applied, and return the
    name of the ``InvariantViolation`` check it raises (empty if none).

    ``patch`` is a module-level function of a test module, taking a
    ``MonkeyPatch``; ``call`` is an expression that names that module ``t``.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(homlab.__file__))

    def run(patch, call):
        script = (
            f"import sys, pytest, {patch.__module__} as t\n"
            "from homlab.structure import InvariantViolation\n"
            "assert False, 'python -O strips this'\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            f"    t.{patch.__name__}(mp)\n"
            "    try:\n"
            f"        {call}\n"
            "    except InvariantViolation as exc:\n"
            "        print(exc.check_name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here])), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    return run
