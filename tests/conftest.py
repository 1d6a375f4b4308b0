"""Shared fixtures for the test suite."""

import os
import subprocess
import sys

import pytest

import homlab


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
