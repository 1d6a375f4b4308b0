"""Every narrative script in demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import homlab

SRC = pathlib.Path(homlab.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would parametrize no run at all
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
