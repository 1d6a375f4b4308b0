"""Pin the verify-paper table: every row except its seconds column.

`data/verify_paper_table.json` holds, for each of the 59 checks, its name,
PASS/FAIL, source, expected and actual strings.  A change that alters any of
them on purpose rewrites the file and says why in CHANGES.md.
"""

import json
import os
import subprocess
import sys

import homlab
from homlab.verify import run_all

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                     "verify_paper_table.json")

DUMP = """
import json, sys
from homlab.verify import run_all
json.dump([[r.name, r.passed, r.source, r.expected, r.actual] for r in run_all()], sys.stdout)
"""


def _pinned():
    with open(TABLE, encoding="utf-8") as fh:
        return [
            [row["name"], row["status"] == "PASS", row["source"], row["expected"], row["actual"]]
            for row in json.load(fh)
        ]


def test_verify_table_matches_pin():
    rows = [[r.name, r.passed, r.source, r.expected, r.actual] for r in run_all()]
    assert len(rows) == 59
    assert rows == _pinned()


def test_verify_table_matches_pin_under_optimize():
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DUMP],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _pinned()
