"""Pin the verify-paper table: every row except its seconds column.

`data/verify_paper_table.json` holds, for each of the 59 checks, its name,
PASS/FAIL, source, expected and actual strings.  A change that alters any of
them on purpose rewrites the file and says why in CHANGES.md.
"""

import json
import os
import re

from homlab.verify import run_all

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                     "verify_paper_table.json")

# the seconds column of a `verify-paper` line, between its source and "expected:"
SECONDS = re.compile(r"\] +\d+\.\d\ds  ")


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


def test_verify_table_matches_pin_under_optimize(verify_paper_under_optimize):
    # the table printed by the shared python -O run must still match the pin
    proc = verify_paper_under_optimize
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "59/59 checks passed"
    pinned = _pinned()
    width = max(len(row[0]) for row in pinned)
    assert [SECONDS.sub("] ", line, count=1) for line in lines[:-1]] == [
        f"{'PASS' if passed else 'FAIL'} {name:<{width}} [{source}] "
        f"expected: {expected}  actual: {actual}"
        for name, passed, source, expected, actual in pinned
    ]
