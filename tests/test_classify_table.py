"""Pin the stage search: `classify` and `reduce_col_to_fixcol` JSON on fixed inputs.

`data/classify_table.json` holds, in order:

* ``side_bounded_4``: the ``classify`` report of every full, non-trivial
  class of ``canonical_side_bounded(4)`` at bounds 1 and 2;
* ``fixtures``: the same for the case1, case3, coexistence and p4 worked
  examples at bounds 1 to 3;
* ``reduce``: ``reduce_col_to_fixcol(...).to_json_dict()`` for toy, h_is
  and triangle.

A change that alters any of them on purpose rewrites the file and says why
in CHANGES.md.  Rewriting it:

    PYTHONPATH=src python tests/test_classify_table.py > tests/data/classify_table.json
"""

import json
import os

from homlab.classifier import classify, reduce_col_to_fixcol
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.graphs import canonical_side_bounded
from homlab.structure import fullness

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                     "classify_table.json")


def _report(h, bound):
    return {"target": h.to_text(), "bound": bound, "report": classify(h, bound).to_json_dict()}


def _table():
    targets = [
        h for h in canonical_side_bounded(4)
        if fullness(h).is_full and not fullness(h).is_trivial
    ]
    return {
        "side_bounded_4": [_report(h, bound) for h in targets for bound in (1, 2)],
        "fixtures": [
            dict(_report(fixture_bigraph(name), bound), name=name)
            for name in ("case1", "case3", "coexistence", "p4")
            for bound in (1, 2, 3)
        ],
        "reduce": [
            {"name": name, "reduction": reduce_col_to_fixcol(fixture_graph(name)).to_json_dict()}
            for name in ("toy", "h_is", "triangle")
        ],
    }


def _dumps(table):
    """One entry a line, keys in the order the code emits them."""
    return "{\n" + ",\n".join(
        f"{json.dumps(part)}: [\n" + ",\n".join(map(json.dumps, entries)) + "\n]"
        for part, entries in table.items()
    ) + "\n}\n"


def test_classify_table_matches_pin():
    table = _table()
    assert len(table["side_bounded_4"]) == 152
    assert len(table["fixtures"]) == 12
    with open(TABLE, encoding="utf-8") as fh:
        assert _dumps(table) == fh.read()


if __name__ == "__main__":
    print(_dumps(_table()), end="")
