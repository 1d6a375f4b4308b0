"""Every named ``InvariantViolation`` check in the library is fired by some test.

The check names are read from the library's source by ``ast``: each
``InvariantViolation(name, detail)`` call names its check with a string
literal.  A test fires a check when it compares the raised ``check_name``
with that literal, or lists the literal as the expected name in a
``parametrize`` table, so those are the places the scan looks.
"""

import ast
import pathlib

import homlab

SRC = pathlib.Path(homlab.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _check_names() -> dict[str, str]:
    """Check name -> where the library raises it."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InvariantViolation":
                first = node.args[0]
                assert isinstance(first, ast.Constant), f"{path.name}:{node.lineno} names no check"
                names[first.value] = f"{path.name}:{node.lineno}"
    return names


def _expected_names() -> set[str]:
    """String literals inside comparisons and decorators of the other test files."""
    found = set()
    for path in TESTS.glob("test_*.py"):
        if path.name == pathlib.Path(__file__).name:
            continue
        tree = ast.parse(path.read_text())
        roots = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
        roots += [d for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) for d in n.decorator_list]
        for root in roots:
            found |= {
                n.value for n in ast.walk(root)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return found


def test_every_named_check_is_fired_by_a_test():
    names = _check_names()
    assert len(names) >= 22
    expected = _expected_names()
    unfired = {name: where for name, where in names.items() if name not in expected}
    assert not unfired, unfired
