"""The mutation tool finds every comparison swap at the right place in the source."""

import glob
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutate", os.path.join(ROOT, "tools", "mutate.py"))
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def _swapped(source, site):
    data = source.encode("utf-8")
    a, b = site["span"]
    return (data[:a] + site["to"].encode() + data[b:]).decode("utf-8")


def test_sites_sit_on_their_operator_across_parens_comments_and_unicode():
    source = (
        "def f(x, y):\n"
        "    'γ <= δ'  # a < b\n"
        "    if (x + 1) < y <= 3:\n"
        "        return x == (y  # γ >= 0\n"
        "                     != 2)\n"
        "    return x is y or x in [y] or x > y\n"
    )
    sites = mutate.mutation_sites(source)
    assert [(s["line"], s["function"], s["from"], s["to"]) for s in sites] == [
        (3, "f", "<", "<="),
        (3, "f", "<=", "<"),
        (4, "f", "==", "!="),
        (4, "f", "!=", "=="),
        (6, "f", ">", ">="),
    ]
    assert "if (x + 1) <= y <= 3:" in _swapped(source, sites[0])
    assert "x != (y  # γ >= 0\n                     != 2)" in _swapped(source, sites[2])


def test_every_site_in_the_library_holds_its_operator():
    for path in glob.glob(os.path.join(ROOT, "src", "homlab", "*.py")):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        data = source.encode("utf-8")
        for site in mutate.mutation_sites(source):
            a, b = site["span"]
            assert data[a:b].decode() == site["from"], (path, site)
