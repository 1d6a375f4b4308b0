import contextlib
import io
import json
import os
import sys

import pytest

from homlab.bicliques import BICLIQUE_SIDE_GUARD
from homlab.cli import EXIT_PRECONDITION, main
from homlab.fixtures import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_bis(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--mode", "bis", "--instance", fixture_path("p4.bigraph")
    )
    assert code == 0 and out.strip() == "8"


def test_count_fixcol(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--mode",
        "fixcol",
        "--target",
        fixture_path("case1.bigraph"),
        "--instance",
        fixture_path("k11.bigraph"),
    )
    assert code == 0 and out.strip() == "27"


def test_count_col(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--mode",
        "col",
        "--target",
        fixture_path("h_is.graph"),
        "--instance",
        fixture_path("p3.graph"),
    )
    assert code == 0 and out.strip() == "5"


def test_count_mode_kind_mismatch(capsys):
    code, _, err = run_cli(
        capsys,
        "count",
        "--mode",
        "col",
        "--target",
        fixture_path("case1.bigraph"),
        "--instance",
        fixture_path("p3.graph"),
    )
    assert code == 3
    assert "plain graph is needed" in err


def test_count_bis_rejects_target(capsys):
    code, _, err = run_cli(
        capsys,
        "count",
        "--mode",
        "bis",
        "--target",
        fixture_path("p4.bigraph"),
        "--instance",
        fixture_path("p4.bigraph"),
    )
    assert code == 3


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph 3\n0 1\n0 1\n")
    code, _, err = run_cli(
        capsys, "count", "--mode", "col", "--target", str(bad),
        "--instance", fixture_path("p3.graph"),
    )
    assert code == 2
    assert "duplicate edge, line 3" in err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.bigraph"
    bad.write_bytes(b"bigraph 2 2\n0 0\n\xff 1\n")
    for argv in (
        ("analyze", "--target", str(bad)),
        ("classify", "--target", str(bad)),
        ("count", "--mode", "fixcol", "--target", str(bad),
         "--instance", fixture_path("k11.bigraph")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: {bad}: invalid UTF-8, line 3\n"


def test_analyze_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--target",
        fixture_path("case1.bigraph"),
        "--gamma-graph",
        fixture_path("k11.bigraph"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_tuple"] == [27, 9, 9, 1]
    assert payload["gamma_dominating"] == [[[0, 1, 2], [0, 1, 2]]]


def test_analyze_gamma_graph_none_is_a_file_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("analyze", "--target", fixture_path("case1.bigraph"), "--gamma-graph")
    code, out, err = run_cli(capsys, *argv, "none")
    assert code == 2
    assert out == ""
    assert "cannot read none" in err
    (tmp_path / "none").write_text("bigraph 1 1\n0 0\n")
    code, out, _ = run_cli(capsys, *argv, "none")
    assert code == 0
    assert out == run_cli(capsys, *argv, fixture_path("k11.bigraph"))[1]
    assert json.loads(out)["gamma_tuple"] == [27, 9, 9, 1]


@pytest.mark.parametrize("argv", [
    ("analyze", "--target", "p4.bigraph", "--gamma-graph", ""),
    ("gadget", "--kind", "kab", "--target", "p4.bigraph", "--gprime", "k11.bigraph",
     "-a", "1", "-b", "1", "--j", "", "--copies-j", "2", "--build-only"),
])
def test_empty_path_is_an_unreadable_file(capsys, argv):
    argv = [fixture_path(a) if a.endswith(".bigraph") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read : ")


def test_analyze_precondition_exit(tmp_path, capsys):
    k22 = tmp_path / "k22.bigraph"
    k22.write_text("bigraph 2 2\n0 0\n0 1\n1 0\n1 1\n")
    code, _, err = run_cli(capsys, "analyze", "--target", str(k22))
    assert code == 4
    assert "trivial" in err


def test_classify_stages(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--target", fixture_path("case1.bigraph"), "--bound", "1"
    )
    assert code == 0
    assert json.loads(out)["stage"] == "CaseI"
    code, out, _ = run_cli(
        capsys, "classify", "--target", fixture_path("case3.bigraph"), "--bound", "1"
    )
    assert json.loads(out)["stage"] == "CaseIII"
    code, out, _ = run_cli(
        capsys, "classify", "--target", fixture_path("coexistence.bigraph")
    )
    payload = json.loads(out)
    assert payload["stage"] == "CaseII_Conjectured"
    assert payload["witnesses"]["exponent"] == "1/2"


def test_classify_refusal_report(tmp_path, capsys):
    k22 = tmp_path / "k22.bigraph"
    k22.write_text("bigraph 2 2\n0 0\n0 1\n1 0\n1 1\n")
    code, out, _ = run_cli(capsys, "classify", "--target", str(k22))
    assert code == 4
    assert json.loads(out)["stage"] == "Refused"


def test_classify_refuses_past_the_biclique_side_guard(tmp_path, capsys):
    wide = tmp_path / "wide.bigraph"
    side = BICLIQUE_SIDE_GUARD + 1
    wide.write_text(
        f"bigraph {side} 2\n0 1\n" + "".join(f"{i} 0\n" for i in range(side))
    )
    code, out, _ = run_cli(capsys, "classify", "--target", str(wide), "--bound", "1")
    assert code == EXIT_PRECONDITION
    assert json.loads(out) == {
        "reason": f"biclique enumeration limited to {BICLIQUE_SIDE_GUARD} vertices per side",
        "stage": "Refused",
    }


def test_distinguish(capsys):
    code, out, _ = run_cli(
        capsys,
        "distinguish",
        "--target",
        fixture_path("p4.bigraph"),
        "--target",
        fixture_path("k11.bigraph"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["winner"] in (0, 1)
    counts = [int(c) for c in payload["counts"]]
    assert counts[payload["winner"]] == max(counts)


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--target", fixture_path("toy.graph"))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_star_size"] == 20
    assert payload["class_count"] == 1


def test_gadget_kab(capsys):
    code, out, _ = run_cli(
        capsys,
        "gadget",
        "--kind",
        "kab",
        "--target",
        fixture_path("p4.bigraph"),
        "--gprime",
        fixture_path("k11.bigraph"),
        "-a",
        "1",
        "-b",
        "1",
    )
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_gadget_kab_target_without_full_left_vertex(tmp_path):
    # the maximal phase of this target does not reach the isolated right
    # vertex; the run must be exact with and without python -O
    import os
    import subprocess
    import sys

    import homlab

    target = tmp_path / "t.bigraph"
    target.write_text("bigraph 1 2\n0 0\n")
    expected = {
        "exact": True,
        "phases": [{"actual": "1", "key": [[0], [0]], "predicted": "1"}],
        "total": "1",
        "total_independent_route": "1",
    }
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "homlab.cli", "gadget", "--kind", "kab",
             "--target", str(target), "--gprime", fixture_path("k11.bigraph"),
             "-a", "1", "-b", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_gadget_kab_past_26_vertices(tmp_path):
    # a K(12,12) instance makes a 26-vertex gadget: exact at the default budget,
    # refused in table entries (exit 4, no traceback) under a small one
    import os
    import subprocess
    import sys

    import homlab
    from homlab.graphs import TwoColouredGraph

    gprime = tmp_path / "k12.bigraph"
    gprime.write_text(TwoColouredGraph(12, 12, [(i, j) for i in range(12) for j in range(12)]).to_text())
    argv = [sys.executable, "-m", "homlab.cli", "gadget", "--kind", "kab",
            "--target", fixture_path("p4.bigraph"), "--gprime", str(gprime), "-a", "1", "-b", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(homlab.__file__)))
    env.pop("HOMLAB_MAX_WORK", None)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exact"] is True
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=dict(env, HOMLAB_MAX_WORK="1000"))
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "table entries" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("side, refusal", [
    # the build is cheap; the count's elimination order stops once its estimate passes the budget
    ("3000", "error: homomorphism count by elimination needs ~"),
    # an estimate past 4300 digits cannot go through str(); it prints as a power of ten
    ("6000", "error: homomorphism count by elimination needs ~10^"),
    # the builder charges its 100001 * 100001 adjacency cells before it allocates them
    ("100000", "error: kab gadget build needs ~10000200001 adjacency cells, budget is 1000000000 "),
])
def test_huge_kab_gadget_is_a_budget_refusal(side, refusal):
    import os
    import subprocess
    import sys

    import homlab

    argv = [sys.executable, "-m", "homlab.cli", "gadget", "--kind", "kab",
            "--target", fixture_path("case1.bigraph"), "--gprime", fixture_path("k11.bigraph"),
            "-a", side, "-b", side]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(homlab.__file__)))
    env.pop("HOMLAB_MAX_WORK", None)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == ""
    assert proc.stderr.startswith(refusal)
    assert "table entries" in proc.stderr or "adjacency cells" in proc.stderr
    assert "out of memory" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 200


def test_gadget_kab_at_the_n2_sizes(capsys, monkeypatch):
    # (4, 6) are params_from_scale's sizes for case1 and K(1,1) at n = 2; each
    # block side enters the elimination once, so the default budget suffices
    monkeypatch.delenv("HOMLAB_MAX_WORK", raising=False)
    code, out, err = run_cli(
        capsys, "gadget", "--kind", "kab", "--target", fixture_path("case1.bigraph"),
        "--gprime", fixture_path("k11.bigraph"), "-a", "4", "-b", "6",
    )
    assert code == 0, err
    assert json.loads(out)["exact"] is True


def test_gadget_col_build_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "gadget",
        "--kind",
        "col",
        "--target",
        fixture_path("h_is.graph"),
        "--gprime",
        fixture_path("k11.bigraph"),
        "--size-a",
        "1",
        "--size-b",
        "1",
        "--build-only",
    )
    assert code == 0
    assert out.startswith("graph ")


def test_gadget_col_negative_size_refused(capsys):
    code, out, err = run_cli(
        capsys,
        "gadget",
        "--kind",
        "col",
        "--target",
        fixture_path("h_is.graph"),
        "--gprime",
        fixture_path("k11.bigraph"),
        "--size-a",
        "-1",
    )
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_gadget_bis(capsys):
    code, out, _ = run_cli(
        capsys,
        "gadget",
        "--kind",
        "bis",
        "--target",
        fixture_path("p4.bigraph"),
        "--gprime",
        fixture_path("p3.bigraph"),
        "-a",
        "1",
        "-b",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["good_permissible_vectors"] == 5
    assert payload["exact"] is True


def _gadget_refusal(capsys, kind, target, *extra):
    code, out, err = run_cli(
        capsys, "gadget", "--kind", kind, "--target", fixture_path(target),
        "--gprime", fixture_path("k11.bigraph"), *extra,
    )
    assert code == 3
    assert out == ""
    return err


def test_gadget_kab_refuses_col_sizes(capsys):
    err = _gadget_refusal(capsys, "kab", "p4.bigraph", "--size-a", "1", "--size-b", "0")
    assert err == "error: gadget --kind kab does not read --size-a, --size-b\n"


def test_gadget_bis_refuses_selector_and_col_sizes(capsys):
    for flag, value in (("--j", "/nonexistent"), ("--copies-j", "0"),
                        ("--size-a", "1"), ("--size-b", "1")):
        err = _gadget_refusal(capsys, "bis", "p4.bigraph", flag, value)
        assert err == f"error: gadget --kind bis does not read {flag}\n"


def test_gadget_col_refuses_decoration_and_block_sizes(capsys):
    for flag, value in (("--gamma-graph", fixture_path("k11.bigraph")),
                        ("--copies-gamma", "1"), ("-a", "1"), ("-b", "1")):
        err = _gadget_refusal(capsys, "col", "h_is.graph", flag, value)
        assert err == f"error: gadget --kind col does not read {flag}\n"


def test_deterministic_output(capsys):
    args = [
        "analyze",
        "--target",
        fixture_path("coexistence.bigraph"),
        "--gamma-graph",
        fixture_path("k11.bigraph"),
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--filter", "surjections")
    assert code == 0
    assert "surjections/bracket" in out
    assert "checks passed" in out


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--filter", "nosuchcheck")
    assert code == 3


def test_verify_failure_exit_code(capsys, monkeypatch):
    from homlab import verify
    from homlab.verify import CheckResult

    def broken():
        return [
            CheckResult(
                name="broken/check", passed=False, expected="1", actual="2",
                source="oracle", seconds=0.0,
            )
        ]

    monkeypatch.setattr(verify, "CHECK_GROUPS", [("broken", broken)])
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    assert "FAIL broken/check" in out


def test_verify_names_crashing_group(capsys, monkeypatch):
    from homlab import verify

    def exploding():
        raise RuntimeError("fixture corrupted")

    monkeypatch.setattr(verify, "CHECK_GROUPS", [("exploding", exploding)])
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    assert "exploding/error" in out
    assert "fixture corrupted" in out


def test_usage_flags(capsys):
    code, _, err = run_cli(capsys, "--jobs", "0", "verify-paper", "--filter", "case1")
    assert code == 3
    code, _, err = run_cli(capsys, "--precision", "4", "verify-paper", "--filter", "case1")
    assert code == 3


def test_argparse_errors_exit_usage(capsys):
    # argparse's own exit code 2 is the graph-file parse error here
    for argv, message in (
        (["count"], "the following arguments are required"),
        (["--bogus", "verify-paper"], "unrecognized arguments: --bogus"),
        (["classify", "--target", fixture_path("case1.bigraph"), "--bound", "two"],
         "argument --bound: invalid int value"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("usage: homlab") and message in err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: homlab")


def test_classify_bound_below_one_refused(capsys):
    for bound in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "classify", "--target", fixture_path("coexistence.bigraph"),
            "--bound", bound,
        )
        assert code == EXIT_PRECONDITION
        assert json.loads(out) == {
            "reason": f"decoration bound must be at least 1, got {bound}",
            "stage": "Refused",
        }


def test_classify_enumeration_guard_exits_precondition():
    # the refusal comes from the class enumeration, before any class is built
    import os
    import subprocess
    import sys

    import homlab

    src = os.path.dirname(os.path.dirname(homlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "classify",
         "--target", fixture_path("coexistence.bigraph"), "--bound", "6"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {
        "reason": "refusing to enumerate 2^30 labelled graphs for split (5,6)",
        "stage": "Refused",
    }


def test_invariant_violation_exit(capsys, monkeypatch):
    from homlab import classifier
    from homlab.cli import EXIT_INVARIANT

    def broken(*args, **kwargs):
        raise classifier.InvariantViolation("case2-identity", "z_i^k1 = 49, ...")

    monkeypatch.setattr("homlab.cli.classify", broken)
    code, out, err = run_cli(
        capsys, "classify", "--target", fixture_path("coexistence.bigraph")
    )
    assert code == EXIT_INVARIANT == 5
    assert out == ""
    assert err == "error: internal invariant violated: case2-identity: z_i^k1 = 49, ...\n"


def test_comparison_uncertain_exit(capsys, monkeypatch):
    from homlab.exactcmp import ComparisonUncertain

    def uncertain(*args, **kwargs):
        raise ComparisonUncertain("form did not separate from zero at 1024 bits: ...")

    monkeypatch.setattr("homlab.cli.classify", uncertain)
    code, out, err = run_cli(
        capsys, "classify", "--target", fixture_path("coexistence.bigraph")
    )
    assert code == EXIT_PRECONDITION == 4
    assert out == ""
    assert err.startswith("error: comparison uncertain:")
    assert "Traceback" not in err


def _out_of_memory(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("homlab.cli.classify", exhausted)
    return run_cli(capsys, "classify", "--target", fixture_path("coexistence.bigraph"))


def test_out_of_memory_exit(capsys, monkeypatch):
    # an unset budget is not blamed
    monkeypatch.delenv("HOMLAB_MAX_WORK", raising=False)
    code, out, err = _out_of_memory(capsys, monkeypatch)
    assert code == EXIT_PRECONDITION == 4
    assert out == ""
    assert err == "error: out of memory\n"


def test_out_of_memory_exit_names_a_set_budget(capsys, monkeypatch):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "5000000000")
    code, out, err = _out_of_memory(capsys, monkeypatch)
    assert code == EXIT_PRECONDITION == 4
    assert out == ""
    assert err == "error: out of memory (lower HOMLAB_MAX_WORK, set to 5000000000)\n"


def test_keyboard_interrupt_exit(capsys, monkeypatch):
    from homlab.cli import EXIT_INTERRUPTED

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("homlab.cli.count_bis", interrupted)
    code, out, err = run_cli(
        capsys, "count", "--mode", "bis", "--instance", fixture_path("p4.bigraph")
    )
    assert code == EXIT_INTERRUPTED == 130
    assert out == ""
    assert err == "interrupted\n"


def test_malformed_work_budget_exits_usage():
    # the budget is read once, before the command runs
    import os
    import subprocess
    import sys

    import homlab
    from homlab.cli import EXIT_USAGE

    src = os.path.dirname(os.path.dirname(homlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "count", "--mode", "fixcol",
         "--target", fixture_path("p4.bigraph"), "--instance", fixture_path("k11.bigraph")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, HOMLAB_MAX_WORK="abc"),
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == "error: HOMLAB_MAX_WORK must be an integer, got 'abc'\n"
    assert "Traceback" not in proc.stderr


def test_classify_bound_defaults_to_the_classifier_constant(monkeypatch):
    from homlab import cli
    from homlab.classifier import DEFAULT_GAMMA_BOUND

    argv = ["classify", "--target", fixture_path("case1.bigraph")]
    assert cli.build_parser().parse_args(argv).bound == DEFAULT_GAMMA_BOUND
    monkeypatch.setattr(cli, "DEFAULT_GAMMA_BOUND", DEFAULT_GAMMA_BOUND + 2)
    assert cli.build_parser().parse_args(argv).bound == DEFAULT_GAMMA_BOUND + 2


# Every count mode and every gadget kind, each with a report, --build-only,
# unread options, negative sizes and copy counts, missing files (named apart,
# so the first one read shows) and files of the wrong kind: the argv, exit
# code, stdout and first stderr line of each.  Fixture paths are written
# DATA/<file>.  A change that alters them on purpose rewrites the file and says
# why in CHANGES.md; rewriting it:
#
#     PYTHONPATH=src python tests/test_cli.py > tests/data/cli_dispatch.json
DISPATCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_dispatch.json")


def _dispatch(argv):
    """The exit code, stdout and first stderr line of one in-process run."""
    data = os.path.join(fixture_path(""), "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("DATA/", data) for a in argv])
    first = next(iter(err.getvalue().splitlines()), "")
    return {"argv": argv, "code": code, "stdout": out.getvalue().replace(data, "DATA/"),
            "stderr_first": first.replace(data, "DATA/")}


with open(DISPATCH, encoding="utf-8") as _fh:
    _DISPATCH_CASES = json.load(_fh)


@pytest.mark.parametrize("case", _DISPATCH_CASES,
                         ids=[f"{c['argv'][0]}-{i}" for i, c in enumerate(_DISPATCH_CASES)])
def test_count_and_gadget_dispatch_is_pinned(case, monkeypatch):
    monkeypatch.delenv("HOMLAB_MAX_WORK", raising=False)
    assert _dispatch(case["argv"]) == case


def test_dispatch_pins_cover_every_mode_and_kind():
    from homlab import cli

    seen = {tuple(c["argv"][:3]) for c in _DISPATCH_CASES}
    assert {("count", "--mode", m) for m in [*cli._COUNTERS, "bis"]} <= seen
    for kind in cli._GADGETS:
        runs = [c for c in _DISPATCH_CASES if c["argv"][:3] == ["gadget", "--kind", kind]]
        assert any(c["code"] == 0 and "--build-only" in c["argv"] for c in runs)
        assert any(c["code"] == 0 and "--build-only" not in c["argv"] for c in runs)
        assert any("does not read" in c["stderr_first"] for c in runs)
        assert any(a.startswith("-") and a[1:].isdigit() for c in runs for a in c["argv"])
        assert any(c["stderr_first"].startswith("error: cannot read ") for c in runs)


if __name__ == "__main__":
    os.environ.pop("HOMLAB_MAX_WORK", None)
    rows = [json.dumps(_dispatch(c["argv"])) for c in _DISPATCH_CASES]
    sys.stdout.write("[\n " + ",\n ".join(rows) + "\n]\n")
