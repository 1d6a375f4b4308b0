import json

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
    assert json.loads(out)["stage"] == "RefusedTrivialComponent"


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
        "stage": "RefusedTrivialComponent",
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
            "stage": "RefusedTrivialComponent",
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
        "stage": "RefusedTrivialComponent",
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
