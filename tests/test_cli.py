"""Command line interface: outputs, exit codes, determinism."""

import json

import pytest

from posetlab import cli
from posetlab.cli import main

THETA = "2;0-1,0-1,0-1"
DUMBBELL = "2;0-0,0-1,1-1"


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraphs:
    def test_plain_listing(self, capsys):
        code, out, _ = run_main(["graphs", "--rank", "2"], capsys)
        assert code == 0
        assert out.splitlines() == ["1;0-0,0-0", "2;0-0,0-1,1-1", "2;0-1,0-1,0-1"]

    def test_json_listing(self, capsys):
        code, out, _ = run_main(["graphs", "--rank", "3", "--json"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["count"] == 15
        assert len(obj["with_separating_edge"]) == 7


class TestPosetAndHomology:
    def test_poset_summary(self, capsys):
        code, out, _ = run_main(["poset", "--graph", THETA, "--kind", "x"], capsys)
        assert code == 0 and "elements=3" in out

    def test_poset_dot(self, capsys):
        code, out, _ = run_main(["poset", "--graph", THETA, "--kind", "c", "--dot"], capsys)
        assert code == 0
        assert out.startswith("digraph") and out.count("n0") >= 1

    def test_homology_of_x(self, capsys):
        code, out, _ = run_main(
            ["homology", "--graph", THETA, "--kind", "x", "--json"], capsys
        )
        obj = json.loads(out)
        assert code == 0
        # X(theta): wedge of two circles in degree... rank-2 means degree 0
        assert obj["homology"]["betti"] == [0, 2]

    def test_matrix_snf(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n0 0 2\n1 1 3\n")
        code, out, _ = run_main(["homology", "--matrix", str(path), "--json"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["invariant_factors"] == [1, 6]
        assert obj["torsion"] == [6]

    @pytest.mark.parametrize(
        "extra", [["--graph", THETA, "--kind", "cx"], ["--graph", THETA], ["--kind", "x"]]
    )
    def test_matrix_refuses_graph_and_kind(self, extra, tmp_path, capsys):
        # the matrix's SNF names no poset, so the poset flags are refused
        path = tmp_path / "m.txt"
        path.write_text("2 2\n0 0 2\n1 1 3\n")
        code, out, err = run_main(["homology", "--matrix", str(path), *extra], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("posetlab: error:") and "--matrix" in err

    def test_homology_kind_defaults_to_x(self, capsys):
        assert run_main(["homology", "--graph", THETA], capsys) == run_main(
            ["homology", "--graph", THETA, "--kind", "x"], capsys
        )

    def test_matrix_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        for text in ("not a matrix\n", "-1 -3\n"):
            path.write_text(text)
            code, _, err = run_main(["homology", "--matrix", str(path)], capsys)
            assert code == 2 and "error" in err, text


class TestVerify:
    def test_pass_exits_zero(self, capsys):
        code, out, _ = run_main(["verify", "x", "--graph", THETA], capsys)
        assert code == 0 and "pass" in out

    def test_json_record_shape(self, capsys):
        code, out, _ = run_main(["verify", "cx", "--graph", THETA, "--json"], capsys)
        obj = json.loads(out)
        assert set(obj) == {"graph", "check", "status", "betti", "data"}

    def test_retraction_connected(self, capsys):
        code, out, _ = run_main(
            ["verify", "retraction", "--graph", DUMBBELL, "--connected"], capsys
        )
        assert code == 0

    def test_valence2(self, capsys):
        code, _, _ = run_main(["verify", "valence2", "--graph", THETA], capsys)
        assert code == 0

    @pytest.mark.parametrize("key", ["1;", "2;"])
    def test_valence2_on_edgeless_graph_is_usage_error(self, key, capsys):
        # no edge to subdivide: a refusal, not Python's message from min()
        code, _, err = run_main(["verify", "valence2", "--graph", key], capsys)
        assert code == 2
        assert "verify_valence_two: graph must have an edge" in err
        assert "min()" not in err

    def test_generators(self, capsys):
        code, out, _ = run_main(["verify", "generators", "--graph", THETA], capsys)
        assert code == 0

    def test_generators_on_separating_graph_is_usage_error(self, capsys):
        code, _, err = run_main(["verify", "generators", "--graph", DUMBBELL], capsys)
        assert code == 2 and "separating" in err

    def test_deep_route(self, capsys):
        code, out, _ = run_main(["verify", "x", "--graph", THETA, "--deep"], capsys)
        assert code == 0 and "deep-sphericity-x" in out

    def test_bad_graph_key_exits_2(self, capsys):
        code, _, err = run_main(["verify", "x", "--graph", "junk"], capsys)
        assert code == 2 and "error" in err

    def test_missing_graph_exits_2(self, capsys):
        code, _, err = run_main(["verify", "x"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "target, flag",
        [
            *((t, "--connected") for t in ("x", "cx", "valence2", "generators", "subset-sphere")),
            *((t, "--deep") for t in ("retraction", "valence2", "generators", "subset-sphere")),
        ],
    )
    def test_flag_that_does_not_apply_is_usage_error(self, target, flag, capsys):
        code, out, err = run_main(["verify", target, "--graph", THETA, flag], capsys)
        assert code == 2 and out == ""
        assert err.startswith("posetlab: error: ") and flag in err


    @pytest.mark.parametrize(
        "argv", [["poset", "--graph", THETA], ["apartment", "--rank", "3"]]
    )
    def test_dot_with_json_is_usage_error(self, argv, capsys):
        code, out, err = run_main([*argv, "--dot", "--json"], capsys)
        assert code == 2 and out == ""
        assert err == "posetlab: error: --dot and --json cannot be combined\n"
        # each flag alone still works
        code, out, _ = run_main([*argv, "--dot"], capsys)
        assert code == 0 and out.startswith("digraph")
        code, out, _ = run_main([*argv, "--json"], capsys)
        assert code == 0 and json.loads(out)

    def test_report_has_no_json_flag(self, capsys):
        # the report is always canonical JSON, so the flag would do nothing
        with pytest.raises(SystemExit) as exc:
            main(["report", "--suite", "rank2", "--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestGraphNames:
    # a key with a reversed token names its graph in normal form
    REVERSED = "2;1-0,0-1,0-1"

    def test_verify_names_the_normal_key(self, capsys):
        code, out, _ = run_main(["verify", "x", "--graph", self.REVERSED], capsys)
        assert code == 0 and out.startswith(f"{THETA}  sphericity-x  pass\n")

    @pytest.mark.parametrize("command", ["poset", "homology"])
    def test_json_names_the_normal_key(self, command, capsys):
        code, out, _ = run_main([command, "--graph", self.REVERSED, "--json"], capsys)
        assert code == 0 and json.loads(out)["graph"] == THETA


class TestOtherCommands:
    def test_duality(self, capsys):
        code, out, _ = run_main(["duality", "--graph", DUMBBELL], capsys)
        assert code == 0 and "pass" in out

    def test_fiber(self, capsys):
        code, _, _ = run_main(["fiber", "--graph", THETA, "--connected"], capsys)
        assert code == 0

    def test_morse_search_reports_absence(self, capsys):
        code, out, _ = run_main(["morse", "search", "--graph", THETA], capsys)
        assert code == 0 and "found=False" in out

    def test_morse_verify_succeeds_on_dumbbell(self, capsys):
        code, out, _ = run_main(["morse", "verify", "--graph", DUMBBELL, "--json"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["verified"] is True

    def test_morse_verify_fails_on_theta(self, capsys):
        code, _, _ = run_main(["morse", "verify", "--graph", THETA], capsys)
        assert code == 1

    def test_apartment(self, capsys):
        code, out, _ = run_main(["apartment", "--rank", "4", "--json"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["is_sphere"] is True

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 2


class TestReport:
    def test_single_suite_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, err = run_main(
            ["report", "--suite", "apartments", "--out", str(out_path)], capsys
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["suite"] == "apartments"
        assert "apartments:" in err  # human summary goes to stderr

    def test_consecutive_runs_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["report", "--suite", "rank2", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("suite", ["apartments", "rank4-deep"])
    def test_deep_with_suite_exits_2(self, suite, tmp_path, capsys):
        # --deep adds a suite to the full report, so beside --suite it adds nothing
        out_path = tmp_path / "r.json"
        argv = ["report", "--suite", suite, "--deep", "--out", str(out_path)]
        code, _, err = run_main(argv, capsys)
        assert code == 2 and err.startswith("posetlab: error: --deep")
        assert not out_path.exists()

    @pytest.mark.parametrize("budget", ["5", "0"])
    @pytest.mark.parametrize("suite", [["--suite", "apartments"], []], ids=["suite", "all"])
    def test_budget_without_a_deep_suite_exits_2(self, budget, suite, tmp_path, capsys):
        # no deep suite runs, so a given budget would bound nothing
        out_path = tmp_path / "r.json"
        argv = ["report", *suite, "--budget", budget, "--out", str(out_path)]
        code, _, err = run_main(argv, capsys)
        assert code == 2 and err.startswith("posetlab: error: --budget")
        assert not out_path.exists()

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("suite", [["--suite", "rank4-deep"], ["--deep"]], ids=["suite", "deep"])
    def test_non_finite_budget_exits_2(self, budget, suite, tmp_path, capsys):
        # a NaN budget would be silently ignored (no comparison with it
        # holds) and written as a token strict JSON parsers reject
        out_path = tmp_path / "r.json"
        argv = ["report", *suite, f"--budget={budget}", "--out", str(out_path)]
        code, _, err = run_main(argv, capsys)
        assert code == 2 and "finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("suite", [["--suite", "rank4-deep"], ["--deep"]], ids=["suite", "deep"])
    def test_exhausted_budget_exits_1(self, suite, tmp_path, capsys):
        # a deep suite that ran none of its graphs makes no claim about them
        out_path = tmp_path / "r.json"
        code, _, err = run_main(["report", *suite, "--budget=-1", "--out", str(out_path)], capsys)
        assert code == 1
        obj = json.loads(out_path.read_text())
        reports = [obj] if "suite" in obj else obj["suites"]
        deep = next(r for r in reports if r["suite"] == "rank4-deep")
        assert deep["summary"]["budget_exhausted"] is True
        assert deep["summary"]["fail"] == 0
        if suite[0] == "--suite":
            assert "0 of 111 graphs" in err

    def test_canonical_json_refuses_non_finite_numbers(self, monkeypatch, tmp_path, capsys):
        real = cli.run_suite

        def with_nan(name, deep_budget):
            rep = real(name, deep_budget)
            rep.summary["deep_budget_seconds"] = float("nan")
            return rep

        monkeypatch.setattr(cli, "run_suite", with_nan)
        out_path = tmp_path / "r.json"
        code, _, err = run_main(["report", "--suite", "apartments", "--out", str(out_path)], capsys)
        assert code == 2 and "JSON" in err
        assert not out_path.exists()
