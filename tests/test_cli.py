import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from mergespace.cli import main
from mergespace.coloring import ColoringError
from mergespace.forest import enumerate_forests, forest_count, workspace_from_json
from mergespace.rulesets import get_ruleset

SCRIPTS = Path(__file__).resolve().parent.parent / "src" / "mergespace" / "data" / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_three_leaves(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--leaves", "a,b,c")
        assert code == 0 and "# 6 structures" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--leaves", "a,b,c", "--format", "json")
        assert code == 0
        blobs = json.loads(out)
        keys = {workspace_from_json(b).key for b in blobs}
        assert len(keys) == 6

    def test_empty_leaves_domain_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--leaves", "")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("extra, count", [((), 36496226976), (("--trees-only",), 13749310575)])
    def test_size_guard_refuses_twelve_leaves(self, capsys, extra, count):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--leaves", ",".join("abcdefghijkl"), *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out
        assert err.startswith("error: 12 leaves") and str(count) in err

    def test_forest_count_closed_form(self):
        for n in range(1, 7):
            assert forest_count(n) == len(enumerate_forests("abcdef"[:n], require_edge=False))


class TestSuccessors:
    def test_cherry_pair(self, capsys):
        code, out, _ = run(
            capsys, "successors", "--workspace", '["a", "b"]', "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["tag"] == "EM"

    @pytest.mark.parametrize(
        "text, why",
        [
            ("x", "--workspace: not valid JSON"),
            ('["a", ', "--workspace: not valid JSON"),
            ("5", "a workspace is a list of trees"),
            ('[{"foo": 1}]', "bad tree encoding"),
        ],
    )
    def test_bad_workspace_is_domain_error(self, capsys, text, why):
        code, out, err = run(capsys, "successors", "--workspace", text)
        assert code == 1 and not out
        assert err.startswith("error: " + why)


class TestGraphAndMarkov:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--leaves", "a,b,c")
        assert code == 0 and out.startswith("digraph")
        assert "SM1" in out and "EM" in out

    def test_csv_matrix(self, capsys):
        code, out, _ = run(capsys, "graph", "--leaves", "a,b,c", "--format", "csv")
        rows = [r for r in out.strip().splitlines()]
        assert len(rows) == 7

    def test_markov_json(self, capsys):
        code, out, _ = run(capsys, "markov", "--leaves", "a,b,c")
        blob = json.loads(out)
        assert code == 0 and blob["bistochastic"] is True

    def test_markov_no_im(self, capsys):
        code, out, _ = run(capsys, "markov", "--leaves", "a,b,c", "--no-im")
        blob = json.loads(out)
        assert blob["bistochastic"] is False

    def test_weighted(self, capsys):
        code, out, _ = run(
            capsys, "markov", "--leaves", "a,b,c", "--regime", "ms", "-t", "0.5"
        )
        assert code == 0 and json.loads(out)["lambda"] > 2

    def test_leaf_bound_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "graph", "--leaves", "a,b,c,d,e,f,g,h")
        assert code == 1 and "353521 states, over the bound" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv", [("graph", "--format", "csv"), ("graph", "--format", "json"), ("markov", "--format", "csv")]
    )
    def test_dense_output_refused_before_the_build(self, capsys, monkeypatch, argv):
        import mergespace.markov

        def never(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(mergespace.markov, "enumerate_forests", never)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--leaves", "a,b,c,d,e,f,g")
        assert code == 1 and not out
        assert err == "error: 27006 states: dense matrices are refused above 2430 states (6 leaves)\n"
        assert time.perf_counter() - start < 1.0

    def test_two_leaf_markov_has_no_dominant_eigenvalue(self, capsys):
        code, out, err = run(capsys, "markov", "--leaves", "a,b")
        assert code == 1 and not out
        assert err == "error: no positive dominant eigenvalue; some state has no successor\n"

    def test_seven_leaf_markov(self, capsys):
        code, out, _ = run(capsys, "markov", "--leaves", "a,b,c,d,e,f,g")
        blob = json.loads(out)
        assert code == 0 and len(blob["vertices"]) == len(blob["xi"]) == 27_006
        assert abs(blob["lambda"] - 35.883468251826) <= 1e-10 * 35.883468251826

    @pytest.mark.parametrize(
        "leaves, t", [("a,b,c,d", "nan"), ("a,b,c,d", "inf"), ("a,b,c", "nan"), ("a,b,c", "inf")]
    )
    def test_non_finite_t(self, capsys, leaves, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "markov", "--leaves", leaves, "--regime", "ms", "-t", t)
        assert code == 1 and not out
        assert err.startswith("error: weight parameter t must be finite and positive")
        assert "Traceback" not in err

    def test_underflowed_perron_vector_is_a_domain_error(self, capsys):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "markov", "--leaves", "a,b,c,d", "--regime", "total", "-t", "1e-200")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out
        assert err.startswith("error: Perron vector underflowed at power-iteration step")
        assert "Traceback" not in err

    @pytest.mark.parametrize("t", ["nan", "1.0"])
    def test_t_without_regime_refused(self, capsys, t):
        code, out, err = run(capsys, "markov", "--leaves", "a,b,c", "-t", t)
        assert code == 1 and not out
        assert err.startswith("error:") and "-t" in err and "--regime" in err

    def test_four_leaf_graph(self, capsys):
        code, out, _ = run(capsys, "graph", "--leaves", "a,b,c,d", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        assert len(blob["vertices"]) == 36
        assert blob["scc"]["scc_count"] == 1


class TestDerive:
    def test_lookup_comparison(self, capsys):
        code, out, _ = run(
            capsys,
            "derive",
            "--script",
            str(SCRIPTS / "lookup_sm1.json"),
            "--compare",
            str(SCRIPTS / "lookup_sm2.json"),
        )
        assert code == 0
        blob = json.loads(out)
        cl_first, cl_second = (int(x) for x in blob["comparison"]["cl"])
        assert cl_first == 1 < cl_second == 2

    def test_fc_script(self, capsys):
        code, out, _ = run(capsys, "derive", "--script", str(SCRIPTS / "amalgam_fc.json"))
        blob = json.loads(out)
        assert code == 0 and blob["kind"] == "quotient"
        assert blob["vertex_history"] == [17, 14, 13]

    def test_empty_script(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"mode": "d", "initial": ["a", "b"], "steps": []}))
        code, out, _ = run(capsys, "derive", "--script", str(p))
        blob = json.loads(out)
        assert code == 0 and blob["totals"]["ms"] == "0"

    def test_illegal_step_is_domain_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "mode": "d",
                    "initial": ["a", "b"],
                    "steps": [{"op": "INSERT", "args": [{"key": "a"}]}],
                }
            )
        )
        code, _, err = run(capsys, "derive", "--script", str(p))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "step",
        [
            {"op": "EM", "args": [{"component": 0}]},
            {"op": "IM", "args": []},
            {"op": "EM", "args": 5},
            {"op": "EM", "args": [{"key": "c", "n": 5}, {"component": 0}]},
            {"op": "ID", "args": [{"key": "c"}]},
            {"op": "IM", "args": [{"n": 0}]},
            {"op": "IM", "args": [{"key": "zzz"}]},
        ],
        ids=["em-one-arg", "im-no-args", "args-not-list", "component-n-out-of-range",
             "id-on-leaf", "ref-without-key", "unknown-key"],
    )
    def test_malformed_step_names_step(self, capsys, tmp_path, step):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mode": "d", "initial": [["M", "a", "b"], "c"], "steps": [step]}))
        code, out, err = run(capsys, "derive", "--script", str(p))
        assert code == 1 and not out
        assert err.startswith("error: step 0: ") and "Traceback" not in err


    @pytest.mark.parametrize(
        "blob, field",
        [
            ({"mode": "d", "initial": ["a", "b"], "steps": [], "flags": {"nope": 1}}, "'nope'"),
            ({"mode": "d", "initial": ["a", "b"], "steps": [], "flags": {"allow_im": 1}}, "allow_im"),
            ({"mode": "d", "initial": ["a", "b"], "steps": [], "flags": []}, "'flags'"),
            ({"mode": "d", "steps": []}, "script has no 'initial' field"),
            ({"mode": "d", "initial": ["a", "b"]}, "script has no 'steps' field"),
            (["a", "b"], "JSON object"),
        ],
        ids=["unknown-flag", "flag-not-bool", "flags-not-object", "no-initial", "no-steps", "not-object"],
    )
    def test_malformed_script_names_field(self, capsys, tmp_path, blob, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(capsys, "derive", "--script", str(p))
        assert code == 1 and not out
        assert err.startswith("error: ") and field in err

    def test_script_not_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        code, out, err = run(capsys, "costs", "--script", str(p))
        assert code == 1 and not out
        assert err.startswith(f"error: --script {p}: not valid JSON")


class TestColorCheck:
    def test_scenario_file(self, capsys):
        scen = SCRIPTS.parent / "scenarios" / "bulgarian_double_wh.json"
        code, out, _ = run(capsys, "color-check", "--scenario", str(scen))
        blob = json.loads(out)
        assert code == 0 and all(c["ok"] for c in blob["cases"])

    def test_dump_ruleset(self, capsys):
        code, out, _ = run(capsys, "color-check", "--dump-ruleset", "phase+split")
        blob = json.loads(out)
        assert code == 0 and blob["name"] == "phase+split"
        assert any(g["tag"] == "SM-cluster" for g in blob["generators"])

    def test_adhoc_search(self, capsys):
        code, out, _ = run(
            capsys,
            "color-check",
            "--ruleset",
            "theta",
            "--tree",
            json.dumps(["M", "EA", ["M", "V", "IA"]]),
            "--constraints",
            json.dumps({"EA": ["th_E"], "V": ["head:EI"], "IA": ["th_I"]}),
        )
        blob = json.loads(out)
        assert code == 0 and blob["colorings"] == 1


    @pytest.mark.parametrize("option", ["--tree", "--colored-tree", "--constraints"])
    def test_option_not_json(self, capsys, option):
        argv = ["color-check", option, "{"]
        if option == "--constraints":
            argv += ["--tree", json.dumps(["M", "V", "IA"])]
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith(f"error: {option}: not valid JSON")

    def test_no_input_is_domain_error(self, capsys):
        code, out, err = run(capsys, "color-check")
        assert code == 1 and not out
        assert err.startswith("error: color-check needs --scenario, --tree")

    @pytest.mark.parametrize("option", ["--ruleset", "--dump-ruleset"])
    def test_unknown_ruleset(self, capsys, option):
        code, out, err = run(capsys, "color-check", option, "nope", "--tree", '"a"')
        assert code == 1 and not out
        assert err.startswith("error: unknown rule set 'nope'; built-ins: ") and "theta" in err

    def test_get_ruleset_raises_coloring_error(self):
        with pytest.raises(ColoringError, match="unknown rule set 'nope'"):
            get_ruleset("nope")


SCENARIO_TREE = ["M", "EA", ["M", "V", "IA"]]


@pytest.mark.parametrize(
    "command, payload, why",
    [
        ("derive", {"fc": {"tree": ["M", "a", "b"], "pairs": [["a", 0]]}}, "fc: pairs[0]: "),
        ("derive", {"fc": {}}, "fc: no 'tree' field"),
        ("derive", {"fc": {"tree": ["M", "a", "b"], "pairs": [], "n_em": -1}}, "fc: n_em "),
        ("derive", {"mode": "d", "initial": 5, "steps": []}, "initial: "),
        ("scenario", {"tree": SCENARIO_TREE}, "scenario has no 'cases' field"),
        ("scenario", {"tree": SCENARIO_TREE, "cases": [{"ruleset": "theta"}]}, "cases[0]: no 'expect' field"),
        (
            "scenario",
            {"tree": SCENARIO_TREE, "cases": [{"ruleset": "theta", "expect": "accept", "min_colorings": "3"}]},
            "cases[0]: min_colorings: ",
        ),
        ("scenario", {"tree": 5, "cases": [{"ruleset": "theta", "expect": "accept"}]}, "tree: bad tree encoding"),
        (
            "scenario",
            {"tree": SCENARIO_TREE, "constraints": {"V": "head:EI"}, "cases": [{"ruleset": "theta", "expect": "accept"}]},
            "constraints: V: ",
        ),
        ("colored-tree", {"color": "clause", "children": [{"label": "a", "color": "th_E"}]}, "colored tree: 'children'"),
        ("colored-tree", [1], "colored tree: a vertex must be an object"),
        ("colored-tree", {"color": "th_E"}, "colored tree: leaf without a string 'label'"),
    ],
    ids=["fc-short-pair", "fc-no-tree", "fc-negative-n-em", "initial-not-list", "scenario-no-cases",
         "case-no-expect", "min-colorings-string", "scenario-bad-tree", "constraint-not-list",
         "one-child", "vertex-not-object", "leaf-no-label"],
)
def test_malformed_input_names_field(capsys, tmp_path, command, payload, why):
    if command == "colored-tree":
        argv = ["color-check", "--colored-tree", json.dumps(payload)]
    else:
        p = tmp_path / "input.json"
        p.write_text(json.dumps(payload))
        argv = ["derive", "--script", str(p)] if command == "derive" else ["color-check", "--scenario", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: " + why) and "Traceback" not in err


def test_large_color_search_refused(capsys):
    comb = "n"
    for label in "abcdefghijklm":
        comb = ["M", label, comb]
    start = time.perf_counter()
    code, out, err = run(capsys, "color-check", "--ruleset", "phase+split", "--tree", json.dumps(comb))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error: the search would build 3265513777429 candidate colorings, over the bound")


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "state-space")
        assert code == 0 and "PASS" in out and "FAIL" not in out

    def test_filter_matching_no_group_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "zzz")
        assert code == 1 and not out
        assert err.startswith("error: --only 'zzz' matches no check group")
        assert "state-space" in err and "cocycles" in err

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mergespace", "verify", "--only", "cocycles"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("checks passed")
