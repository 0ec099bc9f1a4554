import argparse
import ast
import json
import os
import subprocess
import sys
import time
import warnings
from itertools import islice
from pathlib import Path

import pytest

from mergespace import costs, forest
from mergespace.cli import InputError, _pair_bound, build_parser, main
from mergespace.coloring import ColoringError, color_search
from mergespace.costs import CostError
from mergespace.engine import ECViolation, MergeConfig, MergeError, merge_pairs
from mergespace.forest import (
    DomainError,
    ForestError,
    enumerate_forests,
    enumerate_trees,
    forest_counts,
    tree_from_json,
    workspace_from_json,
)
from mergespace.markov import MarkovError
from mergespace.rulesets import BUILTIN_RULESETS, get_ruleset
from mergespace.verify import VerifyError, run_verify
from test_engine import trace_bearing

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "src" / "mergespace" / "data" / "scripts"


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

    def test_trees_only_json_reads_back_as_trees(self, capsys):
        code, out, err = run(capsys, "enumerate", "--leaves", "a,b,c,d", "--trees-only", "--format", "json")
        assert code == 0, err
        lines = [line.removesuffix(",") for line in out.splitlines()[1:-1]]
        trees = enumerate_trees("a,b,c,d".split(","))
        assert [tree_from_json(json.loads(line)) for line in lines] == trees
        code, out, err = run(capsys, "color-check", "--ruleset", "korean-pac", "--tree", lines[0])
        assert code == 0, err
        assert json.loads(out)["colorings"] == len(color_search(get_ruleset("korean-pac"), trees[0])) > 0

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

    @pytest.mark.parametrize("extra, count", [((), 151), (("--all",), 152), (("--trees-only",), 46)])
    def test_repeated_labels_counted_over_the_multiset(self, capsys, extra, count):
        code, out, err = run(capsys, "enumerate", "--leaves", ",".join("a" * 9), *extra)
        assert code == 0 and not err
        assert out.endswith(f"# {count} structures\n")

    def test_repeated_labels_past_the_bound(self, capsys):
        code, out, err = run(capsys, "enumerate", "--leaves", ",".join("aabbccddeeff"))
        assert code == 1 and not out
        assert err.startswith("error: 12 leaves can give at least ") and "over the enumeration bound 150000" in err

    def test_forest_count_closed_form(self):
        for n, count in zip(range(1, 7), islice(forest_counts(), 1, None)):
            assert count == len(enumerate_forests("abcdef"[:n], require_edge=False))


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate",),
        ("enumerate", "--trees-only"),
        ("markov",),
        ("markov", "--format", "csv"),
        ("graph",),
        ("graph", "--format", "json"),
    ],
)
def test_leaf_bounds_stop_counting_past_the_bound(capsys, monkeypatch, argv):
    # every leaf-count bound refuses 5 000 labels from a handful of counts:
    # the exact count there has more than 17 000 digits, takes hours to
    # compute and cannot be printed
    import mergespace.forest

    calls = []

    def counted(n, real=mergespace.forest.double_factorial):
        calls.append(n)
        assert len(calls) <= 1_000, "the count went on past the bound"
        return real(n)

    monkeypatch.setattr(mergespace.forest, "double_factorial", counted)
    code, out, err = run(capsys, *argv, "--leaves", ",".join(f"l{i}" for i in range(5_000)))
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


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

    def test_pair_bound_holds_every_pair(self):
        # the bound that lets a request skip counting its pairs is never
        # below the count under the widest flags of either mode
        forests = [w for n in range(2, 7) for w in enumerate_forests("abcdef"[:n])] + trace_bearing()
        for mode in ("c", "d"):
            widest = MergeConfig(mode=mode, allow_identity_sm=True, allow_sibling_cut=True)
            for ws in forests:
                assert _pair_bound(ws) >= sum(1 for _ in merge_pairs(ws, widest)), (ws.key, mode)

    @pytest.mark.parametrize("mode, rows", [("c", 2_499), ("d", 2_497)])
    def test_comb_past_the_pair_bound_is_counted_and_kept(self, capsys, mode, rows):
        # a 50-leaf comb: 4 852 by the bound, over the limit of 3 000, so
        # the pairs are counted, and fall under it
        ws = "[" + comb_text(49) + "]"
        assert _pair_bound(workspace_from_json(json.loads(ws))) == 4_852
        code, out, _ = run(capsys, "successors", "--workspace", ws, "--mode", mode, "--identity-sm", "--sibling-cut")
        assert code == 0 and out.endswith(f"# {rows} successors\n")


class TestGraphAndMarkov:
    def test_markov_on_nine_equal_leaves(self, capsys):
        # 151 states, not the 5 329 836 of nine distinct labels
        code, out, err = run(capsys, "markov", "--leaves", ",".join("a" * 9))
        assert code == 0 and not err
        assert len(json.loads(out)["eta"]) == 151

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

        monkeypatch.setattr(mergespace.markov, "forests_and_masks", never)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--leaves", "a,b,c,d,e,f,g")
        assert code == 1 and not out
        assert err == "error: 27006 states: dense matrices are refused above 2430 states (6 leaves)\n"
        assert time.perf_counter() - start < 1.0

    def test_two_leaf_markov_has_no_dominant_eigenvalue(self, capsys):
        code, out, err = run(capsys, "markov", "--leaves", "a,b")
        assert code == 1 and not out
        assert err == "error: no positive dominant eigenvalue; some state has no successor\n"

    def test_reducible_markov_names_the_unreached_state(self, capsys):
        code, out, err = run(capsys, "markov", "--leaves", "a,b,c", "--no-sm")
        assert code == 1 and not out
        assert err == (
            "error: reducible support; Perron-Frobenius theory needs strong connectivity: "
            "state 0 = ((a|b)|c) cannot reach state 3 = (a|b)⊔c\n"
        )

    def test_markov_json_reports_cells(self, capsys):
        code, out, _ = run(capsys, "markov", "--leaves", "a,b,c,d", "--regime", "total", "-t", "0.5")
        blob = json.loads(out)
        assert code == 0 and blob["cells"] == 5 and blob["iterations"] > 2

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

    @pytest.mark.parametrize("command", ["graph", "markov"])
    def test_chain_commands_take_no_mode(self, capsys, command):
        # their transition graphs are mode d; successors keeps --mode
        with pytest.raises(SystemExit) as exc:
            main([command, "--leaves", "a,b,c", "--mode", "d"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode d" in capsys.readouterr().err

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
        # no step to read the mode from: the derivation records it
        p = tmp_path / "empty.json"
        for mode in ("c", "d"):
            p.write_text(json.dumps({"mode": mode, "initial": [["M", "a", "b"], "c"], "steps": []}))
            code, out, _ = run(capsys, "derive", "--script", str(p))
            blob = json.loads(out)
            assert code == 0 and blob["totals"]["ms"] == "0" and blob["mode"] == mode

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
            ({"mode": "d", "initial": ["a", "b"], "steps": [], "flags": {"allow_sibling_cut": 1}}, "allow_sibling_cut"),
            ({"mode": "d", "initial": ["a", "b"], "steps": [], "flags": []}, "'flags'"),
            ({"mode": "x", "initial": 5, "steps": []}, "error: unknown coproduct mode 'x'"),
            ({"mode": "d", "steps": []}, "script has no 'initial' field"),
            ({"mode": "d", "initial": ["a", "b"]}, "script has no 'steps' field"),
            (["a", "b"], "JSON object"),
        ],
        ids=["unknown-flag", "flag-not-bool", "flags-not-object", "unknown-mode", "no-initial", "no-steps",
             "not-object"],
    )
    def test_malformed_script_names_field(self, capsys, tmp_path, blob, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(capsys, "derive", "--script", str(p))
        assert code == 1 and not out
        assert err.startswith("error: ") and field in err

    def test_flag_that_replay_overrides_is_refused(self, capsys, tmp_path):
        # replay checks every step under the widest flags of its mode, so a
        # script that turned internal Merge off would still replay this IM
        p = tmp_path / "no_im.json"
        p.write_text(
            json.dumps(
                {
                    "mode": "d",
                    "initial": [["M", ["M", "a", "b"], "c"]],
                    "flags": {"allow_im": False},
                    "steps": [{"op": "IM", "args": [{"key": "a"}]}],
                }
            )
        )
        code, out, err = run(capsys, "derive", "--script", str(p))
        assert code == 1 and not out
        assert err.startswith("error: flags: unknown flag 'allow_im'; known: allow_sibling_cut")

    def test_costs_csv_of_a_fc_script_refused(self, capsys):
        # a FormCopy report has no totals to tabulate; its JSON is unchanged
        script = str(SCRIPTS / "amalgam_fc.json")
        code, out, err = run(capsys, "costs", "--script", script, "--format", "csv")
        assert code == 1 and not out
        assert err.startswith("error: --format csv: a FormCopy script's report has no totals")
        code, out, _ = run(capsys, "costs", "--script", script)
        assert code == 0 and json.loads(out)["vertex_history"] == [17, 14, 13]

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


def comb_text(depth):
    # built as text: json.dumps itself recurses once per level
    return '["M", ' * depth + '"a"' + ', "b"]' * depth


def balanced(labels):
    if len(labels) == 1:
        return labels[0]
    mid = len(labels) // 2
    return ["M", balanced(labels[:mid]), balanced(labels[mid:])]


@pytest.mark.parametrize(
    "argv, why",
    [
        (["successors", "--workspace", "[" + comb_text(1200) + "]"], "the input is nested too deeply"),
        (["color-check", "--tree", comb_text(985)], "the input is nested too deeply"),
        (["successors", "--workspace", "[" + comb_text(199) + "]"], "200 leaves give more than 750 Merge steps"),
        (
            ["successors", "--workspace", json.dumps([balanced([f"x{i}" for i in range(1024)])]), "--no-sm"],
            "1024 leaves give more than 146 Merge steps",
        ),
    ],
    ids=["deep-workspace", "deep-tree", "wide-comb", "big-tree-no-sm"],
)
def test_deep_or_large_input_refused(capsys, argv, why):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and not out
    assert err.startswith("error: " + why) and "Traceback" not in err


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "state-space")
        assert code == 0 and "PASS" in out and "FAIL" not in out

    def test_filter_matching_no_group_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "zzz")
        assert code == 1 and not out
        assert err.startswith("error: --only 'zzz' matches no check group")
        assert "state-space" in err and "cocycles" in err

    def test_library_filter_matching_no_group_refused(self):
        with pytest.raises(VerifyError, match="matches no check group"):
            run_verify(only="zzz")

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


WORKSPACE = '[["M", "a", "b"], "c"]'
SCENARIOS = SCRIPTS.parent / "scenarios"


def run_alone(argv, cwd):
    """One CLI call in its own interpreter: (exit code, stdout)."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mergespace", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    return proc.returncode, proc.stdout


def test_reused_parser_keeps_no_state(capsys, monkeypatch, tmp_path):
    # each call after the first parses with the parser the first one built
    successors = ["successors", "--workspace", WORKSPACE]
    markov = ["markov", "--leaves", "a,b,c"]
    pairs = [
        (successors + ["--mode", "c", "--no-im"], successors),
        (markov + ["--regime", "total", "-t", "0.5"], markov),
        (successors + ["--format", "json", "--out", "x.json"], successors + ["--format", "json"]),
    ]
    monkeypatch.chdir(tmp_path)
    out_file = tmp_path / "x.json"
    for first, then in pairs:
        got = [run(capsys, *argv)[:2] for argv in (first, then)]
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        assert got == [run_alone(argv, tmp_path) for argv in (first, then)]
        assert got[0] != got[1]
        if written is not None:
            assert written == out_file.read_text()
            assert json.loads(written) == json.loads(got[1][1])


JSON_REQUESTS = [
    ["enumerate", "--leaves", "a,b,c", "--format", "json"],
    ["enumerate", "--leaves", "a,b,c", "--trees-only", "--format", "json"],
    ["successors", "--workspace", WORKSPACE, "--format", "json"],
    ["graph", "--leaves", "a,b,c", "--format", "json"],
    ["markov", "--leaves", "a,b,c"],
    ["derive", "--script", str(SCRIPTS / "amalgam_sm.json")],
    ["derive", "--script", str(SCRIPTS / "amalgam_sm.json"), "--compare", str(SCRIPTS / "lookup_sm1.json")],
    ["derive", "--script", str(SCRIPTS / "amalgam_fc.json")],
    ["costs", "--script", str(SCRIPTS / "amalgam_sm.json")],
    ["color-check", "--scenario", str(SCENARIOS / "bulgarian_double_wh.json")],
    ["color-check", "--tree", json.dumps(["M", "EA", ["M", "V", "IA"]])],
    ["color-check", "--colored-tree", json.dumps({"label": "a", "color": "th_E"})],
    ["color-check", "--dump-ruleset", "theta"],
]


@pytest.mark.parametrize("argv", JSON_REQUESTS, ids=lambda a: " ".join(a[:2]))
def test_json_output_one_top_level_item_per_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    blob = json.loads(out)
    lines = out.splitlines()
    items = [line.removesuffix(",") for line in lines[1:-1]]
    if isinstance(blob, list):
        assert (lines[0], lines[-1]) == ("[", "]")
        assert [json.loads(item) for item in items] == blob
    else:
        assert (lines[0], lines[-1]) == ("{", "}")
        assert dict(json.loads("{" + item + "}").popitem() for item in items) == blob


def test_totals_print_fractions_as_strings(capsys):
    _, out, _ = run(capsys, "costs", "--script", str(SCRIPTS / "amalgam_sm.json"))
    assert '"ms": "19/15",' in out.splitlines()
    _, out, _ = run(capsys, "derive", "--script", str(SCRIPTS / "amalgam_sm.json"))
    blob = json.loads(out)
    assert blob["totals"]["ms"] == "19/15"
    assert all(isinstance(step["ms"], str) for step in blob["steps"])


@pytest.mark.parametrize(
    "argv",
    [
        ["successors", "--workspace", WORKSPACE],
        ["enumerate", "--leaves", "a,b,c", "--format", "json"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_domain_error(capsys, tmp_path, argv, target):
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and not out
    assert err.startswith(f"error: --out: cannot write {path}: ") and "Traceback" not in err


DOMAIN_ERRORS = (ForestError, MergeError, ECViolation, CostError, MarkovError, ColoringError, VerifyError, InputError)


def test_domain_errors_share_one_base():
    assert issubclass(DomainError, ValueError)
    assert all(issubclass(error, DomainError) for error in DOMAIN_ERRORS)


@pytest.mark.parametrize("error", DOMAIN_ERRORS)
def test_domain_error_in_a_subcommand_exits_1(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr("mergespace.engine.all_merge_successors", fail)
    assert run(capsys, "successors", "--workspace", WORKSPACE) == (1, "", "error: boom\n")


def test_plain_value_error_in_a_subcommand_propagates(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("not a domain error")

    monkeypatch.setattr("mergespace.engine.all_merge_successors", fail)
    with pytest.raises(ValueError, match="not a domain error"):
        main(["successors", "--workspace", WORKSPACE])


# the modules that only the chain and the verify suite need
NUMPY_SIDE = ("numpy", "mergespace.markov", "mergespace.hopf", "mergespace.verify")
# runs after the benchmark's set-up snippet, in the same interpreter: prints
# the NUMPY_SIDE modules loaded before and after main() runs each argv
LOADED = """
import contextlib, io, json, sys
from mergespace.cli import main
watched = json.loads(sys.argv[3])
print(json.dumps([m for m in watched if m in sys.modules]))
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([m for m in watched if m in sys.modules]))
"""


def setup_snippet() -> str:
    """bench/run.py's SETUP_SNIPPET, read without running that file."""
    for stmt in ast.parse((ROOT / "bench" / "run.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["SETUP_SNIPPET"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/run.py assigns no SETUP_SNIPPET")


def loaded_in_a_fresh_interpreter(*argvs, watched=NUMPY_SIDE) -> tuple:
    """The watched modules loaded after the set-up snippet, and after
    main() has then run each argv."""
    proc = subprocess.run(
        [sys.executable, "-c", setup_snippet() + LOADED, str(ROOT / "src"), json.dumps(argvs), json.dumps(watched)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()[-2:]
    return set(json.loads(before)), set(json.loads(after))


def test_exact_subcommands_load_no_numpy():
    script = str(SCRIPTS / "sixleaf_single.json")
    before, after = loaded_in_a_fresh_interpreter(
        ["successors", "--workspace", WORKSPACE, "--format", "json"],
        ["derive", "--script", script],
        ["costs", "--script", script],
        ["color-check", "--scenario", str(SCENARIOS / "theta_transitive.json")],
        ["enumerate", "--leaves", "a,b,c", "--format", "json"],
    )
    assert before == after == set()


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["graph", "--leaves", "a,b,c"], {"numpy", "mergespace.markov"}),
        (["markov", "--leaves", "a,b,c"], {"numpy", "mergespace.markov"}),
        (["verify", "--only", "cocycles"], set(NUMPY_SIDE)),
    ],
)
def test_chain_and_verify_subcommands_load_what_they_use(argv, loads):
    assert loaded_in_a_fresh_interpreter(argv) == (set(), loads)


def outside_imports(sources) -> list:
    """The import statements of the given sources that import neither the
    package nor __future__, one source line each."""
    found = set()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = (node.module or "") if isinstance(node, ast.ImportFrom) else node.names[0].name
            if module.split(".")[0] not in ("", "mergespace", "__future__"):
                found.add(ast.unparse(node))
    return sorted(found)


def test_start_up_loads_neither_dataclasses_nor_numpy():
    # in a fresh interpreter, since pytest itself loads dataclasses
    watched = ("dataclasses", "inspect", "numpy")
    before, after = loaded_in_a_fresh_interpreter(["successors", "--workspace", WORKSPACE], watched=watched)
    assert before <= after and not after & {"dataclasses", "numpy"}
    if "inspect" in after:
        # only where the standard library loads it for the imports of start-up
        # (importlib.resources does from Python 3.12 on)
        start_up = [p for p in (ROOT / "src" / "mergespace").glob("*.py") if f"mergespace.{p.stem}" not in NUMPY_SIDE]
        imports = outside_imports([p.read_text() for p in start_up] + [setup_snippet() + LOADED])
        code = "\n".join(imports + ["import sys", "print('inspect' in sys.modules)"])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "True", proc.stderr


# runs in a fresh interpreter, without the set-up snippet: builds the parser
# when argv is null, else runs main() on argv; then prints the package's
# modules loaded and whether fractions is
ONE_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from mergespace.cli import build_parser, main
argv = json.loads(sys.argv[2])
if argv is None:
    build_parser()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([[m for m in sys.modules if m.split(".")[0] == "mergespace"], "fractions" in sys.modules]))
"""


def loaded_by_one_command(argv) -> tuple:
    """The package's modules, as a set, and whether fractions is loaded, after
    a fresh interpreter has run argv alone (or only built the parser)."""
    proc = subprocess.run(
        [sys.executable, "-c", ONE_COMMAND, str(ROOT / "src"), json.dumps(argv)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules, fractions = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), fractions


ONE_COMMAND_CASES = [  # (argv, the models it loads, whether it loads fractions)
    (["enumerate", "--leaves", "a,b,c", "--format", "json"], (), False),
    (["successors", "--workspace", WORKSPACE, "--format", "json"], ("engine",), False),
    (["derive", "--script", str(SCRIPTS / "sixleaf_single.json")], ("engine", "costs"), True),
    (["costs", "--script", str(SCRIPTS / "amalgam_fc.json")], ("engine", "costs"), True),
    (["color-check", "--scenario", str(SCENARIOS / "theta_transitive.json")], ("coloring", "rulesets"), False),
]


@pytest.mark.parametrize(
    "argv, models, fractions",
    [
        pytest.param(None, (), False, id="build_parser"),
        *(pytest.param(*case, id=case[0][0]) for case in ONE_COMMAND_CASES),
    ],
)
def test_a_command_loads_only_the_models_it_runs(argv, models, fractions):
    want = {"mergespace", "mergespace.cli", "mergespace.forest", *(f"mergespace.{m}" for m in models)}
    assert loaded_by_one_command(argv) == (want, fractions)


def parser_option(command: str, flag: str) -> argparse.Action:
    """The action of one subcommand's option in the CLI's parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if flag in a.option_strings)


def test_parser_names_have_one_definition_each():
    # forest holds the names, so that building the parser loads no model
    assert parser_option("markov", "--regime").choices is forest.REGIMES is costs.REGIMES
    assert tuple(BUILTIN_RULESETS) == forest.RULESET_NAMES
    assert [get_ruleset(name).name for name in forest.RULESET_NAMES] == list(forest.RULESET_NAMES)
    assert parser_option("color-check", "--ruleset").help == f"a built-in rule set: {', '.join(sorted(BUILTIN_RULESETS))}"
