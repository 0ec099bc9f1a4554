import json
from pathlib import Path

import pytest

from mergespace.cli import main
from mergespace.forest import workspace_from_json

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


class TestSuccessors:
    def test_cherry_pair(self, capsys):
        code, out, _ = run(
            capsys, "successors", "--workspace", '["a", "b"]', "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["tag"] == "EM"


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
        code, _, err = run(capsys, "graph", "--leaves", "a,b,c,d,e,f,g")
        assert code == 1

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


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "state-space")
        assert code == 0 and "PASS" in out and "FAIL" not in out

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
