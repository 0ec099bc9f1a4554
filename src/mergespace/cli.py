"""Command-line surface.

Subcommands: enumerate, successors, graph, markov, costs, derive,
color-check, verify.  Exit code 0 on success, 1 on a domain error or a
failing verification item, 2 on usage errors.

Only graph, markov and verify need numpy, through `markov` and `verify`;
their commands import those modules when they run, so the others start
without loading numpy.  No module on their path loads the standard
library's dataclasses either.

The same rule holds for every model: at module level this module imports
only what every command runs, argparse, json and forest.  engine, costs
(and with it fractions), coloring and rulesets are imported by the commands
and helpers that call them, so enumerate loads no model, successors loads
engine, derive and costs load engine and costs, and color-check loads
coloring and rulesets.  build_parser runs for every command and loads none
of them: the --regime choices and the rule-set names come from forest.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from mergespace.forest import (
    REGIMES,
    RULESET_NAMES,
    DomainError,
    ForestError,
    Renderer,
    enumerate_forests,
    enumerate_trees,
    leaf_count_over,
    tree_from_json,
    workspace_from_json,
    workspace_to_text,
)


class InputError(DomainError):
    """A command-line option or input file that cannot be read or parsed."""


# `enumerate` refuses to list more structures than this.  Measured as whole
# processes on a 2-vCPU shared host: 27 006 forests (7 leaves) in 0.26 s
# and 38 MB peak RSS, 135 135 trees (8 leaves, --trees-only) in 1.8–2.0 s
# and 174 MB; the next sizes, 353 521 forests and 2 027 025 trees, are refused.
MAX_ENUMERATED = 150_000

# `successors` refuses a workspace whose steps would emit more leaves than
# this in all (Merge pairs times the workspace's leaves).  A pair bound
# alone is not enough: each step's output grows with the workspace.
# Measured as above, JSON output: a 50-leaf comb under --identity-sm
# --sibling-cut (2 497 steps, 125 k leaves) in 0.23–0.31 s and 71 MB; a
# 1 024-leaf balanced tree under --no-sm (2 044 steps, 2.1 M leaves, 46 MB of
# JSON), which the bound refuses, in 0.5–0.7 s and 370 MB with it lifted.
MAX_EMITTED_LEAVES = 150_000


def _add_common(p):
    p.add_argument("--no-im", dest="im", action="store_false", default=True)
    p.add_argument("--no-sm", dest="sm", action="store_false", default=True)
    p.add_argument("--identity-sm", action="store_true")
    p.add_argument("--sibling-cut", action="store_true")
    p.add_argument("--atomic-sm", action="store_true")


def _cfg(args, mode: str = "d"):
    """The MergeConfig of the flag options; the chains of graph and markov are mode d."""
    from mergespace.engine import MergeConfig

    return MergeConfig(
        mode=mode,
        allow_im=args.im,
        allow_sm=args.sm,
        allow_identity_sm=args.identity_sm,
        allow_sibling_cut=args.sibling_cut,
        atomic_sm_only=args.atomic_sm,
    )


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as exc:
            raise InputError(f"--out: cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


@functools.cache
def _cost_types() -> tuple:
    """(Fraction, CostVector), the types of a cost report that JSON lacks,
    imported on first use.  Import statements in _json_default itself would
    add about 2 µs to each such value of a report (2-vCPU host, Python
    3.11.7), some 15% of a `derive` request."""
    from fractions import Fraction

    from mergespace.costs import CostVector

    return Fraction, CostVector


def _json_default(obj):
    Fraction, CostVector = _cost_types()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CostVector):
        return {name: getattr(obj, name) for name in obj.__slots__}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_dumps = functools.partial(json.dumps, default=_json_default)


def _json_lines(items) -> str:
    """The JSON of a list from its items' JSON, one item per line."""
    return "[\n" + ",\n".join(items) + "\n]"


def _to_json(obj) -> str:
    """obj as JSON, with each top-level list item or dict entry on its own
    line.  Entries go through json's C encoder, which `indent` would bypass
    for the pure-Python one."""
    if isinstance(obj, dict):
        return "{\n" + ",\n".join(_dumps({k: v})[1:-1] for k, v in obj.items()) + "\n}"
    if isinstance(obj, list):
        return _json_lines(map(_dumps, obj))
    return _dumps(obj)


def _parse_json(option: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{option}: not valid JSON: {exc}") from None


def _read_json(option: str, path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise InputError(f"{option}: cannot read {path}: {exc.strerror}") from None
    return _parse_json(f"{option} {path}", text)


def cmd_enumerate(args):
    labels = args.leaves.split(",")
    what = "trees" if args.trees_only else "forests"
    over = leaf_count_over(labels, MAX_ENUMERATED, trees=args.trees_only, require_edge=not args.all)
    if over:
        raise ForestError(
            f"{len(labels)} leaves can give {over} {what}, over the enumeration bound {MAX_ENUMERATED}"
        )
    render = Renderer()
    if args.trees_only:
        found = enumerate_trees(labels)
        as_json, as_text = render.tree_json, render.tree_text
    else:
        found = enumerate_forests(labels, require_edge=not args.all)
        as_json, as_text = render.workspace_json, render.workspace_text
    if args.format == "json":
        _emit(_json_lines(map(as_json, found)), args.out)
    else:
        _emit("\n".join(map(as_text, found)) + f"\n# {len(found)} structures", args.out)
    return 0


def _pair_bound(ws) -> int:
    """At least the number of Merge pairs of ws under any flags: C(b, 2) EM
    pairs of its b components, α IM and α(b - 1) SM1 pairs of its α
    accessible terms, C(α, 2) SM2 and SM3 pairs and b ID pairs."""
    a, b = ws.alpha, ws.b0
    return b * (b - 1) // 2 + a * b + a * (a - 1) // 2 + b


def cmd_successors(args):
    from mergespace.engine import MergeError, all_merge_successors, merge_pairs

    ws = workspace_from_json(_parse_json("--workspace", args.workspace))
    cfg = _cfg(args, args.mode)
    limit = MAX_EMITTED_LEAVES // max(ws.degree, 1)
    if _pair_bound(ws) > limit and sum(1 for _ in islice(merge_pairs(ws, cfg), limit + 1)) > limit:
        raise MergeError(
            f"{ws.degree} leaves give more than {limit} Merge steps, over the bound of "
            f"{MAX_EMITTED_LEAVES} emitted leaves"
        )
    steps = all_merge_successors(ws, cfg)
    render = Renderer()
    if args.format == "json":
        # each row as _to_json writes {"tag", "output", "output_text"}
        rows = [
            f'{{"tag": "{s.tag}", "output": {output}, "output_text": {text}}}'
            for s in steps
            for output, text in [render.json_forms(s.output_ws)]
        ]
        _emit(_json_lines(rows), args.out)
    else:
        lines = [f"{s.tag:4} -> {render.workspace_text(s.output_ws)}" for s in steps]
        _emit("\n".join(lines) + f"\n# {len(steps)} successors", args.out)
    return 0


def _refuse_dense_early(labels: list) -> None:
    """Refuses a dense output before anything is built when the leaves give
    more states than a dense matrix may hold."""
    from mergespace.markov import MAX_DENSE_STATES, dense_refused

    over = leaf_count_over(labels, MAX_DENSE_STATES, require_edge=True)
    if over:
        raise dense_refused(over)


def cmd_graph(args):
    from mergespace.markov import build_graph, graph_dot, matrix_csv, strong_connectivity

    labels = args.leaves.split(",")
    if args.format != "dot":
        _refuse_dense_early(labels)
    g = build_graph(labels, _cfg(args), collapse_01=args.collapse)
    if args.format == "dot":
        _emit(graph_dot(g), args.out)
    elif args.format == "csv":
        _emit(matrix_csv(g), args.out)
    else:
        blob = {
            "vertices": [w.key for w in g.vertices],
            "matrix": g.K.tolist(),
            "scc": strong_connectivity(g),
        }
        _emit(_to_json(blob), args.out)
    return 0


def cmd_markov(args):
    from mergespace.markov import build_graph, matrix_csv, perron_frobenius, pf_to_json, weighted_matrix

    labels = args.leaves.split(",")
    if args.format == "csv":
        _refuse_dense_early(labels)
    if args.t is not None and not args.regime:
        raise InputError("-t weights a regime: give --regime with -t")
    if args.regime:
        g = weighted_matrix(labels, args.regime, 1.0 if args.t is None else args.t, _cfg(args))
    else:
        g = build_graph(labels, _cfg(args))
    if args.format == "csv":
        _emit(matrix_csv(g), args.out)
        return 0
    pf = perron_frobenius(g)
    blob = pf_to_json(pf)
    blob["vertices"] = [w.key for w in g.vertices]
    _emit(_to_json(blob), args.out)
    return 0


def _run_blob(blob):
    from mergespace.costs import derivation_cost, fc_cost_report
    from mergespace.engine import form_copy_quotient, load_form_copy, load_script, replay

    if isinstance(blob, dict) and "fc" in blob:
        tree, pairs, n_em = load_form_copy(blob["fc"])
        report = fc_cost_report(form_copy_quotient(tree, pairs), n_em_steps=n_em)
        report["kind"] = "quotient"
        return report
    deriv = replay(*load_script(blob))
    report = derivation_cost(deriv)
    report["kind"] = "derivation"
    report["final"] = workspace_to_text(deriv.final)
    return report


def cmd_derive(args):
    main = _run_blob(_read_json("--script", args.script))
    if args.compare:
        other = _run_blob(_read_json("--compare", args.compare))
        blob = {"first": main, "second": other}
        if main["kind"] == other["kind"] == "derivation":
            blob["comparison"] = {
                k: [str(main["totals"][k]), str(other["totals"][k])]
                for k in ("ms", "ms_ws", "my_d", "my_c", "cl", "cl_type")
            }
        _emit(_to_json(blob), args.out)
    else:
        _emit(_to_json(main), args.out)
    return 0


def cmd_costs(args):
    report = _run_blob(_read_json("--script", args.script))
    if args.format == "json":
        _emit(_to_json(report.get("totals", report)), args.out)
    elif "totals" not in report:
        raise InputError("--format csv: a FormCopy script's report has no totals to tabulate; use --format json")
    else:
        _emit("\n".join(["metric,value"] + [f"{k},{v}" for k, v in report["totals"].items()]), args.out)
    return 0


def cmd_color_check(args):
    from mergespace import coloring
    from mergespace.rulesets import get_ruleset

    if args.dump_ruleset:
        _emit(_to_json(coloring.ruleset_to_json(get_ruleset(args.dump_ruleset))), args.out)
        return 0
    if args.scenario:
        blob = _read_json("--scenario", args.scenario)
        rows = coloring.scenario_verdicts(blob)
        _emit(_to_json({"name": blob.get("name"), "cases": rows}), args.out)
        return 0 if all(r["ok"] for r in rows) else 1
    rs = get_ruleset(args.ruleset)
    if args.colored_tree:
        t = coloring.colored_tree_from_json(_parse_json("--colored-tree", args.colored_tree))
        ok, why = coloring.accepts(rs, t)
        _emit(_to_json({"accepted": ok, "failure": str(why) if not ok else None}), args.out)
        return 0
    if not args.tree:
        raise InputError("color-check needs --scenario, --tree, --colored-tree or --dump-ruleset")
    tree = tree_from_json(_parse_json("--tree", args.tree))
    constraints = _parse_json("--constraints", args.constraints) if args.constraints else None
    found = coloring.color_search(rs, tree, constraints)
    blob = {
        "colorings": len(found),
        "accepted": bool(found),
        "examples": [coloring.colored_tree_to_json(t) for t in found[:3]],
    }
    _emit(_to_json(blob), args.out)
    return 0


def cmd_verify(args):
    from mergespace.verify import run_verify

    report = run_verify(only=args.only)
    for r in report["items"]:
        mark = "PASS" if r["ok"] else "FAIL"
        line = f"{mark} [{r['group']}] {r['name']}"
        if not r["ok"] or args.verbose:
            line += f" | observed {r['observed']} expected {r['expected']}"
        print(line)
    print(f"{report['passed']}/{report['total']} checks passed")
    return 0 if report["ok"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # --help shows all of the docstring but its last paragraph, which is for readers of the code
    ap = argparse.ArgumentParser(prog="mergespace", description=__doc__.rsplit("\n\n", 1)[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="all trees/forests over a leaf multiset")
    p.add_argument("--leaves", required=True, help="comma separated labels")
    p.add_argument("--trees-only", action="store_true")
    p.add_argument("--all", action="store_true", help="include the edgeless forest")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("successors", help="one-step Merge successors of a workspace")
    p.add_argument("--workspace", required=True, help="workspace JSON")
    p.add_argument("--mode", choices=("c", "d"), default="d", help="coproduct flavor")
    _add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_successors)

    p = sub.add_parser("graph", help="state-space graph over a fixed leaf set")
    p.add_argument("--leaves", required=True)
    _add_common(p)
    p.add_argument("--collapse", action="store_true", help="clip multiplicities to 0/1")
    p.add_argument("--format", choices=("dot", "csv", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("markov", help="transition matrix and its eigendata")
    p.add_argument("--leaves", required=True)
    _add_common(p)
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("-t", type=float, help="weight parameter of --regime (default 1.0)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_markov)

    p = sub.add_parser("derive", help="replay a derivation script with full cost report")
    p.add_argument("--script", required=True)
    p.add_argument("--compare", help="second script for side-by-side totals")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("costs", help="cost totals of a derivation script")
    p.add_argument("--script", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_costs)

    p = sub.add_parser("color-check", help="run coloring scenarios or ad-hoc searches")
    p.add_argument("--scenario", help="scenario JSON path")
    p.add_argument("--ruleset", default="theta", help=f"a built-in rule set: {', '.join(sorted(RULESET_NAMES))}")
    p.add_argument("--tree", help="bare tree JSON")
    p.add_argument("--colored-tree", help="explicitly colored tree JSON")
    p.add_argument("--constraints", help="label -> allowed colors JSON")
    p.add_argument("--dump-ruleset", help="print a built-in rule set as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_color_check)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--only", help="substring filter on item groups")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # every recursion here follows tree depth, so only deep input gets here
        print(f"error: the input is nested too deeply (recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
