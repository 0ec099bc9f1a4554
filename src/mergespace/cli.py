"""Command-line surface.

Subcommands: enumerate, successors, graph, markov, costs, derive,
color-check, verify.  Exit code 0 on success, 1 on a domain error or a
failing verification item, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mergespace import coloring as coloring_mod
from mergespace.coloring import ColoringError, color_search, ruleset_to_json
from mergespace.costs import CostError, derivation_cost, fc_cost_report
from mergespace.engine import (
    ECViolation,
    MergeConfig,
    MergeError,
    all_merge_successors,
    form_copy_quotient,
    load_form_copy,
    load_script,
    replay,
)
from mergespace.forest import (
    ForestError,
    double_factorial,
    enumerate_forests,
    enumerate_trees,
    forest_count,
    tree_from_json,
    tree_to_text,
    workspace_from_json,
    workspace_to_json,
    workspace_to_text,
)
from mergespace.markov import (
    MarkovError,
    build_graph,
    check_dense,
    graph_dot,
    matrix_csv,
    perron_frobenius,
    pf_to_json,
    strong_connectivity,
    weighted_matrix,
)
from mergespace.rulesets import BUILTIN_RULESETS, get_ruleset
from mergespace.verify import ITEMS, run_verify


class InputError(ValueError):
    """A command-line option or input file that cannot be read or parsed."""


DOMAIN_ERRORS = (ForestError, MergeError, ECViolation, CostError, MarkovError, ColoringError, InputError)

# `enumerate` refuses to list more structures than this.  Measured on one
# core: 27 006 forests (7 leaves) in 1.3 s and 68 MB, 135 135 trees
# (8 leaves, --trees-only) in 3.8 s and 110 MB; the next sizes, 353 521
# forests and 2 027 025 trees, are refused.
MAX_ENUMERATED = 150_000


def _add_common(p):
    p.add_argument("--mode", choices=("c", "d"), default="d", help="coproduct flavor")
    p.add_argument("--im", dest="im", action="store_true", default=True)
    p.add_argument("--no-im", dest="im", action="store_false")
    p.add_argument("--no-sm", dest="sm", action="store_false", default=True)
    p.add_argument("--identity-sm", action="store_true")
    p.add_argument("--sibling-cut", action="store_true")
    p.add_argument("--atomic-sm", action="store_true")


def _cfg(args) -> MergeConfig:
    return MergeConfig(
        mode=args.mode,
        allow_im=args.im,
        allow_sm=args.sm,
        allow_identity_sm=args.identity_sm,
        allow_sibling_cut=args.sibling_cut,
        atomic_sm_only=args.atomic_sm,
    )


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return obj


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
    n = len(labels)
    count = double_factorial(2 * n - 3) if args.trees_only else forest_count(n) - (not args.all)
    if count > MAX_ENUMERATED:
        what = "trees" if args.trees_only else "forests"
        raise ForestError(
            f"{n} leaves give up to {count} {what}, over the enumeration bound {MAX_ENUMERATED}"
        )
    if args.trees_only:
        trees = enumerate_trees(labels)
        items = [tree_to_text(t) for t in trees]
        blobs = [t.key for t in trees]
    else:
        forests = enumerate_forests(labels, require_edge=not args.all)
        items = [workspace_to_text(w) for w in forests]
        blobs = [workspace_to_json(w) for w in forests]
    if args.format == "json":
        _emit(json.dumps(blobs, indent=1), args.out)
    else:
        _emit("\n".join(items) + f"\n# {len(items)} structures", args.out)
    return 0


def cmd_successors(args):
    ws = workspace_from_json(_parse_json("--workspace", args.workspace))
    steps = all_merge_successors(ws, _cfg(args))
    rows = [
        {
            "tag": s.tag,
            "output": workspace_to_json(s.output_ws),
            "output_text": workspace_to_text(s.output_ws),
        }
        for s in steps
    ]
    if args.format == "json":
        _emit(json.dumps(rows, indent=1), args.out)
    else:
        lines = [f"{r['tag']:4} -> {r['output_text']}" for r in rows]
        _emit("\n".join(lines) + f"\n# {len(rows)} successors", args.out)
    return 0


def _refuse_dense_early(labels: list) -> None:
    """Refuses a dense output before anything is built when distinct labels
    give more states than a dense matrix may hold.  A leaf multiset has
    fewer states than forest_count; MAX_STATES bounds its build, and the
    dense view refuses it after the build."""
    if len(set(labels)) == len(labels):
        check_dense(forest_count(len(labels)) - 1)


def cmd_graph(args):
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
            "scc": strong_connectivity(g, witness=False),
        }
        _emit(json.dumps(blob, indent=1), args.out)
    return 0


def cmd_markov(args):
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
    _emit(json.dumps(blob, indent=1), args.out)
    return 0


def _run_blob(blob):
    if isinstance(blob, dict) and "fc" in blob:
        tree, pairs, n_em = load_form_copy(blob["fc"])
        report = fc_cost_report(form_copy_quotient(tree, pairs), n_em_steps=n_em)
        report["kind"] = "quotient"
        return report
    deriv = replay(*load_script(blob))
    report = derivation_cost(deriv)
    report["kind"] = "derivation"
    report["final"] = workspace_to_text(deriv.final)
    report["steps"] = [v.as_dict() for v in report["steps"]]
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
        _emit(json.dumps(_jsonable(blob), indent=1), args.out)
    else:
        _emit(json.dumps(_jsonable(main), indent=1), args.out)
    return 0


def cmd_costs(args):
    report = _run_blob(_read_json("--script", args.script))
    totals = report.get("totals", report)
    if args.format == "csv" and "totals" in report:
        lines = ["metric,value"] + [f"{k},{v}" for k, v in _jsonable(totals).items()]
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(_jsonable(totals), indent=1), args.out)
    return 0


def cmd_color_check(args):
    if args.dump_ruleset:
        _emit(json.dumps(ruleset_to_json(get_ruleset(args.dump_ruleset)), indent=1), args.out)
        return 0
    if args.scenario:
        blob = _read_json("--scenario", args.scenario)
        rows = coloring_mod.scenario_verdicts(blob)
        _emit(json.dumps({"name": blob.get("name"), "cases": rows}, indent=1), args.out)
        return 0 if all(r["ok"] for r in rows) else 1
    rs = get_ruleset(args.ruleset)
    if args.colored_tree:
        t = coloring_mod.colored_tree_from_json(_parse_json("--colored-tree", args.colored_tree))
        ok, why = coloring_mod.accepts(rs, t)
        _emit(json.dumps({"accepted": ok, "failure": str(why) if not ok else None}), args.out)
        return 0
    if not args.tree:
        raise InputError("color-check needs --scenario, --tree, --colored-tree or --dump-ruleset")
    tree = tree_from_json(_parse_json("--tree", args.tree))
    constraints = _parse_json("--constraints", args.constraints) if args.constraints else None
    found = color_search(rs, tree, constraints)
    blob = {
        "colorings": len(found),
        "accepted": bool(found),
        "examples": [coloring_mod.colored_tree_to_json(t) for t in found[:3]],
    }
    _emit(json.dumps(blob, indent=1), args.out)
    return 0


def cmd_verify(args):
    groups = [group for group, _ in ITEMS]
    if args.only is not None and not any(args.only in group for group in groups):
        raise InputError(f"--only {args.only!r} matches no check group; groups: {', '.join(groups)}")
    report = run_verify(only=args.only)
    for r in report["items"]:
        mark = "PASS" if r["ok"] else "FAIL"
        line = f"{mark} [{r['group']}] {r['name']}"
        if not r["ok"] or args.verbose:
            line += f" | observed {r['observed']} expected {r['expected']}"
        print(line)
    print(f"{report['passed']}/{report['total']} checks passed")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mergespace", description=__doc__)
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
    p.add_argument("--regime", choices=("ms", "my", "cl", "total"))
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
    p.add_argument("--ruleset", default="theta", help=f"a built-in rule set: {', '.join(sorted(BUILTIN_RULESETS))}")
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
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
