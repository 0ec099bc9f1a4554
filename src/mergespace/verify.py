"""One-shot verification suite.

Each item recomputes a published quantity from scratch and compares at the
stated tolerance: the 3-leaf transition matrices and their eigendata, the
weighted-chain closed forms, the resource tables, the worked derivation
costs, the violation hierarchy, the cocycle identities, strong
connectivity, and the coloring scenario corpus.  Items print one line each;
any failure flips the exit code.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np

from mergespace import coloring
from mergespace.costs import (
    EM_AFTER_SM_TABLE,
    REGIMES,
    CostError,
    HierarchyClass,
    classify_hierarchy,
    derivation_cost,
    fc_cost_report,
    ms_cost,
    rr_delta,
)
from mergespace.engine import (
    EM,
    SM1,
    MergeConfig,
    MergeError,
    _tag,
    all_merge_successors,
    apply,
    form_copy_quotient,
    load_form_copy,
    load_script,
    merge_pairs,
    replay,
)
from mergespace.forest import (
    DomainError,
    Node,
    enumerate_forests,
    enumerate_trees,
    leaf,
    node,
    workspace,
)
from mergespace.hopf import (
    insertion_cocycle_defect,
    insertion_delta,
    insertion_delta_ws,
    perturbed_grafter,
    verify_cocycle,
    ws_union,
)
from mergespace.markov import (
    REGIME_EXPONENTS,
    SERIES_T0_EXPONENT,
    asymptotic_check,
    build_graph,
    perron_frobenius,
    sector_deviation,
    strong_connectivity,
    structured_closed_form,
)
from mergespace.rulesets import get_ruleset

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


class Check:
    def __init__(self):
        self.rows = []

    def add(self, name, ok, observed, expected):
        self.rows.append(
            {"name": name, "ok": bool(ok), "observed": str(observed), "expected": str(expected)}
        )

    def equal(self, name, observed, expected):
        self.add(name, observed == expected, observed, expected)

    def close(self, name, observed, expected, tol):
        self.add(name, abs(observed - expected) <= tol, observed, f"{expected} (tol {tol})")

    def true(self, name, ok, detail=""):
        self.add(name, ok, detail or ok, True)


_DATA = resources.files("mergespace") / "data"


def _script(name: str) -> dict:
    return json.loads((_DATA / "scripts" / f"{name.replace('-', '_')}.json").read_text())


def _run_script(name: str):
    return replay(*load_script(_script(name)))


# ---------------------------------------------------------------------------
# items

def check_state_space(c: Check):
    K_X = np.array(
        [
            [0, 1, 1, 0, 1, 1],
            [1, 0, 1, 1, 0, 1],
            [1, 1, 0, 1, 1, 0],
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 1, 0],
        ],
        dtype=float,
    )
    K_prime = K_X.copy()
    K_prime[:3, :3] = 0
    g = build_graph("abc")
    c.equal("3-leaf state space has 6 vertices", g.n, 6)
    c.true("K matrix equals the published 6x6 (with internal moves)", np.array_equal(g.K, K_X))
    g2 = build_graph("abc", MergeConfig(mode="d", allow_im=False))
    c.true("K' matrix equals the published 6x6 (external+sideward only)", np.array_equal(g2.K, K_prime))
    g3 = build_graph("abc", MergeConfig(mode="d", allow_identity_sm=True))
    c.true("K'' equals Id + K", np.array_equal(g3.K, np.eye(6) + K_X))


def check_perron_frobenius(c: Check):
    pf = perron_frobenius(build_graph("abc"))
    c.close("lambda(K) = 2+sqrt(2)", pf.lam, 2 + SQRT2, 1e-9)
    want = np.array([SQRT2] * 3 + [1] * 3)
    cos = float(pf.eta @ want / (np.linalg.norm(pf.eta) * np.linalg.norm(want)))
    c.true("eta(K) proportional to (r2,r2,r2,1,1,1)", cos >= 1 - 1e-9, f"cosine={cos:.2e}")
    p, q, r = 1 / (2 + SQRT2), 1 / (2 + 2 * SQRT2), SQRT2 / (2 + SQRT2)
    hat = np.array(
        [
            [0, p, p, 0, q, q],
            [p, 0, p, q, 0, q],
            [p, p, 0, q, q, 0],
            [r, 0, 0, 0, p, p],
            [0, r, 0, p, 0, p],
            [0, 0, r, p, p, 0],
        ]
    )
    c.true("normalized chain matches the published entries", np.allclose(pf.K_hat, hat, atol=1e-9))
    c.true(
        "normalized chain is bistochastic",
        np.allclose(pf.K_hat.sum(axis=0), 1, atol=1e-10)
        and np.allclose(pf.K_hat.sum(axis=1), 1, atol=1e-10),
    )
    c.true("stationary distribution is uniform 1/6", np.allclose(pf.xi, 1 / 6, atol=1e-9))
    pf2 = perron_frobenius(build_graph("abc", MergeConfig(mode="d", allow_im=False)))
    c.close("lambda(K') = 1+sqrt(3)", pf2.lam, 1 + SQRT3, 1e-9)
    want_xi = np.array([2 - SQRT3] * 3 + [1] * 3) / (3 * (3 - SQRT3))
    c.true(
        "stationary of K' proportional to (2-r3,...,1,1,1)",
        np.allclose(pf2.xi, want_xi, atol=1e-9),
    )
    pf3 = perron_frobenius(build_graph("abc", MergeConfig(mode="d", allow_identity_sm=True)))
    c.close("lambda(K'') = 3+sqrt(2)", pf3.lam, 3 + SQRT2, 1e-9)
    c.true(
        "K'' normalized chain bistochastic, same scaling vector",
        np.allclose(pf3.K_hat.sum(axis=0), 1, atol=1e-10)
        and float(pf3.eta @ want / (np.linalg.norm(pf3.eta) * np.linalg.norm(want))) >= 1 - 1e-9,
    )


def check_weighted_chains(c: Check):
    for regime in REGIMES:
        bad = None
        for t in (0.1, 0.5, 0.9):
            edge = sector_deviation(build_graph("abc", regime=regime, t=t), regime, t)
            if edge is not None:
                bad = f"t = {t}: edge {edge}"
                break
        c.true(f"{regime} weighting matches the sector exponents symbolically", bad is None, bad)
    for regime in REGIMES:
        a, b, cc = REGIME_EXPONENTS[regime]
        worst = 0.0
        for t in np.linspace(0.05, 1.0, 20):
            pf = perron_frobenius(build_graph("abc", regime=regime, t=float(t)))
            cf = structured_closed_form(a, b, cc, float(t))
            worst = max(worst, abs(pf.lam - cf["lam"]), float(np.abs(pf.xi - cf["xi"]).max()))
        c.true(
            f"{regime} closed form matches power iteration on a 20-point grid",
            worst <= 1e-9,
            f"worst dev {worst:.2e}",
        )
    a, b, cc = REGIME_EXPONENTS["my"]
    vs = [structured_closed_form(a, b, cc, t)["v"] for t in np.linspace(0.05, 2.0, 20)]
    c.true("resource-weighted stationary ratio v = 1 for all t", max(abs(v - 1) for v in vs) <= 1e-12)
    for regime in ("ms", "cl", "total"):
        rep = asymptotic_check(regime)
        c.true(
            f"{regime} small-t disconnected exponent fits {SERIES_T0_EXPONENT[regime]} (series form)",
            rep["series_exponent_ok"],
            f"fit {rep['series_exponent']:.4f}, structured closed-form slope {rep['exact_exponent']:.4f}",
        )
        c.true(f"{regime} t->1 limit uniform within 1e-6", rep["t1_limit_ok"])
        c.true(f"{regime} t->0 limit concentrates on connected structures", rep["t0_limit_ok"])


def _small_steps() -> list:
    """(state, mode, step) for every step out of every 3- and 4-leaf forest
    in both modes."""
    return [
        (ws, mode, s)
        for labels in ("abc", "abcd")
        for ws in enumerate_forests(labels)
        for mode in ("d", "c")
        for s in all_merge_successors(ws, MergeConfig(mode=mode))
    ]


def check_rr_tables(c: Check):
    steps = _small_steps()
    try:
        for _, _, s in steps:
            rr_delta(s)  # raises on any deviation from the table
        ok, count = True, len(steps)
    except CostError as exc:  # pragma: no cover - failure reporting
        ok, count = False, str(exc)
    c.true("every 3- and 4-leaf successor matches its resource table row", ok, f"{count} steps")
    composite_ok = True
    checked = 0
    for ws, mode, sm in steps:
        if not sm.tag.startswith("SM"):
            continue
        built_key = Node(*sm.pair).key
        for em in _steps_tagged(sm.output_ws, EM, mode):
            if built_key not in {t.key for t in em.pair}:
                continue
            out = em.output_ws
            got = (out.b0 - ws.b0, out.alpha - ws.alpha, out.sigma - ws.sigma)
            composite_ok &= got == EM_AFTER_SM_TABLE[(sm.tag, mode)]
            checked += 1
    c.true("external-after-sideward composites match their table rows", composite_ok, f"{checked} composites")


def check_cost_facts(c: Check):
    ok = all((ms_cost(s) == 0) == (s.tag in ("EM", "IM")) for _, _, s in _small_steps())
    c.true("search cost vanishes exactly for external and internal merge", ok)
    single = derivation_cost(_run_script("sixleaf-single"))
    triple = derivation_cost(_run_script("sixleaf-triple"))
    c.equal("6-leaf single extraction path costs 1/3", single["totals"]["ms"], Fraction(1, 3))
    c.equal(
        "6-leaf repeated path costs 4/3 (workspace-grading accounting)",
        triple["totals"]["ms_ws"],
        Fraction(4, 3),
    )
    c.true(
        "repeated extraction costs more under both accountings",
        single["totals"]["ms"] < triple["totals"]["ms"]
        and single["totals"]["ms_ws"] < triple["totals"]["ms_ws"],
        f"per-component total {triple['totals']['ms']}",
    )
    sm = derivation_cost(_run_script("amalgam-sm"))
    c.equal("amalgam sideward path: search total 2/3+3/5", sm["totals"]["ms"], Fraction(19, 15))
    c.equal("amalgam sideward path: resource total 5 (deletion)", sm["totals"]["my_d"], 5)
    c.equal("amalgam sideward path: resource total 7 (contraction)", sm["totals"]["my_c"], 7)
    c.equal("amalgam sideward path: complexity loss 2 (per-operation)", sm["totals"]["cl_type"], 2)
    tree, pairs, n_em = load_form_copy(_script("amalgam_fc")["fc"])
    graph = form_copy_quotient(tree, pairs)
    fc = fc_cost_report(graph, n_em_steps=n_em)
    c.equal("copy-identification quotient: vertex history", graph.history, [17, 14, 13])
    c.equal(
        "copy-identification search cost 14/17 + 13/14",
        fc["ms"],
        Fraction(14, 17) + Fraction(13, 14),
    )
    c.equal("copy-identification complexity loss 3", fc["cl"], 3)
    c.true(
        "quotient route costs more than the sideward route (search)",
        sm["totals"]["ms"] < fc["ms"],
        f"{float(sm['totals']['ms']):.3f} vs {float(fc['ms']):.3f}",
    )
    c.equal(
        "quotient resource totals offered in both readings",
        (fc["my_quotient"], fc["my_em"]),
        (4, 8),
    )


def _random_tree(rng, labels):
    trees = [leaf(x) for x in labels]
    while len(trees) > 1:
        a = trees.pop(rng.randrange(len(trees)))
        b = trees.pop(rng.randrange(len(trees)))
        trees.append(node(a, b))
    return trees[0]


def _steps_tagged(ws, tag: str, mode: str = "d") -> list:
    """The steps of ws with one tag, in merge_pairs order; the tag is read
    off each source pair, so no other step is built."""
    return [apply(ws, a, b, mode) for a, b in merge_pairs(ws, MergeConfig(mode=mode)) if _tag(a, b) == tag]


def check_hierarchy(c: Check):
    host = node(node(leaf("a"), leaf("b")), leaf("c"))
    phrase = node(node(leaf("p"), leaf("q")), leaf("r"))
    cases = [
        ("a", leaf("z"), HierarchyClass.HEAD_TO_HEAD, (1, 1)),
        ("a", phrase, HierarchyClass.HEAD_TO_PHRASE, (1, 3)),
        ("(a|b)", leaf("z"), HierarchyClass.PHRASE_TO_HEAD, (2, 1)),
        ("(a|b)", phrase, HierarchyClass.PHRASE_TO_PHRASE, (2, 3)),
    ]
    ok = True
    seen = []
    for key, other, want_cls, want_prof in cases:
        ws = workspace(host, other)
        other_key = other.key
        deriv = replay(
            ws,
            [
                {"op": "SM1", "args": [{"key": key}, {"key": other_key}]},
                {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
            ],
        )
        cls, prof = classify_hierarchy(deriv.steps[0], deriv.steps[1])
        ok &= (cls, prof) == (want_cls, want_prof)
        seen.append((cls.value, prof))
    c.true("four movement classes carry the expected violation profiles", ok, seen)
    rng = random.Random(20240808)
    pointwise = True
    compared = hosts = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        host = _random_tree(rng, [f"x{i}" for i in range(n)])
        other = _random_tree(rng, [f"y{i}" for i in range(rng.randint(1, 4))])
        ws = workspace(host, other)
        profiles = {}
        for sm in _steps_tagged(ws, SM1):
            if sm.extractions[0][1].key != host.key:
                continue
            for em in _steps_tagged(sm.output_ws, EM):
                cls, prof = classify_hierarchy(sm, em)
                profiles.setdefault(cls, []).append(prof)
        h2h = profiles.get(HierarchyClass.HEAD_TO_HEAD, [])
        others = [p for k, v in profiles.items() if k is not HierarchyClass.HEAD_TO_HEAD for p in v]
        for hp in h2h:
            for op in others:
                pointwise &= hp[0] <= op[0] and hp[1] <= op[1]
        compared += len(h2h) * len(others)
        hosts += bool(h2h and others)
    # a row that compared no pair would pass without evidence
    c.true(
        "head-to-head profile pointwise minimal over random hosts",
        pointwise and compared > 0,
        f"{compared} profile pairs on {hosts} of 60 hosts",
    )


def check_cocycles(c: Check):
    rep = verify_cocycle(4)
    # negative control: the check must be able to fail
    bad = verify_cocycle(4, grafter=perturbed_grafter("a"))
    c.true(
        "grafting cocycle identity exact for all labeled forests to 4 vertices",
        rep["ok"] and not bad["ok"],
        f"{rep['checked']} cases; perturbed grafting {'passes' if bad['ok'] else 'fails'} after {bad['checked']}",
    )
    a, b = leaf("a"), leaf("b")
    t1, t2 = node(a, b), node(node(a, leaf("c")), b)
    lhs = insertion_delta_ws(workspace(t1, t2), "x")
    rhs = Counter()
    for w, coef in insertion_delta(t1, "x").items():
        rhs[ws_union(w, workspace(t2))] += coef
    for w, coef in insertion_delta(t2, "x").items():
        rhs[ws_union(w, workspace(t1))] += coef
    c.true("edge insertion is a derivation for the product", lhs == rhs)
    t = node(node(a, b), leaf("c"))
    defect = insertion_cocycle_defect(t, "x")
    cherry = node(a, b)
    inserted = {w.components[0].key for w in insertion_delta(cherry, "x")}
    witness = [
        (l, r) for (l, r) in defect if l.b0 == 1 and l.components[0].key in inserted
    ]
    c.true(
        "edge insertion fails the cocycle identity with the documented witness",
        bool(defect) and bool(witness),
        f"{len(defect)} defect terms",
    )


def check_strong_connectivity(c: Check):
    for labels in ("abc", "abcd", "abcde"):
        for im in (False, True):
            for atomic in (False, True):
                g = build_graph(labels, MergeConfig(mode="d", allow_im=im, atomic_sm_only=atomic))
                rep = strong_connectivity(g)
                tag = f"{len(labels)} leaves, {'with' if im else 'no'} IM, {'atomic' if atomic else 'full'} SM"
                c.equal(f"strongly connected ({tag})", rep["scc_count"], 1)
    g = build_graph("abc", MergeConfig(mode="d", allow_im=False, allow_sm=False))
    rep = strong_connectivity(g)
    c.true("external merge alone is not strongly connected", rep["scc_count"] > 1, f"{rep['scc_count']} components")


def check_coloring_scenarios(c: Check):
    scenarios = (r for r in (_DATA / "scenarios").iterdir() if r.name.endswith(".json"))
    for ref in sorted(scenarios, key=lambda r: r.name):
        blob = json.loads(ref.read_text())
        rows = coloring.scenario_verdicts(blob)
        detail = " ".join(f"{r['ruleset']}:{r['verdict']}({r['colorings']})" for r in rows)
        c.true(f"scenario {blob['name']}", all(r["ok"] for r in rows), detail)
    # the shipped scripts' counts, not a minimum: with IM on, clusters 3
    # and 4 also have derivations with one sideward step
    counts = []
    for size in (2, 3, 4):
        deriv = _run_script(f"clitic_cluster_{size}")
        counts.append(sum(1 for s in deriv.steps if s.tag.startswith("SM")))
    c.equal("clitic-cluster scripts 2-4 use 1, 2 and 3 sideward steps", counts, [1, 2, 3])
    ws, steps, mode, _ = load_script(_script("korean_pac"))
    try:
        replay(ws, steps, mode)
        gated = False
    except MergeError:
        gated = True
    built = replay(ws, steps, mode, allow_sibling_cut=True)
    c.true(
        "double-accusative cluster needs the two-edges-below-one-vertex cut",
        gated and len(built.steps) == 2,
    )
    eq_ok = True
    pools = {
        "theta": (
            {"ea": ["th_E"], "vb": ["head:EI"], "ia": ["th_I"], "ad": ["th0'"], "u": ["slot:th0"]},
            (["ea", "vb", "ia"], ["ea", "vb", "ia", "ad"], ["ea", "vb", "ia", "ad", "u"]),
        ),
        "phase+split": (
            {"koj": ["c(v)"], "kakvo": ["c(v)"], "u": ["slot:m"], "e": ["h_zs(C)"], "kupil": ["z(C)"]},
            (["koj", "u", "kupil"], ["koj", "u", "e", "kupil"], ["koj", "u", "kakvo", "e", "kupil"]),
        ),
    }
    checked = 0
    for rs_name, (constraints, label_sets) in pools.items():
        rs = get_ruleset(rs_name)
        for labels in label_sets:
            for tree in enumerate_trees(labels):
                filt = bool(coloring.color_search(rs, tree, constraints))
                built_ok = coloring.reachable_by_colored_merge(rs, tree, constraints)
                eq_ok &= filt == built_ok
                checked += 1
    c.true(
        "filtering equals color-constrained building (3-5 leaves, both rule sets)",
        eq_ok,
        f"{checked} trees",
    )


ITEMS = [
    ("state-space", check_state_space),
    ("perron-frobenius", check_perron_frobenius),
    ("weighted-chains", check_weighted_chains),
    ("rr-tables", check_rr_tables),
    ("cost-facts", check_cost_facts),
    ("hierarchy", check_hierarchy),
    ("cocycles", check_cocycles),
    ("markov", check_strong_connectivity),
    ("coloring", check_coloring_scenarios),
]


class VerifyError(DomainError):
    """A verify request that names no check group."""


def run_verify(only: str | None = None) -> dict:
    groups = [group for group, _ in ITEMS]
    if only is not None and not any(only in group for group in groups):
        raise VerifyError(f"--only {only!r} matches no check group; groups: {', '.join(groups)}")
    rows = []
    for group, fn in ITEMS:
        if only and only not in group:
            continue
        c = Check()
        fn(c)
        for row in c.rows:
            row["group"] = group
            rows.append(row)
    passed = sum(1 for r in rows if r["ok"])
    return {"items": rows, "passed": passed, "total": len(rows), "ok": passed == len(rows)}
