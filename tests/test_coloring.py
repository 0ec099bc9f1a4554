import itertools
import json
from pathlib import Path

import pytest

from mergespace import coloring
from mergespace.coloring import (
    WILDCARD,
    CLeaf,
    CNode,
    ColoringError,
    Generator,
    RuleSet,
    accepts,
    bare,
    candidate_table,
    color_search,
    colored_tree_from_json,
    colored_tree_to_json,
    reachable_by_colored_merge,
    ruleset_to_json,
    theta_criterion,
)
from mergespace.engine import MergeError, replay
from mergespace.forest import Leaf, Node, enumerate_trees, positions, tree_from_json, workspace_from_json
from mergespace.rulesets import BUILTIN_RULESETS, get_ruleset

DATA = Path(__file__).resolve().parent.parent / "src" / "mergespace" / "data"


def load_scenarios():
    out = []
    for path in sorted((DATA / "scenarios").glob("*.json")):
        blob = json.loads(path.read_text())
        for case in blob["cases"]:
            out.append((blob, case))
    return out


def scenario_id(pair):
    blob, case = pair
    return f"{blob['name']}:{case['ruleset']}"


class TestScenarios:
    @pytest.mark.parametrize("pair", load_scenarios(), ids=scenario_id)
    def test_expected_verdict(self, pair):
        blob, case = pair
        rs = get_ruleset(case["ruleset"])
        tree = tree_from_json(blob["tree"])
        found = color_search(rs, tree, blob["constraints"])
        if case["expect"] == "accept":
            assert found, f"{blob['name']} rejected by {rs.name}"
            if "min_colorings" in case:
                assert len(found) >= case["min_colorings"]
            if case.get("max_colorings") is not None:
                assert len(found) <= case["max_colorings"]
            for colored in found:
                ok, why = accepts(rs, colored)
                assert ok, why
        else:
            assert not found, f"{blob['name']} wrongly accepted by {rs.name}"


class TestAccepts:
    def test_unbalanced_vertex_rejected_with_position(self):
        rs = get_ruleset("theta")
        t = CNode("th_E", CLeaf("x", "th_E"), CLeaf("y", "th_I"))
        ok, where = accepts(rs, t)
        assert not ok and where == ()

    def test_landing_vertex_matches_wildcard(self):
        rs = get_ruleset("theta")
        t = CNode("th0", CLeaf("who", "th0'"), CLeaf("1", "slot:th0"))
        ok, _ = accepts(rs, t)
        assert ok

    def test_unknown_color_errors(self):
        rs = get_ruleset("theta")
        with pytest.raises(ColoringError):
            accepts(rs, CLeaf("x", "no-such-color"))

    def test_composite_rule_set_names_the_uncovered_vertex(self):
        # the edge cluster is a composite body; the head projection below the
        # root is no generator root over (h_zs(C), z(D))
        rs = get_ruleset("phase+composite")
        wrap = lambda lab: CNode("s(C)", CLeaf("1", "slot:m"), CLeaf(lab, "c(v)"))
        cluster = CNode("s(C)", wrap("kakvo"), wrap("koj"))
        good = CNode("s(TOP)", cluster, CNode("h_s(C)", CLeaf("e", "h_zs(C)"), CLeaf("kupil", "z(C)")))
        bad = CNode("s(TOP)", cluster, CNode("h_s(C)", CLeaf("e", "h_zs(C)"), CLeaf("kupil", "z(D)")))
        assert accepts(rs, good) == (True, None)
        assert accepts(rs, bad) == (False, (1,))
        # a body whose plugged-in subtree fails is blamed at its own root
        rejected = CNode("z(C)", CLeaf("koj", "c(v)"), CLeaf("x", "m"))
        bad_body = CNode(
            "s(TOP)", CNode("s(C)", wrap("kakvo"), CNode("s(C)", CLeaf("1", "slot:m"), rejected)), good.right
        )
        assert accepts(rs, bad_body) == (False, (0,))

    def test_wh_cluster_vertex(self):
        rs = get_ruleset("phase+split")
        wrap = lambda lab: CNode(
            "shat(C)", CLeaf(lab, "c(v)"), CLeaf("1", "slot:m")
        )
        cluster = CNode("s(C)", wrap("koj"), wrap("kakvo"))
        ok, _ = accepts(rs, cluster)
        assert ok


class TestThetaCriterion:
    def test_transitive_passes(self):
        rs = get_ruleset("theta")
        t = CNode(
            "clause",
            CLeaf("EA", "th_E"),
            CNode("pred:E", CLeaf("V", "head:EI"), CLeaf("IA", "th_I")),
        )
        assert theta_criterion(rs, t)

    def test_nontheta_pair_without_traces_fails(self):
        # the one-shot non-role pairing used by a plain external merge leaves
        # the injected counts unbalanced
        rs = get_ruleset("theta+sm1")
        t = CNode("th0", CLeaf("a", "th_E"), CLeaf("b", "th_I"))
        ok, why = accepts(rs, t)
        assert not ok and why == "theta"

    def test_single_leaf_passes(self):
        rs = get_ruleset("theta")
        assert theta_criterion(rs, CLeaf("x", "th0"))

    def test_trace_held_roles_count(self):
        rs = get_ruleset("theta")
        t = CNode(
            "clause",
            CNode("th0", CLeaf("who", "th0"), CLeaf("1", "slot:th0")),
            CNode(
                "clause",
                CLeaf("John", "th_E"),
                CNode("pred:E", CLeaf("sees", "head:EI"), CLeaf("who", "th_I", trace=True)),
            ),
        )
        ok, _ = accepts(rs, t)
        assert ok


class TestCliticDerivations:
    @pytest.mark.parametrize("size,expected_sm", [(2, 1), (3, 2), (4, 3)])
    def test_cluster_sm_counts_increase(self, size, expected_sm):
        blob = json.loads((DATA / "scripts" / f"clitic_cluster_{size}.json").read_text())
        ws = workspace_from_json(blob["initial"])
        deriv = replay(ws, blob["steps"], blob["mode"], **blob["flags"])
        sm_steps = sum(1 for s in deriv.steps if s.tag.startswith("SM"))
        assert sm_steps == expected_sm == blob["expect"]["sm_steps"]

    def test_counts_strictly_increasing(self):
        counts = []
        for size in (2, 3, 4):
            blob = json.loads((DATA / "scripts" / f"clitic_cluster_{size}.json").read_text())
            ws = workspace_from_json(blob["initial"])
            deriv = replay(ws, blob["steps"], blob["mode"], **blob["flags"])
            counts.append(sum(1 for s in deriv.steps if s.tag.startswith("SM")))
        assert counts == sorted(set(counts))


class TestKoreanPAC:
    def test_needs_sibling_cut(self):
        blob = json.loads((DATA / "scripts" / "korean_pac.json").read_text())
        ws = workspace_from_json(blob["initial"])
        with pytest.raises(MergeError):
            replay(ws, blob["steps"], "d")
        deriv = replay(ws, blob["steps"], "d", allow_sibling_cut=True)
        assert sum(1 for s in deriv.steps if s.tag == "SM3") == 1

    def test_dual_coloring_count(self):
        blob = json.loads((DATA / "scenarios" / "korean_pac_dual.json").read_text())
        rs = get_ruleset("korean-pac")
        found = color_search(rs, tree_from_json(blob["tree"]), blob["constraints"])
        assert len(found) == 2


def reference_roots(rs, a, b):
    return {g.root for g in rs.generators if g.child_pairs(a, b)}


WILDCARD_RULESET = RuleSet(
    name="wild",
    colors={"x", "y", "z", "r"},
    generators=[
        Generator("r", ("*", "x")),
        Generator("z", ("*", "*")),
        Generator("y", ("x", "y")),
        Generator("x", ("y", "y")),
    ],
)


class TestGeneratorIndex:
    def test_builtin_rulesets_match_every_generator(self):
        pairs = 0
        for name in BUILTIN_RULESETS:
            rs = get_ruleset(name)
            for a in sorted(rs.colors):
                for b in sorted(rs.colors):
                    assert rs.roots(a, b) == reference_roots(rs, a, b), (name, a, b)
                    pairs += 1
        assert pairs == 10907

    def test_wildcard_buckets(self):
        rs = WILDCARD_RULESET
        for a in sorted(rs.colors):
            for b in sorted(rs.colors):
                assert rs.roots(a, b) == reference_roots(rs, a, b), (a, b)
        assert rs.roots("x", "r") == {"r", "z"}
        assert rs.roots("y", "x") == {"r", "y", "z"}
        assert rs.roots("z", "z") == {"z"}

    def test_generators_and_composites_are_tuples(self):
        rs = get_ruleset("phase+composite")
        assert isinstance(rs.generators, tuple) and isinstance(rs.composites, tuple)
        # each body is an edge vertex over two unit-move wrappers
        assert len(rs.composites) == 7 and sum(len(internal_body_vertices(p)) for p in rs.composites) == 21

    def test_generator_and_body_colors_are_known(self):
        # color_search checks no candidate's colors: they come from here
        for name in BUILTIN_RULESETS:
            rs = get_ruleset(name)
            used = {c for g in rs.generators for c in (g.root,) + g.children}
            used |= {c for p in rs.composites for c in body_colors(p)}
            assert used - {WILDCARD} <= rs.colors, name

    @pytest.mark.parametrize("name", sorted(BUILTIN_RULESETS))
    def test_candidate_roots_equal_fragment_scan(self, name, monkeypatch):
        # every vertex of every scenario tree, every child-color pair that
        # candidate_table reaches, with the scenario's constraints where the
        # rule set knows their colors and unconstrained otherwise
        rs = get_ruleset(name)
        fragments = [q for p in rs.composites for q in internal_body_vertices(p)]
        indexed = RuleSet.candidate_roots
        calls = []

        def checked(self, t, cl, cr):
            got = indexed(self, t, cl, cr)
            assert got == reference_vertex_roots(self, fragments, t, cl, cr), (t.key, cl, cr)
            calls.append(got)
            return got

        monkeypatch.setattr(RuleSet, "candidate_roots", checked)
        for path in sorted((DATA / "scenarios").glob("*.json")):
            blob = json.loads(path.read_text())
            constraints = blob["constraints"]
            if not all(rs.known(c) for allowed in constraints.values() for c in allowed):
                constraints = None
            candidate_table(rs, tree_from_json(blob["tree"]), constraints)
        assert calls


def body_colors(p):
    return [p.color] + [c for q in p.children for c in body_colors(q)]


def reference_vertex_roots(rs, fragments, t, cl, cr):
    """Candidate colors by a linear scan over the internal vertices of the
    composite bodies, each matched shallowly against the two children."""
    roots = rs.roots(cl, cr)
    if fragments:
        left = (cl, isinstance(t.left, Node))
        right = (cr, isinstance(t.right, Node))
        roots = roots | {
            p.color
            for p in fragments
            if (shallow(p.children[0], left) and shallow(p.children[1], right))
            or (shallow(p.children[0], right) and shallow(p.children[1], left))
        }
    return sorted(roots)


def internal_body_vertices(p):
    return [] if p.is_leaf else [p] + [q for c in p.children for q in internal_body_vertices(c)]


def shallow(p, child):
    color, internal = child
    if p.is_leaf:
        return p.color == WILDCARD or p.color == color
    return internal and p.color == color


def counted_init(cls, built):
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(cls)
        init(self, *args, **kwargs)

    return counted


class TestCandidateBound:
    @pytest.mark.parametrize("pair", load_scenarios(), ids=scenario_id)
    def test_count_equals_candidates_built(self, pair, monkeypatch):
        blob, case = pair
        rs = get_ruleset(case["ruleset"])
        tree = tree_from_json(blob["tree"])
        built = []
        for cls in (CLeaf, CNode):
            monkeypatch.setattr(cls, "__init__", counted_init(cls, built))
        count = candidate_table(rs, tree, blob["constraints"])[0]
        assert not built
        color_search(rs, tree, blob["constraints"])
        assert len(built) == count <= 144

    def test_each_color_pair_is_looked_up_once_per_vertex(self, monkeypatch):
        # the same colorings, in the same order, as building with one lookup
        # per pair of child colorings and filtering through accepts
        indexed = RuleSet.candidate_roots
        calls = []

        def counted(self, t, cl, cr):
            calls.append((id(t), cl, cr))
            return indexed(self, t, cl, cr)

        def rebuilt(rs, t, constraints):
            if isinstance(t, Leaf):
                return [CLeaf(t.name, c, trace=t.trace) for c in constraints.get(t.key, sorted(rs.colors))]
            lefts, rights = rebuilt(rs, t.left, constraints), rebuilt(rs, t.right, constraints)
            return [
                CNode(root, lt, rt) for lt in lefts for rt in rights for root in indexed(rs, t, lt.color, rt.color)
            ]

        monkeypatch.setattr(RuleSet, "candidate_roots", counted)
        total = 0
        for blob, case in load_scenarios():
            rs, tree = get_ruleset(case["ruleset"]), tree_from_json(blob["tree"])
            calls.clear()
            found = color_search(rs, tree, blob["constraints"])
            assert calls and len(set(calls)) == len(calls), case
            total += len(calls)
            want = [c for c in rebuilt(rs, tree, blob["constraints"]) if accepts(rs, c)[0]]
            assert list(map(colored_tree_to_json, found)) == list(map(colored_tree_to_json, want))
        # one lookup per (vertex, left color, right color) triple
        assert total == 1513

    @pytest.mark.parametrize(
        "constraints, why",
        [([1], "constraints must map labels"), ({"a": "th_E"}, "constraints: a: "), ({"a": ["nope"]}, "'nope' not in")],
    )
    def test_bad_constraints(self, constraints, why):
        with pytest.raises(ColoringError, match=why):
            color_search(get_ruleset("theta"), tree_from_json(["M", "a", "b"]), constraints)


class TestColoredMerge:
    # two components with root colors (c1, c2) merge under each color of
    # rs.roots(c1, c2), which becomes the new vertex's color
    def test_single_landing_allowed(self):
        rs = get_ruleset("phase")
        assert any(root.startswith("s(") for root in rs.roots("c(v)", "slot:m"))

    def test_second_landing_needs_split_generators(self):
        base = get_ruleset("phase")
        split = get_ruleset("phase+split")

        def cluster_reachable(rs):
            # wrap the second wh, then try to pair it with the first landing
            return any(rs.roots("s(C)", wrapped) for wrapped in rs.roots("c(v)", "slot:m"))

        assert not cluster_reachable(base)
        # with splits the second landing takes the hat color and clusters
        assert "s(C)" in split.roots("shat(C)", "shat(C)")

    def test_hat_colors_unreachable_from_plain_components(self):
        rs = get_ruleset("phase+split")
        assert rs.roots("c(v)", "c(v)") == frozenset()

    def test_clitic_docking_generator(self):
        rs = get_ruleset("phase+split")
        assert "s(INFL)" in rs.roots("s(INFL)", "shat(INFL)")


def hat_confined(t, parent_color=None):
    """Every hat-colored vertex sits under an edge-position parent."""
    if isinstance(t, CLeaf):
        return True
    if t.color.startswith("shat(") and parent_color is not None:
        if not (parent_color.startswith("s(") or parent_color.startswith("shat(")):
            return False
    return hat_confined(t.left, t.color) and hat_confined(t.right, t.color)


class TestInvariants:
    def test_hat_confinement_on_accepted_colorings(self):
        rs = get_ruleset("phase+split")
        for name in ("bulgarian_double_wh", "triple_wh_flat", "clitic_subject_phase"):
            blob = json.loads((DATA / "scenarios" / f"{name}.json").read_text())
            tree = tree_from_json(blob["tree"])
            for colored in color_search(rs, tree, blob["constraints"]):
                assert hat_confined(colored)

    @pytest.mark.parametrize(
        "ruleset, constraints",
        [
            ("theta", {"ea": ["th_E"], "vb": ["head:EI"], "ia": ["th_I"], "ad": ["th0'"]}),
            ("phase+split", {"koj": ["c(v)"], "u": ["slot:m"], "e": ["h_zs(C)"], "kupil": ["z(C)"]}),
        ],
    )
    def test_pruned_build_equals_unpruned_search(self, monkeypatch, ruleset, constraints):
        # the search before merges were kept to subtrees of the target: every
        # pair of components is merged under every matching root color
        def unpruned(rs, tree, constraints):
            constraints = coloring._checked_constraints(rs, constraints)
            leaves = [t for _, t in positions(tree) if isinstance(t, Leaf)]
            choice_lists = [
                [CLeaf(l.name, c, trace=l.trace) for c in coloring._leaf_choices(rs, l, constraints)]
                for l in leaves
            ]
            for start in itertools.product(*choice_lists):
                seen = {tuple(sorted(repr(x) for x in start))}
                stack = [start]
                while stack:
                    comps = stack.pop()
                    if len(comps) == 1 and bare(comps[0]).key == tree.key:
                        if accepts(rs, comps[0])[0]:
                            return True
                        continue
                    for i, j in itertools.combinations(range(len(comps)), 2):
                        for new_comps, _root in coloring._colored_merges(comps, i, j, rs):
                            sig = tuple(sorted(repr(x) for x in new_comps))
                            if sig not in seen:
                                seen.add(sig)
                                stack.append(new_comps)
            return False

        def no_search(*args, **kwargs):
            raise AssertionError("colored building called color_search")

        rs = get_ruleset(ruleset)
        labels = sorted(constraints)
        trees = [t for k in (3, 4) for sub in itertools.combinations(labels, k) for t in enumerate_trees(sub)]
        want = [unpruned(rs, tree, constraints) for tree in trees]
        accepted_keys = []

        def end_only_accepts(rs, t):
            accepted_keys.append(bare(t).key)
            return accepts(rs, t)

        monkeypatch.setattr(coloring, "color_search", no_search)
        monkeypatch.setattr(coloring, "accepts", end_only_accepts)
        for tree, reachable in zip(trees, want):
            accepted_keys.clear()
            assert reachable_by_colored_merge(rs, tree, constraints) == reachable, tree.key
            assert set(accepted_keys) <= {tree.key}
        assert 0 < sum(want) < len(trees)

    @pytest.mark.parametrize("ruleset", ["theta", "phase+split"])
    def test_filter_equals_constrained_merge(self, ruleset):
        # exhaustive over tree shapes at 3-5 leaves: a coloring exists iff
        # color-constrained Merge can build the tree from colored leaves
        rs = get_ruleset(ruleset)
        if ruleset == "theta":
            pools = [
                {"ea": ["th_E"], "vb": ["head:EI"], "ia": ["th_I"]},
                {"ea": ["th_E"], "vb": ["head:EI"], "ia": ["th_I"], "ad": ["th0'"]},
                {
                    "ea": ["th_E"],
                    "vb": ["head:EI"],
                    "ia": ["th_I"],
                    "ad": ["th0'"],
                    "u": ["slot:th0"],
                },
            ]
        else:
            pools = [
                {"koj": ["c(v)"], "u": ["slot:m"], "kupil": ["z(C)"]},
                {"koj": ["c(v)"], "u": ["slot:m"], "e": ["h_zs(C)"], "kupil": ["z(C)"]},
                {
                    "koj": ["c(v)"],
                    "u": ["slot:m"],
                    "kakvo": ["c(v)"],
                    "e": ["h_zs(C)"],
                    "kupil": ["z(C)"],
                },
            ]
        for constraints in pools:
            labels = sorted(constraints)
            for tree in enumerate_trees(labels):
                filtered = bool(color_search(rs, tree, constraints))
                built = reachable_by_colored_merge(rs, tree, constraints)
                assert filtered == built, (ruleset, tree.key)

    def test_composite_variant_not_merge_equivalent(self):
        # the nested cluster is accepted by filtering but cannot be built by
        # single-vertex constrained merges
        rs = get_ruleset("phase+composite")
        blob = json.loads((DATA / "scenarios" / "triple_wh_nested.json").read_text())
        tree = tree_from_json(blob["tree"])
        assert color_search(rs, tree, blob["constraints"])
        assert not reachable_by_colored_merge(rs, tree, blob["constraints"])


# verify's equivalence pools: every tree on the label sets, 246 in all
EQUIVALENCE_POOLS = [
    (
        "theta",
        {"ea": ["th_E"], "vb": ["head:EI"], "ia": ["th_I"], "ad": ["th0'"], "u": ["slot:th0"]},
        (["ea", "vb", "ia"], ["ea", "vb", "ia", "ad"], ["ea", "vb", "ia", "ad", "u"]),
    ),
    (
        "phase+split",
        {"koj": ["c(v)"], "kakvo": ["c(v)"], "u": ["slot:m"], "e": ["h_zs(C)"], "kupil": ["z(C)"]},
        (["koj", "u", "kupil"], ["koj", "u", "e", "kupil"], ["koj", "u", "kakvo", "e", "kupil"]),
    ),
]


def test_colored_building_skips_pairs_before_merging(monkeypatch):
    # a pair of components whose bare merge is not a subtree of the target
    # builds no colored merge: 1 116 are built on the pools, where merging
    # every pair under every root color before filtering built 6 644
    built = []

    class CountedCNode(coloring.CNode):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(coloring, "CNode", CountedCNode)
    trees = reachable = 0
    for rs_name, constraints, label_sets in EQUIVALENCE_POOLS:
        rs = get_ruleset(rs_name)
        for labels in label_sets:
            for tree in enumerate_trees(labels):
                trees += 1
                reachable += reachable_by_colored_merge(rs, tree, constraints)
    assert (trees, reachable) == (246, 8)
    assert len(built) == 1_116


class TestSerialization:
    def test_ruleset_round_trip(self):
        for name in ("theta", "phase+split", "phase+composite", "korean-pac"):
            rs = get_ruleset(name)
            blob = json.loads(json.dumps(ruleset_to_json(rs)))
            assert blob["name"] == rs.name
            assert set(blob["colors"]) == rs.colors
            assert [(g["root"], tuple(g["children"]), g["tag"]) for g in blob["generators"]] == [
                (g.root, g.children, g.tag) for g in rs.generators
            ]
            assert blob["composite"] == rs.composite
            assert len(blob["composites"]) == len(rs.composites)
            assert blob["global_checks"] == rs.global_checks
            assert blob["role_inject"] == {k: list(v) for k, v in rs.role_inject.items()}
            assert blob["role_discharge"] == rs.role_discharge

    def test_colored_tree_round_trip(self):
        t = CNode(
            "clause",
            CLeaf("EA", "th_E"),
            CNode("pred:E", CLeaf("V", "head:EI"), CLeaf("x", "th_I", trace=True)),
        )
        t2 = colored_tree_from_json(colored_tree_to_json(t))
        assert t2 == t
        assert bare(t2).key == bare(t).key
