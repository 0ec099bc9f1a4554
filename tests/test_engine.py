import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mergespace import engine, forest
from mergespace.engine import (
    ECViolation,
    MergeConfig,
    MergeError,
    MergeStep,
    _tag,
    all_merge_successors,
    apply,
    form_copy_quotient,
    load_script,
    merge_pairs,
    replay,
)
from mergespace.forest import (
    Leaf,
    Node,
    Workspace,
    accessible_terms,
    enumerate_forests,
    leaf,
    nested,
    node,
    quotient,
    subtree_at,
    tree_quotient,
    workspace,
)
from mergespace.hopf import UNIT, coproduct, ws_union

import test_forest as forest_tests

a, b, c = leaf("a"), leaf("b"), leaf("c")
CFG_D = MergeConfig(mode="d")
CFG_C = MergeConfig(mode="c")


def outputs(ws, cfg=CFG_D, tag=None):
    steps = all_merge_successors(ws, cfg)
    return {s.output_ws.key for s in steps if tag is None or s.tag == tag}


class TestSuccessors:
    def test_two_leaves_single_em(self):
        steps = all_merge_successors(workspace(a, b), CFG_D)
        assert len(steps) == 1 and steps[0].tag == "EM"
        assert steps[0].output_ws.key == workspace(node(a, b)).key

    def test_tree_sm3_reaches_forest(self):
        t = node(node(a, b), c)
        got = outputs(workspace(t), tag="SM3")
        assert workspace(node(b, c), a).key in got
        # the sibling pair (a, b) is excluded by default
        assert workspace(node(a, b), c).key not in got

    def test_tree_sibling_cut_flag(self):
        t = node(node(a, b), c)
        cfg = MergeConfig(mode="d", allow_sibling_cut=True)
        assert workspace(node(a, b), c).key in outputs(workspace(t), cfg, tag="SM3")

    def test_forest_em_and_sm1(self):
        ws = workspace(node(a, b), c)
        assert workspace(node(node(a, b), c)).key in outputs(ws, tag="EM")
        sm1 = outputs(ws, tag="SM1")
        assert workspace(node(b, c), a).key in sm1
        assert workspace(node(a, c), b).key in sm1

    def test_im_moves_deep_term(self):
        t = node(node(a, b), c)
        got = outputs(workspace(t), tag="IM")
        assert got == {
            workspace(node(node(b, c), a)).key,
            workspace(node(node(a, c), b)).key,
        }

    def test_mode_d_root_child_im_skipped(self):
        # both root children give identity IM under deletion; none emitted
        steps = all_merge_successors(workspace(node(a, b)), CFG_D)
        assert all(s.tag != "IM" for s in steps)

    def test_mode_c_root_child_im_kept(self):
        steps = [s for s in all_merge_successors(workspace(node(a, b)), CFG_C) if s.tag == "IM"]
        assert len(steps) == 2

    def test_identity_sm_loops(self):
        cfg = MergeConfig(mode="d", allow_identity_sm=True)
        ws = workspace(node(a, b), c)
        ids = [s for s in all_merge_successors(ws, cfg) if s.tag == "ID"]
        assert len(ids) == 1 and ids[0].output_ws.key == ws.key

    def test_leaf_multiset_conserved_mode_d(self):
        def leaves_of(ws):
            out = []
            for t in ws.components:
                stack = [t]
                while stack:
                    x = stack.pop()
                    if isinstance(x, Node):
                        stack.extend([x.left, x.right])
                    elif not x.trace:
                        out.append(x.name)
            return sorted(out)

        for ws in enumerate_forests("abc") + enumerate_forests("abcd"):
            want = leaves_of(ws)
            for s in all_merge_successors(ws, CFG_D):
                assert leaves_of(s.output_ws) == want

    def test_tag_from_sources(self):
        # sources are (component, path); the empty path is the whole
        # component.  In ws, component 0 is ((a|b)|c) and component 1 (d|e).
        ws = workspace(node(node(a, b), c), node(leaf("d"), leaf("e")))
        table = [
            (((0, ()), (1, ())), "EM"),
            (((0, (0, 1)), (0, ())), "IM"),
            (((0, ()), (0, (0, 1))), "IM"),
            (((0, (1,)), (1, ())), "SM1"),
            (((0, (0, 0)), (1, (1,))), "SM2"),
            (((0, (0, 0)), (0, (1,))), "SM3"),
            (((0, (0, 0)), (0, (0, 1))), "SM3"),
            (((0, (0,)), (0, (1,))), "ID"),
        ]
        for (x, y), tag in table:
            assert _tag(x, y) == tag, (x, y)
            step = apply(ws, x, y)
            assert step.tag == tag and step.sources == (x, y)


class TestApplyRefuses:
    """apply builds only a pair that merge_pairs yields, in either order,
    under the widest flags of its mode; any other is a MergeError naming it."""

    @pytest.mark.parametrize(
        "x, y",
        [
            ((0, (0,)), (0, (0, 1))),  # nested: a second b beside (a|b)
            ((0, (0, 0)), (0, (0, 0))),  # one term twice
            ((0, ()), (0, ())),  # one component twice
            ((5, ()), (0, ())),  # no component 5
        ],
        ids=["nested", "same-term", "same-component", "no-component"],
    )
    def test_a_pair_merge_pairs_never_yields(self, x, y):
        ws = workspace(node(node(a, b), c), leaf("d"))
        for mode in ("c", "d"):
            with pytest.raises(MergeError, match=re.escape(f"source pair {x!r}, {y!r} is not a Merge application")):
                apply(ws, x, y, mode)

    def test_root_child_im_only_in_mode_c(self):
        ws = workspace(node(node(a, b), c), leaf("d"))
        assert apply(ws, (0, (1,)), (0, ()), "c").tag == "IM"
        with pytest.raises(MergeError, match="not a Merge application"):
            apply(ws, (0, (1,)), (0, ()), "d")


class TestAgainstCoproduct:
    """Each step is a pair (S, S') drawn from a coproduct term and grafted:
    non-IM steps are the two-tree extractions of the workspace's coproduct,
    IM steps the one-term cuts of a component's own coproduct, less the two
    root-child cuts in mode "d", which reassemble the host."""

    @pytest.mark.parametrize("mode", ["c", "d"])
    @pytest.mark.parametrize("labels", ["abc", "abcd", "abcde", "aabc", "aabb", "aaab"])
    def test_steps_are_coproduct_pairs(self, labels, mode):
        cfg = MergeConfig(mode=mode, allow_sibling_cut=True, allow_identity_sm=True)
        for ws in enumerate_forests(labels):
            steps = all_merge_successors(ws, cfg)
            got = Counter((Workspace(s.pair).key, s.output_ws.key) for s in steps if s.tag != "IM")
            want = Counter()
            for (left, right), coef in coproduct(ws, mode).items():
                if left.b0 == 2:
                    out = ws_union(right, workspace(Node(*left.components)))
                    want[left.key, out.key] += int(coef)
            assert got == want, ws.key

            got = Counter((Workspace(s.pair).key, s.output_ws.key) for s in steps if s.tag == "IM")
            want = Counter()
            for ci, host in enumerate(ws.components):
                rest = Workspace(ws.components[:ci] + ws.components[ci + 1 :])
                for (left, right), coef in coproduct(workspace(host), mode).items():
                    if left.b0 != 1 or right.b0 == 0:
                        continue  # not a one-term cut
                    out = ws_union(rest, workspace(Node(*left.components, *right.components)))
                    want[ws_union(left, right).key, out.key] += int(coef)
                if mode == "d" and isinstance(host, Node):
                    # with repeated labels a deeper cut can also give back ws
                    want[workspace(host.left, host.right).key, ws.key] -= 2
            assert got == want, ws.key


MEMO_FLAGS = [
    {},
    {"allow_im": False},
    {"allow_identity_sm": True, "allow_sibling_cut": True},
    {"atomic_sm_only": True},
]


@st.composite
def random_workspace(draw, mode="d"):
    """One to three trees over a, b, c, of one to three leaves each; in
    mode "c" sometimes one step on, so that trace leaves appear."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    comps = []
    for n in sizes:
        trees = [leaf(x) for x in draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))]
        while len(trees) > 1:
            t1 = trees.pop(draw(st.integers(0, len(trees) - 1)))
            t2 = trees.pop(draw(st.integers(0, len(trees) - 1)))
            trees.append(node(t1, t2))
        comps.append(trees[0])
    ws = Workspace(tuple(comps))
    if mode == "c" and draw(st.booleans()):
        steps = all_merge_successors(ws, CFG_C)
        if steps:
            ws = steps[draw(st.integers(0, len(steps) - 1))].output_ws
    return ws


class TestSuccessorMemo:
    """all_merge_successors shares one memo of cut levels across its steps;
    each step must still be the one apply builds alone."""

    @pytest.mark.parametrize("mode", ["c", "d"])
    @pytest.mark.parametrize("flags", MEMO_FLAGS, ids=lambda f: "+".join(f) or "default")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_apply_step_by_step(self, mode, flags, data):
        ws = data.draw(random_workspace(mode))
        cfg = MergeConfig(mode=mode, **flags)
        got = all_merge_successors(ws, cfg)
        want = [apply(ws, x, y, mode) for x, y in merge_pairs(ws, cfg)]
        assert len(got) == len(want)
        for s, w in zip(got, want):
            assert (s.tag, s.sources, s.pair, s.extractions) == (w.tag, w.sources, w.pair, w.extractions)
            assert s.output_ws == w.output_ws and s.output_ws.key == w.output_ws.key

    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_each_single_cut_once_per_call(self, monkeypatch, mode):
        # every cut-level build walks its path once, as (id of the host,
        # path); a memo hit walks nothing
        real = engine.path_vertices
        walked: list = []

        def counted(t, path):
            walked.append((id(t), path))
            return real(t, path)

        monkeypatch.setattr(engine, "path_vertices", counted)
        ws = workspace(node(node(a, b), node(c, node(a, b))), node(c, node(b, a)), a)
        cfg = MergeConfig(mode=mode, allow_identity_sm=True, allow_sibling_cut=True)
        pairs = list(merge_pairs(ws, cfg))
        sources = {(id(ws.components[ci]), p) for pair in pairs for ci, p in pair if p}
        runs = []
        for _ in range(2):
            walked.clear()
            all_merge_successors(ws, cfg)
            runs.append(list(walked))
        # each source with a path cut once for all its partners, and cut
        # again by the next call: nothing outlives a call
        assert len(set(runs[0])) == len(runs[0]) and set(runs[0]) == sources
        assert len(runs[0]) < sum(bool(p) for pair in pairs for _, p in pair)
        assert runs[1] == runs[0]


def reference_apply(ws, a, b, mode):
    """The Merge kernel before cut levels: each host cut by tree_quotient,
    the terms found by subtree_at and the form read by _tag."""
    comps = ws.components
    (ca, pa), (cb, pb) = a, b
    if ca == cb and pa and pb:  # two cuts in one host: SM3, ID
        quots = {ca: tree_quotient(comps[ca], [pa, pb], mode)}
    else:
        quots = {ci: tree_quotient(comps[ci], [p], mode) for ci, p in (a, b) if p}
    s = subtree_at(comps[ca], pa) if pa else quots.pop(ca, comps[ca])
    t = subtree_at(comps[cb], pb) if pb else quots.pop(cb, comps[cb])
    rest = [x for i, x in enumerate(comps) if i != ca and i != cb]
    rest += [q for q in quots.values() if q is not None]
    rest.append(Node(s, t))
    if pa:
        extractions = ((s, comps[ca]), (t, comps[cb])) if pb else ((s, comps[ca]),)
    else:
        extractions = ((t, comps[cb]),) if pb else ()
    return MergeStep(ws, Workspace(rest), _tag(a, b), mode, (s, t), extractions, (a, b))


def same_stored(x, y) -> bool:
    """Whether x and y hold the same keys in the same stored child order,
    left before right, and so are one tree.  Shared subtrees are skipped."""
    if x is y:
        return True
    if x.key != y.key or isinstance(x, Leaf) or isinstance(y, Leaf):
        return x.key == y.key and isinstance(x, Leaf) and isinstance(y, Leaf)
    return same_stored(x.left, y.left) and same_stored(x.right, y.right)


def same_output(s, w) -> bool:
    """Whether steps s and w give one output: one key, and each component
    the same tree in the same stored child order."""
    x, y = s.output_ws, w.output_ws
    return x.key == y.key and x.b0 == y.b0 and all(map(same_stored, x.components, y.components))


def same_step(s, w) -> bool:
    """Whether s and w agree on every field the kernel sets but the input."""
    return (s.tag, s.sources, s.pair, s.extractions) == (w.tag, w.sources, w.pair, w.extractions) and same_output(s, w)


def trace_bearing():
    """The workspaces with a trace leaf that one mode-c step from a 4-leaf
    forest reaches."""
    seen = {}
    for ws in enumerate_forests("abcd") + enumerate_forests("aabc"):
        for s in all_merge_successors(ws, CFG_C):
            if "~" in s.output_ws.key:
                seen.setdefault(s.output_ws.key, s.output_ws)
    return list(seen.values())


class TestAgainstReferenceKernel:
    """The cut-level kernel builds the steps the tree_quotient kernel
    built, field for field and child for child."""

    @pytest.mark.parametrize("mode", ["c", "d"])
    @pytest.mark.parametrize("labels", ["ab", "abc", "abcd", "abcde", "abcdef", "aabc", "traced"])
    def test_every_step_equals_the_reference(self, labels, mode):
        # the reference builds each pair of the widest flags once; every
        # MEMO_FLAGS setting yields a subset of those pairs.  An SM3 or ID
        # pair named the other way round must give the same output: where
        # the paths part, the left child's cut comes from the source going
        # left, whichever is named first.  That is apply's kernel with its
        # fresh memo, without apply's scan of merge_pairs (8 s at 6 leaves)
        forests = trace_bearing() if labels == "traced" else enumerate_forests(labels)
        widest = MergeConfig(mode=mode, allow_identity_sm=True, allow_sibling_cut=True)
        for ws in forests:
            want = {(x, y): reference_apply(ws, x, y, mode) for x, y in merge_pairs(ws, widest)}
            for (x, y), w in want.items():
                if w.tag in ("SM3", "ID"):
                    assert same_output(engine._apply(ws, y, x, mode, {}), w), (ws.key, x, y)
            for flags in MEMO_FLAGS:
                cfg = MergeConfig(mode=mode, **flags)
                got = all_merge_successors(ws, cfg)
                assert [s.sources for s in got] == list(merge_pairs(ws, cfg)), (ws.key, flags)
                for s in got:
                    assert same_step(s, want[s.sources]), (ws.key, flags, s.sources)

    def test_equal_keys_keep_their_sides_at_the_split(self):
        # two different trace-only subtrees with one key, (~p~|~q~|~r~),
        # one beside each cut term: once x and y are deleted they meet at
        # the root, which keeps each on the side it came from
        kept = Node(forest.trace_leaf("p~|~q"), forest.trace_leaf("r"))
        other = Node(forest.trace_leaf("p"), forest.trace_leaf("q~|~r"))
        ws = workspace(Node(Node(kept, leaf("x")), Node(other, leaf("y"))))
        x, y = (0, (0, 1)), (0, (1, 1))
        for pair in ((x, y), (y, x)):
            step = apply(ws, *pair, "d")
            assert step.tag == "SM3" and same_step(step, reference_apply(ws, *pair, "d"))
            (q,) = [t for t in step.output_ws.components if t.key != "(x|y)"]
            assert q.left is kept and q.right is other


FLAG_NAMES = ("allow_im", "allow_sm", "allow_identity_sm", "allow_sibling_cut", "atomic_sm_only")
EVERY_SETTING = [dict(zip(FLAG_NAMES, bits)) for bits in itertools.product((False, True), repeat=len(FLAG_NAMES))]


def reference_merge_pairs(ws, cfg):
    """merge_pairs before pre-order spans: the SM2 and SM3 pairs picked
    out of every pair of sources, SM3 the disjoint ones by nested."""
    n = ws.b0
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, ()), (j, ())
    terms = accessible_terms(ws)
    if cfg.allow_im:
        for (ci, p), _ in terms:
            if cfg.mode == "c" or len(p) > 1:
                yield (ci, p), (ci, ())
    if cfg.allow_sm:
        atomic = cfg.atomic_sm_only
        sources = [src for src, sub in terms if not atomic or isinstance(sub, Leaf)]
        for ci, p in sources:
            for other in range(n):
                if other != ci:
                    yield (ci, p), (other, ())
        if not atomic:
            for x, y in itertools.combinations(sources, 2):
                if x[0] != y[0]:
                    yield x, y
        for x, y in itertools.combinations(sources, 2):
            if x[0] != y[0] or nested(x[1], y[1]):
                continue
            if x[1][:-1] == y[1][:-1] and (len(x[1]) == 1 or not cfg.allow_sibling_cut):
                continue
            yield x, y
    if cfg.allow_identity_sm:
        for ci, comp in enumerate(ws.components):
            if isinstance(comp, Node):
                yield (ci, (0,)), (ci, (1,))


class TestAgainstReferencePairs:
    """merge_pairs yields the pairs the combinations scan yielded, in the
    same order: the order of successors' rows."""

    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_every_setting_to_five_leaves(self, mode):
        labels = ("ab", "abc", "abcd", "abcde", "aabc", "aabcd")
        forests = [w for ls in labels for w in enumerate_forests(ls, require_edge=False)]
        forests += trace_bearing() if mode == "c" else []
        for flags in EVERY_SETTING:
            cfg = MergeConfig(mode=mode, **flags)
            for ws in forests:
                assert list(merge_pairs(ws, cfg)) == list(reference_merge_pairs(ws, cfg)), (ws.key, flags)

    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_default_and_widest_at_six_leaves(self, mode):
        widest = MergeConfig(mode=mode, allow_identity_sm=True, allow_sibling_cut=True)
        for ws in enumerate_forests("abcdef"):
            for cfg in (MergeConfig(mode=mode), widest):
                assert list(merge_pairs(ws, cfg)) == list(reference_merge_pairs(ws, cfg)), ws.key


def _disjoint_collections(terms: list):
    """All sets of pairwise non-nested accessible terms (incl. empty), from
    the (source, subtree) pairs of accessible_terms."""

    def conflicts(src, chosen):
        return any(src[0] == c and nested(src[1], p) for (c, p), _ in chosen)

    def rec(i, chosen):
        if i == len(terms):
            yield list(chosen)
            return
        yield from rec(i + 1, chosen)
        if not conflicts(terms[i][0], chosen):
            chosen.append(terms[i])
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def reference_coproduct(ws, mode):
    """The terms of the coproduct of ws from its definition: every set of
    components taken whole, with every set of pairwise non-nested accessible
    terms of the others, those cut out of them through the engine's
    quotient."""
    terms = Counter()
    for whole in itertools.product((False, True), repeat=ws.b0):
        taken = tuple(c for c, w in zip(ws.components, whole) if w)
        rest = Workspace(tuple(c for c, w in zip(ws.components, whole) if not w))
        for cut in _disjoint_collections(accessible_terms(rest)):
            left = Workspace(taken + tuple(sub for _, sub in cut))
            terms[left, quotient(rest, [src for src, _ in cut], mode)] += 1
    return terms


class TestCoproductAgainstCollections:
    """The coproduct's per-child recursion gives the terms that cutting each
    set of disjoint accessible terms through quotient gives."""

    @pytest.mark.parametrize("mode", ["c", "d"])
    @pytest.mark.parametrize("labels", ["abcde", "aabc"])
    def test_every_forest(self, labels, mode):
        forests = enumerate_forests(labels, require_edge=False)
        assert sum(ws.b0 > 1 for ws in forests) > len(forests) // 2
        for ws in forests:
            assert coproduct(ws, mode) == reference_coproduct(ws, mode), ws.key

    def test_trace_bearing_successors(self):
        seen = {}
        for ws in enumerate_forests("abcd") + enumerate_forests("aabc"):
            for s in all_merge_successors(ws, CFG_C):
                seen.setdefault(s.output_ws.key, s.output_ws)
        traced = [ws for ws in seen.values() if "~" in ws.key]
        assert len(traced) > 100
        for ws in traced:
            for mode in ("c", "d"):
                assert coproduct(ws, mode) == reference_coproduct(ws, mode), (ws.key, mode)


def host_cuts(host, mode):
    """(extracted trees, paths, quotient) of every term of the coproduct of
    the one-tree workspace host, one per cut, before equal terms are added
    up; the whole-component split has paths None.  Checked against
    coproduct(workspace(host), mode)."""
    ws = workspace(host)
    cuts = [(ws.components, None, UNIT)]
    for cut in _disjoint_collections(accessible_terms(ws)):
        sources = [src for src, _ in cut]
        cuts.append((tuple(sub for _, sub in cut), tuple(p for _, p in sources), quotient(ws, sources, mode)))
    assert Counter((Workspace(trees), right) for trees, _, right in cuts) == coproduct(ws, mode)
    return cuts


def tagged_coproduct_pairs(ws, mode):
    """(tag, extracted subtrees, sibling cut, pair key, output key) for every
    two-tree term of ws's coproduct, and for every one-term cut of a
    component's own coproduct paired with its quotient (IM), the tag read
    off the terms' provenance: EM two whole components, SM1 a whole
    component and a term of another, SM2 terms of two components, ID both
    root children of one, SM3 two other terms of one, IM a term with its
    own host."""
    comps = ws.components
    cuts = [host_cuts(c, mode) for c in comps]
    out = []

    def emit(tag, pair, parts, subtrees=(), siblings=False):
        rest = list(parts.values()) + [workspace(c) for i, c in enumerate(comps) if i not in parts]
        result = Workspace(sum((w.components for w in rest), ()) + (Node(*pair),))
        out.append((tag, subtrees, siblings, Workspace(pair).key, result.key))

    for i, host in enumerate(comps):
        for trees, paths, right in cuts[i]:
            if paths is None or len(paths) not in (1, 2):
                continue
            if len(paths) == 2:
                p, q = paths
                tag = "ID" if {p, q} == {(0,), (1,)} else "SM3"
                emit(tag, trees, {i: right}, trees, tag == "SM3" and p[:-1] == q[:-1])
            elif not (mode == "d" and len(paths[0]) == 1):  # a root child reassembles the host
                emit("IM", (trees[0], *right.components), {i: UNIT}, trees)
    for i, j in itertools.combinations(range(len(comps)), 2):
        for trees_i, paths_i, right_i in cuts[i]:
            for trees_j, paths_j, right_j in cuts[j]:
                if len(trees_i) != 1 or len(trees_j) != 1:
                    continue
                whole = (paths_i is None, paths_j is None)
                tag = {(True, True): "EM", (False, False): "SM2"}.get(whole, "SM1")
                subtrees = () if tag == "EM" else tuple(
                    t for t, w in zip(trees_i + trees_j, whole) if not w
                )
                emit(tag, trees_i + trees_j, {i: right_i, j: right_j}, subtrees)
    return out


def allowed(tag, subtrees, siblings, cfg):
    """Whether the flags of cfg admit a step of that provenance."""
    if tag == "EM":
        return True
    if tag == "IM":
        return cfg.allow_im
    if tag == "ID":
        return cfg.allow_identity_sm
    if not cfg.allow_sm or siblings and not cfg.allow_sibling_cut:
        return False
    return not cfg.atomic_sm_only or tag != "SM2" and all(isinstance(t, Leaf) for t in subtrees)


class TestAgainstCoproductEverySetting:
    """Under every setting of the five flags, in both modes, the engine's
    steps are the coproduct pairs whose provenance the setting admits."""

    # 5 leaves would add about 6 s; 4 already hold every provenance, sibling
    # cuts below the root and SM2 between two non-leaf components
    @pytest.mark.parametrize("mode", ["c", "d"])
    @pytest.mark.parametrize("labels", ["abc", "abcd", "aabc", "aabb", "aaab"])
    def test_steps_are_the_admitted_coproduct_pairs(self, labels, mode):
        for ws in enumerate_forests(labels):
            pairs = tagged_coproduct_pairs(ws, mode)
            for flags in EVERY_SETTING:
                cfg = MergeConfig(mode=mode, **flags)
                got = Counter(
                    (s.tag, Workspace(s.pair).key, s.output_ws.key) for s in all_merge_successors(ws, cfg)
                )
                want = Counter(
                    (tag, pair, result)
                    for tag, subtrees, siblings, pair, result in pairs
                    if allowed(tag, subtrees, siblings, cfg)
                )
                assert got == want, (ws.key, flags)


class TestReplay:
    def test_seventeen_all_schema(self):
        # X with a tree T: extract Y, merge to X sideways, then merge back
        T = node(node(leaf("w"), leaf("y")), leaf("z"))
        ws = workspace(leaf("x"), T)
        script = [
            {"op": "SM1", "args": [{"key": "y"}, {"key": "x"}]},
            {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
        ]
        deriv = replay(ws, script)
        assert deriv.steps[0].tag == "SM1"
        assert deriv.final.b0 == 1
        assert deriv.final.key == workspace(node(node(leaf("x"), leaf("y")), node(leaf("w"), leaf("z")))).key

    def test_lookup_sm1_derivation(self):
        vstar = leaf("v*")
        T = node(node(leaf("look"), leaf("up")), node(leaf("the"), leaf("answer")))
        ws = workspace(vstar, T)
        script = [
            {"op": "SM1", "args": [{"key": "look"}, {"key": "v*"}]},
            {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
        ]
        deriv = replay(ws, script, "c")
        assert deriv.steps[0].tag == "SM1"
        final = deriv.final
        assert final.b0 == 1
        assert "~look~" in final.key and "(look|v*)" in final.key

    def test_insert_rejected(self):
        ws = workspace(node(a, b), c)
        with pytest.raises(ECViolation):
            replay(ws, [{"op": "INSERT", "args": [{"key": "a"}]}])

    def test_bad_occurrence_rejected(self):
        ws = workspace(node(a, b), c)
        with pytest.raises(MergeError):
            replay(ws, [{"op": "SM1", "args": [{"key": "zzz"}, {"component": 1}]}])
        with pytest.raises(MergeError):
            replay(ws, [{"op": "SM1", "args": [{"key": "a", "n": 5}, {"component": 1}]}])

    def test_sibling_cut_needs_flag(self):
        T = node(node(a, b), c)
        script = [{"op": "SM3", "args": [{"key": "a"}, {"key": "b"}]}]
        with pytest.raises(MergeError):
            replay(workspace(T), script)
        deriv = replay(workspace(T), script, allow_sibling_cut=True)
        assert deriv.final.key == workspace(node(a, b), c).key

    @pytest.mark.parametrize(
        "mode, step, reason",
        [
            ("d", {"op": "SM3", "args": [{"key": "a"}, {"key": "b"}]},
             "the terms are siblings below a non-root vertex, a cut that needs the flag allow_sibling_cut"),
            ("c", {"op": "SM3", "args": [{"key": "(a|b)"}, {"key": "b"}]},
             "the terms are nested: one contains the other"),
            ("c", {"op": "SM3", "args": [{"key": "a"}, {"key": "a"}]},
             "the terms are nested: one contains the other"),
            ("d", {"op": "IM", "args": [{"key": "c"}]}, "IM of a root child is the identity in mode d"),
        ],
        ids=["sibling-cut", "nested", "same-term", "im-root-child"],
    )
    def test_illegal_step_names_its_rule(self, mode, step, reason):
        message = f"step 0: {step['op']}: not a legal Merge application here: {reason}"
        with pytest.raises(MergeError, match=re.escape(message) + "$"):
            replay(workspace(node(node(a, b), c)), [step], mode)

    def test_load_script_returns_the_arguments_of_replay(self):
        blob = {"mode": "c", "flags": {"allow_sibling_cut": True}, "initial": ["a", "b"], "steps": []}
        assert load_script(blob) == (workspace(a, b), [], "c", True)
        assert load_script({"initial": ["a", "b"], "steps": []})[2:] == ("d", False)

    def test_empty_script(self):
        ws = workspace(node(a, b), c)
        deriv = replay(ws, [])
        assert deriv.final is ws and len(deriv) == 0

    def test_mutated_scripts_always_error_or_stay_legal(self):
        # EC is structural: whatever the script asks, growth at a non-root
        # vertex is inexpressible and bogus requests raise
        ws = workspace(node(node(a, b), c), leaf("d"))
        bad_scripts = [
            [{"op": "INSERT", "args": [{"key": "a"}]}],
            [{"op": "LATE_MERGE", "args": []}],
            [{"op": "EM", "args": [{"component": 0}, {"component": 0}]}],
            [{"op": "IM", "args": [{"key": "nope"}]}],
            [{"op": "SM2", "args": [{"key": "a"}, {"key": "b"}]}],  # same host
            [{"op": "XYZ", "args": []}],
        ]
        for script in bad_scripts:
            with pytest.raises(MergeError):
                replay(ws, script)


def amalgam_tree():
    # 17-vertex tree: [[INFL [v* read]] [John [[v* read] [read [a book]]]]]
    v_read_1 = node(leaf("v*"), leaf("read"))
    v_read_2 = node(leaf("v*"), leaf("read"))
    obj = node(leaf("read"), node(leaf("a"), leaf("book")))
    right = node(leaf("John"), node(v_read_2, obj))
    return node(node(leaf("INFL"), v_read_1), right)


class TestFormCopy:
    def test_amalgam_quotient_counts(self):
        t = amalgam_tree()
        g = form_copy_quotient(t, [("(read|v*)", 0, 1)])
        assert g.history == [17, 14]
        g2 = form_copy_quotient(t, [("(read|v*)", 0, 1), ("read", 0, 2)])
        assert g2.history == [17, 14, 13]

    def test_identity_pair_rejected(self):
        with pytest.raises(MergeError):
            form_copy_quotient(amalgam_tree(), [("read", 1, 1)])

    def test_unknown_key_rejected(self):
        with pytest.raises(MergeError):
            form_copy_quotient(amalgam_tree(), [("(x|y)", 0, 1)])

    def test_leaf_loss(self):
        g = form_copy_quotient(amalgam_tree(), [("(read|v*)", 0, 1), ("read", 0, 2)])
        assert g.initial_leaf_count == 9
        assert g.leaf_count == 6


class TestRecordContracts:
    """MergeConfig, Derivation and QuotientGraph: constructors, equality,
    hashing, repr, immutability, copies."""

    def test_merge_config_defaults_and_positional_fields(self):
        cfg = MergeConfig()
        assert (cfg.mode, cfg.allow_im, cfg.allow_sm) == ("d", True, True)
        assert (cfg.allow_identity_sm, cfg.allow_sibling_cut, cfg.atomic_sm_only) == (False, False, False)
        assert MergeConfig("c", False, False, True, True, True) == MergeConfig(
            mode="c", allow_im=False, allow_sm=False, allow_identity_sm=True, allow_sibling_cut=True, atomic_sm_only=True
        )
        with pytest.raises(TypeError):
            MergeConfig("c", True, True, False, False, False, "extra")
        with pytest.raises(TypeError):
            MergeConfig(flavor="c")

    @pytest.mark.parametrize("mode", ["x", "", None, "C"])
    def test_merge_config_checks_its_mode(self, mode):
        with pytest.raises(MergeError, match=re.escape(f"unknown coproduct mode {mode!r}")):
            MergeConfig(mode=mode)

    def test_merge_config_equality_and_hash(self):
        assert MergeConfig("c") == CFG_C and hash(MergeConfig("c")) == hash(CFG_C)
        assert CFG_C != CFG_D and MergeConfig(allow_im=False) != CFG_D
        assert len({MergeConfig(), CFG_D, MergeConfig(allow_sm=False)}) == 2
        assert CFG_D != ("d", True, True, False, False, False)

    def test_merge_config_repr(self):
        assert repr(MergeConfig(allow_sm=False)) == (
            "MergeConfig(mode='d', allow_im=True, allow_sm=False, allow_identity_sm=False, "
            "allow_sibling_cut=False, atomic_sm_only=False)"
        )

    def test_merge_config_is_frozen(self):
        cfg = MergeConfig()
        forest_tests.assert_frozen(cfg, ["mode", "allow_im", "allow_sm", "allow_identity_sm",
                                         "allow_sibling_cut", "atomic_sm_only"])
        with pytest.raises(AttributeError):
            cfg.extra = 1

    def test_derivation_defaults_and_equality(self):
        ws = workspace(a, b)
        one, two = engine.Derivation(ws, "d"), engine.Derivation(initial=ws, mode="d")
        assert one.steps == [] and one.steps is not two.steps
        assert one == two and len(one) == 0 and one.final is ws
        one.steps.append(all_merge_successors(ws)[0])
        assert one != two and one.final != ws
        assert one == engine.Derivation(ws, "d", list(one.steps))
        assert engine.Derivation(ws, "c") != two
        with pytest.raises(TypeError):
            hash(one)
        assert repr(two) == "Derivation(initial=a⊔b, mode='d', steps=[])"

    def test_quotient_graph_fields_and_equality(self):
        g = form_copy_quotient(amalgam_tree(), [("read", 0, 2)])
        assert g == engine.QuotientGraph(8, 9, [17, 16]) == engine.QuotientGraph(
            leaf_count=8, initial_leaf_count=9, history=[17, 16]
        )
        assert g != engine.QuotientGraph(8, 9, [17, 15])
        with pytest.raises(TypeError):
            hash(g)
        assert repr(g) == "QuotientGraph(leaf_count=8, initial_leaf_count=9, history=[17, 16])"
        g.history.append(0)
        assert g.history == [17, 16, 0]

    def test_copied_and_pickled_records_are_equal(self):
        ws = workspace(node(a, b), c)
        deriv = replay(ws, [{"op": "EM", "args": [{"key": "(a|b)"}, {"key": "c"}]}], "d")
        records = [MergeConfig("c", allow_sibling_cut=True), deriv, form_copy_quotient(amalgam_tree(), [("read", 0, 2)])]
        for record in records:
            for twin in forest_tests.twins(record):
                assert type(twin) is type(record) and twin == record
        assert hash(forest_tests.twins(records[0])[2]) == hash(records[0])
