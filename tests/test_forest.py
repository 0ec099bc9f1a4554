import copy
import itertools
import json
import pickle
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from mergespace import forest
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import (
    ForestError,
    Leaf,
    Node,
    Renderer,
    Workspace,
    accessible_terms,
    double_factorial,
    enumerate_forests,
    enumerate_trees,
    forest_counts,
    forests_and_masks,
    leaf,
    leaf_count_over,
    multiset_counts,
    node,
    positions,
    quotient,
    subtree_at,
    trace_leaf,
    tree_from_json,
    tree_to_json,
    workspace,
    workspace_from_json,
    workspace_to_json,
    workspace_to_text,
)

a, b, c, d, e = (leaf(x) for x in "abcde")


# independent oracle: brute-force unordered-tree isomorphism
def iso(t1, t2):
    if isinstance(t1, Leaf) or isinstance(t2, Leaf):
        return (
            isinstance(t1, Leaf)
            and isinstance(t2, Leaf)
            and t1.name == t2.name
            and t1.trace == t2.trace
        )
    return (iso(t1.left, t2.left) and iso(t1.right, t2.right)) or (
        iso(t1.left, t2.right) and iso(t1.right, t2.left)
    )


@st.composite
def random_tree(draw, max_leaves=12):
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    trees = [leaf(x) for x in labels]
    while len(trees) > 1:
        i = draw(st.integers(min_value=0, max_value=len(trees) - 2))
        t1 = trees.pop(i)
        t2 = trees.pop(draw(st.integers(min_value=0, max_value=len(trees) - 1)))
        trees.append(node(t1, t2) if draw(st.booleans()) else node(t2, t1))
    return trees[0]


class TestCanonicalKey:
    def test_commutativity(self):
        assert node(a, b).key == node(b, a).key

    def test_recursive_commutativity(self):
        assert node(node(a, b), c).key == node(c, node(b, a)).key

    def test_non_associativity(self):
        assert node(node(a, b), c).key != node(node(a, c), b).key

    def test_idempotent(self):
        t = node(node(a, b), c)
        assert Node(t.left, t.right).key == t.key

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_tree(), random_tree())
    def test_key_equality_iff_isomorphic(self, t1, t2):
        assert (t1.key == t2.key) == iso(t1, t2)


class TestCounts:
    def test_single_leaf(self):
        assert a.leaves == 1 and a.alpha == 0
        assert accessible_terms(workspace(a)) == []

    def test_cherry(self):
        t = node(a, b)
        terms = accessible_terms(workspace(t))
        assert sorted(sub.key for _, sub in terms) == ["a", "b"]
        assert t.alpha == 2

    def test_three_leaf_tree(self):
        t = node(node(a, b), c)
        terms = accessible_terms(workspace(t))
        assert sorted(sub.key for _, sub in terms) == ["(a|b)", "a", "b", "c"]
        assert t.alpha == 4

    def test_sigma_is_alpha_plus_b0(self):
        for ws in enumerate_forests("abcd"):
            assert ws.sigma == ws.alpha + ws.b0
            assert len(accessible_terms(ws)) == ws.alpha

    def test_vertex_count_law(self):
        for t in enumerate_trees("abcde"):
            assert t.alpha + 1 == 2 * t.leaves - 1

    def test_trace_invisible(self):
        t = Node(trace_leaf("a"), b)
        assert t.leaves == 1
        assert t.alpha == 1  # only b counts
        assert t.alpha + 1 == 2


def multiplicity_patterns(n, largest=None):
    """The partitions of n, largest part first: one leaf multiset each."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in multiplicity_patterns(n - k, k):
            yield (k,) + rest


class TestMultisetCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_equal_enumeration(self, n):
        for pattern in multiplicity_patterns(n):
            labels = "".join(x * k for x, k in zip("abcdefg", pattern))
            counts = list(multiset_counts(labels))
            assert len(counts) == n
            for m, (trees, forests) in enumerate(counts, 1):
                prefix = sorted(labels)[:m]
                assert trees == len(enumerate_trees(prefix)), prefix
                assert forests == len(enumerate_forests(prefix, require_edge=False)), prefix

    def test_distinct_labels_give_the_closed_forms(self):
        counts = list(multiset_counts("abcdefgh"))
        assert [f for _, f in counts] == list(itertools.islice(forest_counts(), 1, 9))
        assert [t for t, _ in counts] == [double_factorial(2 * m - 3) for m in range(1, 9)]

    def test_nine_equal_leaves(self):
        # 46 trees (Wedderburn-Etherington) and 152 forests, 151 with an edge
        assert list(multiset_counts("a" * 9))[-1] == (46, 152)
        assert leaf_count_over(["a"] * 9, 150) == "152"
        assert leaf_count_over(["a"] * 9, 151, require_edge=True) is None
        assert leaf_count_over(["a"] * 9, 150, require_edge=True) == "151"
        assert leaf_count_over(["a"] * 9, 45, trees=True, require_edge=True) == "46"

    def test_distinct_refusals_unchanged(self):
        labels = list("abcdefghi")
        assert leaf_count_over(labels, 30_000, require_edge=True) == "5329836"
        assert leaf_count_over(labels, 150_000, trees=True) == str(double_factorial(15))
        assert leaf_count_over(labels[:7], 30_000, require_edge=True) is None

    @pytest.mark.parametrize(
        "labels",
        [
            ["a"] * 5_000,
            [f"l{i // 2}" for i in range(5_000)],
            [f"l{i % 50}" for i in range(5_000)],
            [f"l{i}" for i in range(4_999)] + ["l0"],
        ],
        ids=["one-label", "pairs", "fifty-labels", "one-repeat"],
    )
    def test_repeated_labels_stop_at_the_bound(self, labels):
        start = time.perf_counter()
        for trees in (False, True):
            over = leaf_count_over(labels, 150_000, trees=trees, require_edge=True)
            assert over.startswith("at least ") and int(over.split()[-1]) > 150_000
        assert time.perf_counter() - start < 1.0


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tree_count_double_factorial(self, n):
        labels = "abcdef"[:n]
        assert len(enumerate_trees(labels)) == double_factorial(2 * n - 3)

    def test_three_leaves_six_forests(self):
        assert len(enumerate_forests("abc")) == 6

    def test_two_leaves_single_cherry(self):
        out = enumerate_forests("ab")
        assert len(out) == 1 and out[0].key == node(a, b).key

    def test_four_leaves_36_forests(self):
        # oracle: sum over partition shapes of products of (2k-3)!!
        # [4]: 15, [3,1]: 4*3, [2,2]: 3, [2,1,1]: 6
        expected = 15 + 4 * 3 + 3 + 6
        forests = enumerate_forests("abcd")
        assert len(forests) == expected == 36
        trees = [w for w in forests if w.b0 == 1]
        assert len(trees) == 15

    def test_repeated_labels_deduplicated(self):
        assert len(enumerate_trees(("a", "a"))) == 1
        assert len(enumerate_trees(("a", "a", "b"))) == 2  # [[aa]b], [[ab]a]

    def test_repeated_labels_forests(self):
        # 2 trees + [aa]|b + [ab]|a; the all-singleton partition is dropped
        forests = enumerate_forests(("a", "a", "b"))
        assert len(forests) == 4
        assert len({w.key for w in forests}) == 4

    def test_empty_errors(self):
        with pytest.raises(ForestError):
            enumerate_forests([])

    def test_deterministic_order(self):
        assert [w.key for w in enumerate_forests("abc")] == [
            w.key for w in enumerate_forests("abc")
        ]

    @pytest.mark.parametrize(
        "labels, require_edge",
        [
            ("a", False),
            *(("abcdefg"[:n], r) for n in range(2, 7) for r in (True, False)),
            ("abcdefg", True), ("aabc", True), ("aabb", True), ("aaab", True), ("aabb", False),
        ],
    )
    def test_shared_memo_matches_per_block_reference(self, labels, require_edge):
        # every block of every set partition expanded by its own
        # enumerate_trees call, with no memo shared between blocks
        found = {}
        seen = set()
        for part in set_partitions(list(labels)):
            part = sorted(tuple(sorted(block)) for block in part)
            if tuple(part) in seen:
                continue
            seen.add(tuple(part))
            if require_edge and all(len(block) == 1 for block in part):
                continue
            for comps in itertools.product(*(enumerate_trees(block) for block in part)):
                ws = Workspace(comps)
                found[ws.key] = ws
        want = [w.key for w in sorted(found.values(), key=lambda w: (w.b0, w.key))]
        assert [w.key for w in enumerate_forests(labels, require_edge)] == want

    def test_each_tree_built_once(self, monkeypatch):
        # 6 distinct labels: sum over k = 2..6 of C(6, k) (2k - 3)!! = 1875
        # trees over the sub-multisets, each one constructed exactly once
        built = []

        class CountedNode(Node):
            __slots__ = ()

            def __new__(cls, left, right):
                built.append(1)
                return super().__new__(cls, left, right)

        monkeypatch.setattr(forest, "Node", CountedNode)
        enumerate_forests("abcdef")
        assert len(built) == 1875


def tree_masks(t, bit: dict, memo: dict) -> tuple:
    """(leaf mask, internal vertices' leaf masks, root last) of one tree over
    distinct labels, bit[label] being each label's mask, by a walk of the
    tree; memo maps each tree key already seen to its result."""
    out = memo.get(t.key)
    if out is None:
        if isinstance(t, Leaf):
            out = bit[t.name], ()
        else:
            (l, inner_l), (r, inner_r) = tree_masks(t.left, bit, memo), tree_masks(t.right, bit, memo)
            out = l | r, inner_l + inner_r + (l | r,)
        memo[t.key] = out
    return out


class TestMasks:
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("require_edge", [True, False])
    def test_masks_are_the_walked_masks(self, n, require_edge):
        # the bitset of masks carried through the enumeration holds those a
        # walk of each state's trees reads, one per internal vertex
        labels = "gfedcba"[-n:]  # given unsorted; bits follow sorted order
        forests, masks = forests_and_masks(labels, require_edge)
        assert [w.key for w in forests] == [w.key for w in enumerate_forests(labels, require_edge)]
        assert len(masks) == len(forests)
        bit = {x: 1 << i for i, x in enumerate(sorted(labels))}
        memo: dict = {}
        for ws, m in zip(forests, masks):
            walked = [x for comp in ws.components for x in tree_masks(comp, bit, memo)[1]]
            assert len(walked) == n - ws.b0
            assert {x for x in range(1 << n) if m >> x & 1} == set(walked), ws.key

    @pytest.mark.parametrize("labels", ["aa", "aabc", "aaabbcd", "a" * 9])
    def test_repeated_labels_have_no_masks(self, labels):
        forests, masks = forests_and_masks(labels)
        assert masks is None
        assert [w.key for w in forests] == [w.key for w in enumerate_forests(labels)]


def set_partitions(items):
    """Every partition of the list items into blocks, telling equal items
    apart by position."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def accessible_reference(ws):
    """(component, path, subtree key) of every non-root vertex that holds a
    live leaf, children visited left before right."""
    out = []

    def walk(ci, t, path):
        if path and t.leaves > 0:
            out.append((ci, path, t.key))
        if isinstance(t, Node):
            walk(ci, t.left, path + (0,))
            walk(ci, t.right, path + (1,))

    for ci, comp in enumerate(ws.components):
        walk(ci, comp, ())
    return out


class TestPositions:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_tree())
    def test_every_vertex_once_in_pre_order(self, t):
        got = list(positions(t, (1, 0)))
        paths = [p for p, _ in got]
        assert paths[0] == (1, 0) and got[0][1] is t
        # pre-order with the left child first is lexicographic path order
        assert paths == sorted(set(paths))
        assert len(paths) == 2 * t.leaves - 1
        for p, sub in got:
            assert subtree_at(t, p[2:]) is sub

    @pytest.mark.parametrize("labels", ["abcdef", "aabc"])
    def test_accessible_terms_match_reference(self, labels):
        for ws in enumerate_forests(labels, require_edge=False):
            got = [(c, p, sub.key) for (c, p), sub in accessible_terms(ws)]
            assert got == accessible_reference(ws)

    def test_accessible_terms_with_traces_match_reference(self):
        outputs = [
            s.output_ws
            for ws in enumerate_forests("abcd")
            for s in all_merge_successors(ws, MergeConfig(mode="c"))
        ]
        assert any("~" in ws.key for ws in outputs)
        for ws in outputs:
            got = [(c, p, sub.key) for (c, p), sub in accessible_terms(ws)]
            assert got == accessible_reference(ws)


def ref_to(ws, key, n=0):
    hits = [src for src, sub in accessible_terms(ws) if sub.key == key]
    return hits[n]


class TestQuotient:
    def test_deletion_contracts(self):
        ws = workspace(node(node(a, b), c))
        out = quotient(ws, [ref_to(ws, "a")], "d")
        assert out.key == workspace(node(b, c)).key

    def test_contraction_keeps_trace(self):
        ws = workspace(node(node(a, b), c))
        out = quotient(ws, [ref_to(ws, "a")], "c")
        (t,) = out.components
        assert t.leaves == 2 and t.alpha == 3
        assert "~a~" in t.key

    def test_cherry_full_cut_gives_unit(self):
        ws = workspace(node(a, b))
        out = quotient(ws, [ref_to(ws, "a"), ref_to(ws, "b")], "d")
        assert out.b0 == 0

    def test_overlapping_refs_rejected(self):
        ws = workspace(node(node(a, b), c))
        with pytest.raises(ForestError):
            quotient(ws, [ref_to(ws, "(a|b)"), ref_to(ws, "a")], "d")

    @pytest.mark.parametrize(
        "sources, message",
        [
            *(([(0, (1,)), (ci, (0,))], f"source ({ci}, (0,)): no component {ci} in a workspace of 2")
              for ci in (2, 5, -1)),
            ([(0, ())], "source (0, ()): the root of a component is not an accessible term"),
            ([(0, (0,)), (1, (0,)), (0, (0, 1))], "overlapping sources (0, (0,)) / (0, (0, 1))"),
            ([(1, (1,)), (1, (0,))], "sources [(1, (1,)), (1, (0,))]: path runs past a leaf"),
            *(([(0, (1,)), (0, path)], f"source {(0, path)}: a path step is neither 0 nor 1")
              for path in [(7,), (-1,), (0, 2), ("x",), (0, None)]),
        ],
        ids=["component-2", "component-5", "component-minus-1", "root", "overlap", "past-a-leaf",
             "step-7", "step-minus-1", "inner-step-2", "step-x", "inner-step-none"],
    )
    def test_bad_source_named(self, sources, message):
        ws = workspace(node(node(a, b), d), c)
        with pytest.raises(ForestError, match=re.escape(message)):
            quotient(ws, sources, "d")

    def test_deletion_always_full_binary(self):
        for ws in enumerate_forests("abcd"):
            terms = accessible_terms(ws)
            for src, _ in terms:
                out = quotient(ws, [src], "d")
                for comp in out.components:
                    stack = [comp]
                    while stack:
                        t = stack.pop()
                        if isinstance(t, Node):
                            stack.extend([t.left, t.right])
                            assert t.left is not None and t.right is not None


def recursive_tree_quotient(t, paths, mode):
    """tree_quotient as one recursion over both children at every vertex
    above a cut."""
    if () in paths:
        return trace_leaf(t.key) if mode == "c" else None
    if isinstance(t, Leaf):
        return t
    kids = []
    for i, child in enumerate((t.left, t.right)):
        below = [p[1:] for p in paths if p[0] == i]
        kids.append(recursive_tree_quotient(child, below, mode) if below else child)
    l, r = kids
    if l is None:
        return r
    if r is None:
        return l
    return Node(l, r)


def stored_shape(t) -> str:
    """The tree's children as stored, left then right, with the labels left
    out."""
    return "." if isinstance(t, Leaf) else "(" + stored_shape(t.left) + stored_shape(t.right) + ")"


class TestTreeQuotient:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_recursion(self, n):
        # every tree over n distinct labels, every cut at one vertex and at
        # two non-nested vertices, both modes.  At 7 leaves one tree per
        # stored shape: the walks differ between trees of one shape only in
        # the labels, which the two routines order with the same Node (all
        # 10 395 trees take about 30 s)
        trees = enumerate_trees("abcdefg"[:n])
        if n == 7:
            trees = list({stored_shape(t): t for t in trees}.values())
        for t in trees:
            paths = [p for p, _ in positions(t)]
            cuts = [[p] for p in paths] + [
                [p, q] for p, q in itertools.combinations(paths, 2) if not forest.nested(p, q)
            ]
            for cut in cuts:
                for mode in ("c", "d"):
                    got = forest.tree_quotient(t, cut, mode)
                    want = recursive_tree_quotient(t, cut, mode)
                    assert got == want and (got is None or got.key == want.key), (t.key, cut, mode)

    def test_keeps_the_order_of_equal_keys(self):
        # cutting z leaves the root two different children with one key,
        # (~p~|~q~|~r~); the rebuilt root keeps each on the side it came from
        kept = Node(trace_leaf("p~|~q"), trace_leaf("r"))
        other = Node(trace_leaf("p"), trace_leaf("q~|~r"))
        t = Node(Node(kept, leaf("z")), other)
        assert subtree_at(t, (0, 1)).key == "z"
        got = forest.tree_quotient(t, [(0, 1)], "d")
        assert got.left is kept and got.right is other
        assert got == recursive_tree_quotient(t, [(0, 1)], "d")

    @pytest.mark.parametrize("path", [(5,), (-1,), (0, 2), ("x",), (0, None)])
    def test_subtree_at_refuses_a_step_other_than_0_or_1(self, path):
        with pytest.raises(ForestError, match=re.escape(f"path {path}: step {path[-1]!r} is neither 0 nor 1")):
            subtree_at(node(node(a, b), c), path)

    @pytest.mark.parametrize(
        "paths, bad",
        [([(2,)], (2,)), ([(-1,)], (-1,)), ([("x",)], ("x",)), ([(1,), (5,)], (5,)), ([(0, 0), (0, 3)], (0, 3))],
    )
    def test_tree_quotient_refuses_a_step_other_than_0_or_1(self, paths, bad):
        with pytest.raises(ForestError, match=re.escape(f"path {bad}: step {bad[-1]!r} is neither 0 nor 1")):
            forest.tree_quotient(node(node(a, b), c), paths, "d")

    def test_path_past_a_leaf_rejected(self):
        with pytest.raises(ForestError, match="past a leaf"):
            forest.tree_quotient(node(a, b), [(0, 1)], "d")
        with pytest.raises(ForestError, match="past a leaf"):
            forest.tree_quotient(node(a, b), [(0, 0), (0, 1)], "c")


def every_record():
    """One instance of each of the four immutable record classes."""
    t = node(node(a, b), c)
    ws = workspace(t, d)
    (step,) = [s for s in all_merge_successors(ws) if s.tag == "EM"]
    return [a, t, ws, step]


def assert_frozen(record, names) -> None:
    """Each field of record named in names can be neither assigned nor
    deleted, and keeps its value through the attempts."""
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def twins(record) -> tuple:
    """A shallow copy, a deep copy and a pickle round trip of record."""
    return copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))


class TestRecords:
    @pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
    def test_fields_can_be_neither_assigned_nor_deleted(self, record):
        assert_frozen(record, type(record).__slots__)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
    def test_copied_and_pickled_records_are_equal(self, record):
        for twin in twins(record):
            assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
            assert all(getattr(twin, n) == getattr(record, n) for n in type(record).__slots__)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(random_tree(), random_tree())
    def test_child_order_does_not_matter(self, t1, t2):
        one, other = Node(t1, t2), Node(t2, t1)
        assert one == other and hash(one) == hash(other) and one.key == other.key
        ws1, ws2 = workspace(t1, t2, c), workspace(c, t2, t1)
        assert ws1 == ws2 and hash(ws1) == hash(ws2)

    def test_hash_is_by_key(self):
        for record in every_record()[:3]:
            assert hash(record) == hash(record.key)

    def test_equal_keys_in_either_order_are_equal(self):
        # trace names may hold the key's separators: two different trees
        # share the key (~p~|~q~|~r~), and the constructors keep the order
        # in which such trees are given
        one = Node(trace_leaf("p~|~q"), trace_leaf("r"))
        two = Node(trace_leaf("p"), trace_leaf("q~|~r"))
        assert one.key == two.key and one != two
        for make in (workspace, Node):
            assert make(one, two) == make(two, one) and hash(make(one, two)) == hash(make(two, one))
            assert make(one, one) != make(one, two) != make(two, two)
        assert workspace(one, two, one) == workspace(one, one, two) != workspace(one, two, two)

    def test_equal_keys_of_different_workspaces(self):
        # "~x~⊔~y~" is the key of both, but one holds one trace and the other two
        one = workspace_from_json([{"trace": "x~⊔~y"}])
        two = workspace_from_json([{"trace": "x"}, {"trace": "y"}])
        assert one.key == two.key
        assert one != two and two != one

    def test_equal_keys_of_different_trees(self):
        # trace names holding the key's separators give two trees one key
        one = Node(trace_leaf("p~|~q"), trace_leaf("r"))
        two = Node(trace_leaf("p"), trace_leaf("q~|~r"))
        assert one.key == two.key and one != two

    def test_equality_by_class_and_fields(self):
        assert leaf("a") == leaf("a") and leaf("a") != trace_leaf("a")
        assert node(a, b) != a and a != node(a, b)
        ws = workspace(node(a, b), c)
        x, y = accessible_terms(ws)[:2]
        assert x == accessible_terms(workspace(node(a, b), c))[0] and x != y


class TestSerialization:
    def test_round_trip(self):
        t = Node(node(a, b), Node(trace_leaf("(a|b)"), c))
        assert tree_from_json(tree_to_json(t)).key == t.key

    def test_workspace_round_trip(self):
        ws = workspace(node(a, b), c, node(d, e))
        assert workspace_from_json(workspace_to_json(ws)).key == ws.key

    def test_json_shape(self):
        assert tree_to_json(node(a, b)) in (["M", "a", "b"], ["M", "b", "a"])
        assert tree_to_json(trace_leaf("x")) == {"trace": "x"}


def recursive_text(t) -> str:
    if isinstance(t, Leaf):
        return t.key
    return "[" + recursive_text(t.left) + " " + recursive_text(t.right) + "]"


class TestRenderer:
    # two different trees with one key, (~p~|~q~|~r~): a memo keyed on keys
    # would render the second as the first
    SAME_KEY = (Node(trace_leaf("p~|~q"), trace_leaf("r")), Node(trace_leaf("p"), trace_leaf("q~|~r")))

    def check(self, render, ws):
        assert render.workspace_json(ws) == json.dumps(workspace_to_json(ws))
        text = " ⊔ ".join(recursive_text(t) for t in ws.components) or "1"
        assert render.workspace_text(ws) == workspace_to_text(ws) == text
        assert render.json_forms(ws) == (json.dumps(workspace_to_json(ws)), json.dumps(text))

    def test_matches_json_dumps_and_the_recursion(self):
        render = Renderer()  # one memo for every output, as in one request
        labels = [leaf(x) for x in ("a", "ü", "日本", 'q"\\', "𝔞")]
        traces = Node(trace_leaf("~x~"), trace_leaf("(a|b)⊔c"))
        ws = workspace(Node(*labels[:2]), Node(Node(labels[2], trace_leaf("(a|ü)")), labels[3]), Node(labels[4], traces))
        for w in (ws, workspace(), workspace(*self.SAME_KEY), workspace(node(a, b), c)):
            self.check(render, w)
        for step in all_merge_successors(ws, MergeConfig(mode="c")):
            self.check(render, step.output_ws)

    def test_shared_subtrees_rendered_once(self):
        render = Renderer()
        shared = node(node(a, b), c)
        render.workspace_json(workspace(Node(shared, d)))
        rendered = len(render._memo)
        shared_json = render.workspace_json(workspace(shared))[1:-1]
        assert render.workspace_json(workspace(Node(shared, e))) == '[["M", ' + shared_json + ', "e"]]'
        # only the new root and its new leaf e; shared and its subtrees are reused
        assert len(render._memo) == rendered + 2
