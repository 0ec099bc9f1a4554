import copy
import itertools
import pickle
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import pytest

from mergespace import hopf

from mergespace.forest import (
    ForestError,
    FrozenInstanceError,
    Node,
    Workspace,
    enumerate_forests,
    enumerate_trees,
    leaf,
    node,
    trace_leaf,
    workspace,
)
from mergespace.hopf import (
    CK_UNIT,
    CKForest,
    CKTree,
    UNIT,
    ck_coproduct,
    cocycle_defect,
    coproduct,
    enumerate_ck_forests,
    graft_B,
    insertion_cocycle_defect,
    insertion_delta,
    insertion_delta_ws,
    perturbed_grafter,
    verify_cocycle,
    ws_union,
)

a, b, c = leaf("a"), leaf("b"), leaf("c")


def tensor_product(p, q, mul):
    """Componentwise product: (x1 (x) y1)(x2 (x) y2) = x1x2 (x) y1y2."""
    out = Counter()
    for (x1, y1), c1 in p.items():
        for (x2, y2), c2 in q.items():
            out[mul(x1, x2), mul(y1, y2)] += c1 * c2
    return dict(out)


class TestWorkspaceCoproduct:
    def test_leaf_is_primitive(self):
        ws = workspace(a)
        got = coproduct(ws, "d")
        assert got == {(UNIT, ws): 1, (ws, UNIT): 1}

    def test_cherry_deletion_terms(self):
        # frozen by hand from the definition: all disjoint cut collections
        ws = workspace(node(a, b))
        got = coproduct(ws, "d")
        assert got == {
            (UNIT, ws): 1,
            (workspace(a), workspace(b)): 1,
            (workspace(b), workspace(a)): 1,
            (workspace(a, b), UNIT): 1,
            (ws, UNIT): 1,
        }

    def test_contraction_keeps_trace_term(self):
        t = node(node(a, b), c)
        got = coproduct(workspace(t), "c")
        cherry = node(a, b)
        quot = Node(trace_leaf(cherry.key), c)
        assert got.get((workspace(cherry), workspace(quot))) == 1

    def test_coefficients_count_multiplicity(self):
        # two symmetric cuts of M(M(a,b), M(a,b)) land on the same pair
        t = node(node(a, b), node(a, b))
        got = coproduct(workspace(t), "d")
        cherry = node(a, b)
        quot = node(b, cherry)  # delete one 'a', contract
        assert got.get((workspace(a), workspace(quot))) == 2
        assert got.get((workspace(cherry), workspace(cherry))) == 2

    def test_multiplicative_over_union(self):
        for ws in enumerate_forests("abcd") + enumerate_forests("abcde"):
            if ws.b0 < 2:
                continue
            first = Workspace(ws.components[:1])
            rest = Workspace(ws.components[1:])
            for mode in ("c", "d"):
                assert coproduct(ws, mode) == tensor_product(
                    coproduct(first, mode), coproduct(rest, mode), ws_union
                )

    def test_deletion_grading(self):
        for t in enumerate_trees("abcd"):
            total = t.leaves
            for (left, right), coef in coproduct(workspace(t), "d").items():
                assert left.degree + right.degree == total


def v(label, *kids):
    return CKTree(label, tuple(kids))


def vertices(x) -> int:
    """The vertex count of a CKTree or a CKForest."""
    if isinstance(x, CKForest):
        return sum(map(vertices, x.trees))
    return 1 + sum(map(vertices, x.children))


def ck_trees(n, alphabet):
    """The labeled trees with exactly n vertices: the single-tree forests."""
    return [f.trees[0] for f in enumerate_ck_forests(n, alphabet) if len(f.trees) == 1 and vertices(f) == n]


class TestCKCoproduct:
    def test_single_vertex_primitive(self):
        f = CKForest((v("a"),))
        got = ck_coproduct(f)
        assert got == {(CK_UNIT, f): 1, (f, CK_UNIT): 1}

    def test_ladder_terms(self):
        # alpha above beta: empty cut, the one edge cut, full cut
        t = v("a", v("b"))
        got = ck_coproduct(CKForest((t,)))
        assert got == {
            (CK_UNIT, CKForest((t,))): 1,
            (CKForest((v("b"),)), CKForest((v("a"),))): 1,
            (CKForest((t,)), CK_UNIT): 1,
        }

    def test_corolla_all_edge_subsets(self):
        t = v("a", v("b"), v("c"), v("d"))
        got = ck_coproduct(CKForest((t,)))
        # 2^3 admissible cut subsets plus the full cut, all distinct
        assert len(got) == 2 ** 3 + 1
        assert all(coef == 1 for coef in got.values())

    def test_counit_exhaustive(self):
        # (eps (x) id) Delta = id: the terms with an empty left side sum to F
        for f in enumerate_ck_forests(4, "ab"):
            collapsed = Counter()
            for (x, y), coef in ck_coproduct(f).items():
                if x == CK_UNIT:
                    collapsed[y] += coef
            assert collapsed == {f: 1}

    def test_forest_enumeration_is_every_multiset_once(self):
        trees = {t.key for n in range(1, 6) for t in ck_trees(n, "ab")}
        for m, count in enumerate([1, 3, 10, 36, 143, 601]):
            forests = enumerate_ck_forests(m, "ab")
            assert len(forests) == count
            assert len({f.key for f in forests}) == count
            assert forests == sorted(forests, key=lambda f: (vertices(f), f.key))
            assert all(vertices(f) <= m and {t.key for t in f.trees} <= trees for f in forests)

    def test_tree_enumeration_sizes(self):
        assert len(ck_trees(1, "ab")) == 2
        assert len(ck_trees(2, "ab")) == 4
        # 3 vertices: ladder (2*4) + two-child root (2*3 label multisets)
        assert len(ck_trees(3, "ab")) == 14


class TestGrafting:
    def test_empty_forest_grafts_to_single_vertex(self):
        t = graft_B(CK_UNIT)
        assert vertices(t) == 1 and t.children == () and t.label is None

    def test_labeled_binary_and_ternary_roots(self):
        t2 = graft_B(CKForest((v("a"), v("b"))), root_label="x")
        assert t2.label == "x" and len(t2.children) == 2
        t3 = graft_B(CKForest((v("a"), v("b"), v("c"))))
        assert len(t3.children) == 3


class TestCocycle:
    def test_empty_forest_base_case(self):
        assert cocycle_defect(CK_UNIT, partial(graft_B, root_label="a")) == {}

    def test_holds_up_to_four_vertices(self):
        report = verify_cocycle(4)
        assert report["ok"], report
        assert report["checked"] == 286

    def test_perturbed_grafting_fails_with_witness(self):
        report = verify_cocycle(3, grafter=perturbed_grafter("a"))
        assert not report["ok"]
        assert report["counterexample"] is not None

    @pytest.mark.parametrize("max_vertices", [3, 4])
    @pytest.mark.parametrize("label", ["a", "b"])
    def test_perturbed_counterexample(self, max_vertices, label):
        # the third case, F = a with root label a, and its least term
        report = verify_cocycle(max_vertices, grafter=perturbed_grafter(label))
        single = CKForest((v("a"),))
        assert report == {
            "ok": False,
            "checked": 3,
            "counterexample": {
                "forest": single,
                "label": "a",
                "term": ((single, CKForest((v(label),))), -1),
            },
        }

    def test_holds_up_to_five_vertices(self):
        report = verify_cocycle(5)
        assert report == {"ok": True, "checked": 1202, "counterexample": None}


# The coproduct and cocycle route as frozen dataclasses, kept here as the
# reference that the slotted records and per-tree cut lists must reproduce.


@dataclass(frozen=True)
class RefTree:
    label: Optional[str]
    children: tuple = ()
    key: str = field(init=False, compare=False)
    size: int = field(init=False, compare=False)

    def __post_init__(self):
        kids = tuple(sorted(self.children, key=lambda t: t.key))
        object.__setattr__(self, "children", kids)
        lab = self.label if self.label is not None else "•"
        object.__setattr__(self, "key", lab + "[" + "|".join(k.key for k in kids) + "]")
        object.__setattr__(self, "size", 1 + sum(k.size for k in kids))

    def __hash__(self):
        return hash(self.key)


@dataclass(frozen=True)
class RefForest:
    trees: tuple = ()
    key: str = field(init=False, compare=False)

    def __post_init__(self):
        ts = tuple(sorted(self.trees, key=lambda t: t.key))
        object.__setattr__(self, "trees", ts)
        object.__setattr__(self, "key", "⊔".join(t.key for t in ts) or "1")

    def __hash__(self):
        return hash(self.key)


REF_UNIT = RefForest(())


def ref_cuts(t):
    child_options = []
    for ch in t.children:
        child_options.append([((ch,), None)] + list(ref_cuts(ch)))
    for combo in itertools.product(*child_options):
        pruned, kept = (), []
        for pi, rho in combo:
            pruned += pi
            if rho is not None:
                kept.append(rho)
        yield pruned, RefTree(t.label, tuple(kept))


def ref_tree_coproduct(t):
    out = Counter((RefForest(pruned), RefForest((kept,))) for pruned, kept in ref_cuts(t))
    out[RefForest((t,)), REF_UNIT] += 1
    return out


def ref_coproduct(f):
    out = {(REF_UNIT, REF_UNIT): 1}
    for t in f.trees:
        out = tensor_product(out, ref_tree_coproduct(t), lambda a, b: RefForest(a.trees + b.trees))
    return out


def ref_defect(f, root_label, grafter=None):
    B = grafter or (lambda fr: RefTree(root_label, fr.trees))
    grafted = RefForest((B(f),))
    defect = Counter(ref_coproduct(grafted))
    defect[grafted, REF_UNIT] -= 1
    for (x, y), c in ref_coproduct(f).items():
        defect[x, RefForest((B(y),))] -= c
    return defect


def ref_perturbed(root_label):
    def B_bad(f):
        inner = RefTree(root_label, f.trees)
        return RefTree(root_label, (inner,)) if f.trees else RefTree(root_label)

    return B_bad


def to_ref(t):
    return RefTree(t.label, tuple(map(to_ref, t.children)))


def from_ref(t):
    return CKTree(t.label, tuple(map(from_ref, t.children)))


def from_ref_comb(comb):
    out = Counter()
    for (x, y), c in comb.items():
        out[CKForest(tuple(map(from_ref, x.trees))), CKForest(tuple(map(from_ref, y.trees)))] += c
    return {t: c for t, c in out.items() if c}


class TestAgainstDataclassRoute:
    @pytest.mark.parametrize("size", range(6))
    def test_coproduct_and_defects_on_every_forest(self, size):
        forests = [f for f in enumerate_ck_forests(5, "ab") if vertices(f) == size]
        assert len(forests) == [1, 2, 7, 26, 107, 458][size]
        for f in forests:
            ref = RefForest(tuple(map(to_ref, f.trees)))
            assert ck_coproduct(f) == from_ref_comb(ref_coproduct(ref)), f
            for lab in "ab":
                B = partial(graft_B, root_label=lab)
                assert cocycle_defect(f, B) == from_ref_comb(ref_defect(ref, lab)) == {}
                bad = cocycle_defect(f, perturbed_grafter(lab))
                assert bad == from_ref_comb(ref_defect(ref, lab, grafter=ref_perturbed(lab))), (f, lab)

    def test_multiplicities_survive(self):
        # two equal children: cutting either gives one term twice
        t = v("a", v("b"), v("b"))
        got = ck_coproduct(CKForest((t, t)))
        ref = ref_coproduct(RefForest((to_ref(t), to_ref(t))))
        assert got == from_ref_comb(ref)
        assert max(got.values()) == 4


class TestSlottedRecords:
    def test_frozen(self):
        t, f = v("a", v("b")), CKForest((v("a"),))
        for rec, name in ((t, "label"), (t, "children"), (f, "trees"), (f, "key")):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, name)

    def test_equality_is_structural_not_by_key(self):
        # "•" as a label writes the same key as an unlabeled vertex
        assert CKTree("•").key == CKTree(None).key
        assert CKTree("•") != CKTree(None)
        assert CKForest((CKTree("•"),)) != CKForest((CKTree(None),))
        assert v("a", v("b"), v("a")) == v("a", v("a"), v("b"))
        assert hash(v("a", v("b"))) == hash(v("a", v("b")))

    def test_copy_and_pickle_with_and_without_cuts(self):
        t = v("a", v("b"), v("a", v("b")))
        for _ in range(2):  # before its cut list is filled, then after
            for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert twin == t and twin.key == t.key and vertices(twin) == vertices(t) == 4
                assert ck_coproduct(CKForest((twin,))) == ck_coproduct(CKForest((t,)))
        f = CKForest((t, v("b")))
        assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)


class TestCutsOncePerTree:
    def test_each_call_cuts_every_tree_once(self, monkeypatch):
        # the trees up to 5 vertices: the grafted trees of all 286 cases
        everything = {t.key for n in range(1, 6) for t in ck_trees(n, "ab")}
        assert len(everything) == 286
        real = hopf._tree_admissible_cuts
        cut: list = []

        def counted(t):
            cut.append(t)
            return real(t)

        monkeypatch.setattr(hopf, "_tree_admissible_cuts", counted)
        runs = []
        for _ in range(2):
            cut.clear()
            assert verify_cocycle(4)["ok"]
            # every distinct tree is cut, each through one object: a
            # grafted tree the enumerator already built is not cut again
            assert len({id(t) for t in cut}) == len(cut)
            assert {t.key for t in cut} == everything
            assert len(cut) == 286
            runs.append(len(cut))
        assert runs[0] == runs[1]  # nothing carries over between calls


class TestIntegerCoefficients:
    def test_coproducts_and_defects_count_in_ints(self):
        t = node(node(a, b), node(a, b))
        combs = [coproduct(workspace(t, c), mode) for mode in "cd"]
        f = CKForest((v("a", v("b"), v("b")), v("a")))
        combs.append(ck_coproduct(f))
        combs.append(cocycle_defect(f, perturbed_grafter("a")))
        combs.append(insertion_delta(t, "x"))
        combs.append(insertion_delta_ws(workspace(t, node(b, c)), "x"))
        combs.append(insertion_cocycle_defect(node(node(a, b), c), "x"))
        for comb in combs:
            assert type(comb) is dict and comb
            assert all(type(coef) is int and coef != 0 for coef in comb.values())
        # a defect that cancels is the empty dict, not a dict of zeros
        assert cocycle_defect(f, partial(graft_B, root_label="a")) == {}


class TestInsertion:
    def test_two_edges_two_terms(self):
        got = insertion_delta(node(b, c), "x")
        assert len(got) == 2
        assert sum(got.values()) == 2

    def test_edgeless_target_rejected(self):
        with pytest.raises(ForestError, match="^insertion needs a target with at least one edge$"):
            insertion_delta(a, "x")

    def test_derivation_law(self):
        t1, t2 = node(a, b), node(node(a, c), b)
        ws = workspace(t1, t2)
        lhs = insertion_delta_ws(ws, "x")
        rhs = Counter()
        for w, coef in insertion_delta(t1, "x").items():
            rhs[Workspace(w.components + (t2,))] += coef
        for w, coef in insertion_delta(t2, "x").items():
            rhs[Workspace(w.components + (t1,))] += coef
        assert lhs == rhs

    def test_cocycle_fails_with_documented_witness(self):
        t = node(node(a, b), c)
        defect = insertion_cocycle_defect(t, "x")
        assert defect
        # witness: an insertion landing inside a proper extracted part
        cherry = node(a, b)
        inserted_cherries = {
            w.components[0].key
            for w in insertion_delta(cherry, "x")
        }
        witnesses = [
            (left, right)
            for (left, right) in defect
            if left.b0 == 1 and left.components[0].key in inserted_cherries
        ]
        assert witnesses, "no term of the form delta(extracted) (x) quotient"
