from fractions import Fraction

import pytest

from mergespace.forest import (
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
    CKTree,
    LinComb,
    TensorComb,
    UNIT,
    ck_coproduct,
    ck_counit_check,
    ck_forest,
    cocycle_defect,
    coproduct,
    enumerate_ck_forests,
    enumerate_ck_trees,
    insertion_cocycle_defect,
    insertion_delta,
    insertion_delta_ws,
    perturbed_grafter,
    verify_cocycle,
    ws_union,
)

a, b, c = leaf("a"), leaf("b"), leaf("c")


class TestLinComb:
    def test_zero_coefficients_dropped(self):
        lc = LinComb.of("x", 1)
        lc.add("x", -1)
        assert not lc and len(lc) == 0

    def test_exact_arithmetic(self):
        lc = LinComb.of("x", Fraction(1, 3)) + LinComb.of("x", Fraction(2, 3))
        assert lc == LinComb.of("x", 1)


class TestWorkspaceCoproduct:
    def test_leaf_is_primitive(self):
        ws = workspace(a)
        got = coproduct(ws, "d")
        want = TensorComb.pure(UNIT, ws) + TensorComb.pure(ws, UNIT)
        assert got == want

    def test_cherry_deletion_terms(self):
        # frozen by hand from the definition: all disjoint cut collections
        ws = workspace(node(a, b))
        got = coproduct(ws, "d")
        want = TensorComb()
        want.add((UNIT, ws), 1)
        want.add((workspace(a), workspace(b)), 1)
        want.add((workspace(b), workspace(a)), 1)
        want.add((workspace(a, b), UNIT), 1)
        want.add((ws, UNIT), 1)
        assert got == want

    def test_contraction_keeps_trace_term(self):
        t = node(node(a, b), c)
        got = coproduct(workspace(t), "c")
        cherry = node(a, b)
        quot = Node(trace_leaf(cherry.key), c)
        assert got.terms.get((workspace(cherry), workspace(quot))) == 1

    def test_coefficients_count_multiplicity(self):
        # two symmetric cuts of M(M(a,b), M(a,b)) land on the same pair
        t = node(node(a, b), node(a, b))
        got = coproduct(workspace(t), "d")
        cherry = node(a, b)
        quot = node(b, cherry)  # delete one 'a', contract
        assert got.terms.get((workspace(a), workspace(quot))) == 2
        assert got.terms.get((workspace(cherry), workspace(cherry))) == 2

    def test_multiplicative_over_union(self):
        for ws in enumerate_forests("abcd") + enumerate_forests("abcde"):
            if ws.b0 < 2:
                continue
            first = Workspace(ws.components[:1])
            rest = Workspace(ws.components[1:])
            for mode in ("c", "d"):
                assert coproduct(ws, mode) == coproduct(first, mode).product(
                    coproduct(rest, mode), ws_union
                )

    def test_deletion_grading(self):
        for t in enumerate_trees("abcd"):
            total = t.leaves
            for (left, right), coef in coproduct(workspace(t), "d").terms.items():
                assert left.degree + right.degree == total


def v(label, *kids):
    return CKTree(label, tuple(kids))


class TestCKCoproduct:
    def test_single_vertex_primitive(self):
        f = ck_forest(v("a"))
        got = ck_coproduct(f)
        want = TensorComb.pure(CK_UNIT, f) + TensorComb.pure(f, CK_UNIT)
        assert got == want

    def test_ladder_terms(self):
        # alpha above beta: empty cut, the one edge cut, full cut
        t = v("a", v("b"))
        got = ck_coproduct(ck_forest(t))
        want = TensorComb()
        want.add((CK_UNIT, ck_forest(t)), 1)
        want.add((ck_forest(v("b")), ck_forest(v("a"))), 1)
        want.add((ck_forest(t), CK_UNIT), 1)
        assert got == want

    def test_corolla_all_edge_subsets(self):
        t = v("a", v("b"), v("c"), v("d"))
        got = ck_coproduct(ck_forest(t))
        # 2^3 admissible cut subsets plus the full cut, all distinct
        assert len(got) == 2 ** 3 + 1
        assert all(coef == 1 for _, coef in got)

    def test_counit_exhaustive(self):
        for f in enumerate_ck_forests(4, "ab"):
            assert ck_counit_check(f)

    def test_forest_enumeration_is_every_multiset_once(self):
        trees = {t.key for n in range(1, 6) for t in enumerate_ck_trees(n, "ab")}
        for m, count in enumerate([1, 3, 10, 36, 143, 601]):
            forests = enumerate_ck_forests(m, "ab")
            assert len(forests) == count
            assert len({f.key for f in forests}) == count
            assert forests == sorted(forests, key=lambda f: (f.size, f.key))
            assert all(f.size <= m and {t.key for t in f.trees} <= trees for f in forests)

    def test_tree_enumeration_sizes(self):
        assert len(enumerate_ck_trees(1, "ab")) == 2
        assert len(enumerate_ck_trees(2, "ab")) == 4
        # 3 vertices: ladder (2*4) + two-child root (2*3 label multisets)
        assert len(enumerate_ck_trees(3, "ab")) == 14


class TestGrafting:
    def test_empty_forest_grafts_to_single_vertex(self):
        from mergespace.hopf import graft_B

        t = graft_B(CK_UNIT)
        assert t.size == 1 and t.children == () and t.label is None

    def test_labeled_binary_and_ternary_roots(self):
        from mergespace.hopf import graft_B, ck_forest

        t2 = graft_B(ck_forest(v("a"), v("b")), root_label="x")
        assert t2.label == "x" and len(t2.children) == 2
        t3 = graft_B(ck_forest(v("a"), v("b"), v("c")))
        assert len(t3.children) == 3


class TestCocycle:
    def test_empty_forest_base_case(self):
        assert not cocycle_defect(CK_UNIT, "a")

    def test_holds_up_to_four_vertices(self):
        report = verify_cocycle(4)
        assert report["ok"], report
        assert report["checked"] > 100

    def test_perturbed_grafting_fails_with_witness(self):
        report = verify_cocycle(3, grafter=perturbed_grafter("a"))
        assert not report["ok"]
        assert report["counterexample"] is not None


class TestIntegerCoefficients:
    def test_coproducts_and_defects_count_in_ints(self):
        combs = [coproduct(workspace(node(node(a, b), node(a, b)), c), mode) for mode in "cd"]
        f = ck_forest(v("a", v("b"), v("b")), v("a"))
        combs.append(ck_coproduct(f))
        combs.append(cocycle_defect(f, "a", grafter=perturbed_grafter("a")))
        combs.append(insertion_cocycle_defect(node(node(a, b), c), "x"))
        for comb in combs:
            assert comb
            assert all(type(coef) is int for _, coef in comb)


class TestInsertion:
    def test_two_edges_two_terms(self):
        got = insertion_delta(node(b, c), "x")
        assert len(got) == 2
        assert sum(got.terms.values()) == 2

    def test_edgeless_target_rejected(self):
        with pytest.raises(Exception):
            insertion_delta(a, "x")

    def test_derivation_law(self):
        t1, t2 = node(a, b), node(node(a, c), b)
        ws = workspace(t1, t2)
        lhs = insertion_delta_ws(ws, "x")
        rhs = LinComb()
        for w, coef in insertion_delta(t1, "x").terms.items():
            rhs.add(Workspace(w.components + (t2,)), coef)
        for w, coef in insertion_delta(t2, "x").terms.items():
            rhs.add(Workspace(w.components + (t1,)), coef)
        assert lhs == rhs

    def test_cocycle_fails_with_documented_witness(self):
        t = node(node(a, b), c)
        defect = insertion_cocycle_defect(t, "x")
        assert defect
        # witness: an insertion landing inside a proper extracted part
        cherry = node(a, b)
        inserted_cherries = {
            w.components[0].key
            for w in insertion_delta(cherry, "x").terms.keys()
        }
        witnesses = [
            (left, right)
            for (left, right) in defect.terms
            if left.b0 == 1 and left.components[0].key in inserted_cherries
        ]
        assert witnesses, "no term of the form delta(extracted) (x) quotient"
