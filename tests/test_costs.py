from fractions import Fraction

import pytest

from mergespace.costs import (
    CostError,
    CostVector,
    EM_AFTER_SM_TABLE,
    HierarchyClass,
    classify_hierarchy,
    cl_cost,
    derivation_cost,
    fc_cost_report,
    ms_cost,
    quotient_cost,
    rr_delta,
    step_costs,
)
from mergespace.engine import (
    MergeConfig,
    all_merge_successors,
    form_copy_quotient,
    replay,
)
from mergespace.forest import enumerate_forests, leaf, node, workspace

import test_forest as forest_tests
from test_engine import amalgam_tree

a, b, c, d = (leaf(x) for x in "abcd")
CFG_D = MergeConfig(mode="d")
CFG_C = MergeConfig(mode="c")


def steps_by_tag(ws, cfg, tag):
    return [s for s in all_merge_successors(ws, cfg) if s.tag == tag]


class TestMsCost:
    def test_em_zero(self):
        (s,) = steps_by_tag(workspace(a, b), CFG_D, "EM")
        assert ms_cost(s) == 0

    def test_sm3_pair_of_pairs_from_six(self):
        T = node(node(leaf("h"), node(node(a, b), node(c, d))), leaf("x"))
        script = [{"op": "SM3", "args": [{"key": "(a|b)"}, {"key": "(c|d)"}]}]
        deriv = replay(workspace(T), script, allow_sibling_cut=True)
        assert ms_cost(deriv.steps[0]) == Fraction(1, 3)

    def test_sm1_leaf_from_cherry(self):
        ws = workspace(node(a, b), c)
        costs = {ms_cost(s) for s in steps_by_tag(ws, CFG_D, "SM1")}
        assert costs == {Fraction(1, 2)}

    def test_zero_cost_iff_em_or_im(self):
        for labels in ("abc", "abcd"):
            for ws in enumerate_forests(labels):
                for cfg in (CFG_D, CFG_C):
                    for s in all_merge_successors(ws, cfg):
                        assert (ms_cost(s) == 0) == (s.tag in ("EM", "IM")), s


class TestRRDeltas:
    def test_em_row(self):
        (s,) = steps_by_tag(workspace(a, b), CFG_D, "EM")
        assert rr_delta(s) == (-1, 2, 1)

    def test_im_mode_d_neutral(self):
        t = node(node(a, b), c)
        for s in steps_by_tag(workspace(t), CFG_D, "IM"):
            assert rr_delta(s) == (0, 0, 0)

    def test_sm2_mode_d(self):
        ws = workspace(node(a, b), node(c, d))
        for s in steps_by_tag(ws, CFG_D, "SM2"):
            assert rr_delta(s) == (1, -2, -1)

    def test_all_successors_match_table_3_and_4_leaves(self):
        for labels in ("abc", "abcd"):
            for ws in enumerate_forests(labels):
                for cfg in (CFG_D, CFG_C):
                    for s in all_merge_successors(ws, cfg):
                        rr_delta(s)  # raises on mismatch

    def test_sm1_behaves_like_im_under_deletion(self):
        for labels in ("abc", "abcd"):
            for ws in enumerate_forests(labels):
                for s in steps_by_tag(ws, CFG_D, "SM1"):
                    assert rr_delta(s) == (0, 0, 0)

    def test_sigma_hat_consistency(self):
        for ws in enumerate_forests("abcd"):
            for s in all_merge_successors(ws, CFG_D):
                v = step_costs(s)
                got_hat = (s.output_ws.b0 + s.output_ws.sigma) - (
                    s.input_ws.b0 + s.input_ws.sigma
                )
                assert v.dsigma_hat == got_hat


class TestComplexityLoss:
    def test_sm1_leaf(self):
        ws = workspace(node(a, b), c)
        for s in steps_by_tag(ws, CFG_D, "SM1"):
            assert cl_cost(s) == 1

    def test_sm3_two_leaves(self):
        t = node(node(a, b), c)
        for s in steps_by_tag(workspace(t), CFG_D, "SM3"):
            assert cl_cost(s) == 2

    def test_im_zero(self):
        t = node(node(a, b), c)
        for s in steps_by_tag(workspace(t), CFG_D, "IM"):
            assert cl_cost(s) == 0


class TestHierarchy:
    def composite(self, host, extract_key, other_label):
        ws = workspace(host, leaf(other_label)) if isinstance(other_label, str) else workspace(host, other_label)
        script = [
            {"op": "SM1", "args": [{"key": extract_key}, {"component": None}]},
            {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
        ]
        # resolve the non-host component by key instead
        other_key = ws.components[0].key if ws.components[0].key != host.key else ws.components[1].key
        script[0]["args"][1] = {"key": other_key}
        deriv = replay(ws, script)
        return deriv.steps[0], deriv.steps[1]

    def test_head_to_head(self):
        host = node(node(a, b), c)
        sm, em = self.composite(host, "a", "z")
        assert classify_hierarchy(sm, em) == (HierarchyClass.HEAD_TO_HEAD, (1, 1))

    def test_head_to_phrase(self):
        host = node(node(a, b), c)
        phrase = node(node(leaf("p"), leaf("q")), leaf("r"))
        sm, em = self.composite(host, "a", phrase)
        assert classify_hierarchy(sm, em) == (HierarchyClass.HEAD_TO_PHRASE, (1, 3))

    def test_phrase_to_head(self):
        host = node(node(a, b), c)
        sm, em = self.composite(host, "(a|b)", "z")
        assert classify_hierarchy(sm, em) == (HierarchyClass.PHRASE_TO_HEAD, (2, 1))

    def test_phrase_to_phrase(self):
        host = node(node(a, b), node(c, d))
        sm, em = self.composite(host, "(a|b)", node(leaf("p"), leaf("q")))
        assert classify_hierarchy(sm, em) == (HierarchyClass.PHRASE_TO_PHRASE, (2, 2))

    def test_shape_validation(self):
        ws = workspace(node(a, b), c, d)
        em_steps = steps_by_tag(ws, CFG_D, "EM")
        with pytest.raises(CostError):
            classify_hierarchy(em_steps[0], em_steps[0])

    def test_composite_rr_law_up_to_five_leaves(self):
        for labels in ("abc", "abcd", "abcde"):
            for ws in enumerate_forests(labels):
                for sm in all_merge_successors(ws, CFG_D) + all_merge_successors(ws, CFG_C):
                    if sm.tag not in ("SM1", "SM2", "SM3"):
                        continue
                    out = sm.output_ws
                    built = sm.output_ws.components  # find EM partners
                    for e in all_merge_successors(out, MergeConfig(mode=sm.mode)):
                        if e.tag != "EM":
                            continue
                        # composite law holds for EM merging the SM product with anything
                        merged_keys = {t.key for t in e.pair}
                        built_key = "(" + "|".join(sorted([sm.pair[0].key, sm.pair[1].key])) + ")"
                        if built_key not in merged_keys:
                            continue
                        got = (
                            e.output_ws.b0 - ws.b0,
                            e.output_ws.alpha - ws.alpha,
                            e.output_ws.sigma - ws.sigma,
                        )
                        assert got == EM_AFTER_SM_TABLE[(sm.tag, sm.mode)], (sm, e)

    def test_h2h_profile_pointwise_minimal(self):
        host = node(node(node(a, b), c), node(d, leaf("e")))
        profiles = []
        ws = workspace(host, leaf("z"))
        for sm in steps_by_tag(ws, CFG_D, "SM1"):
            if sm.extractions[0][1].key != host.key:
                continue
            for e in all_merge_successors(sm.output_ws, CFG_D):
                if e.tag != "EM":
                    continue
                try:
                    cls, prof = classify_hierarchy(sm, e)
                except CostError:
                    continue
                profiles.append((cls, prof))
        h2h = [p for cls, p in profiles if cls is HierarchyClass.HEAD_TO_HEAD]
        others = [p for cls, p in profiles if cls is not HierarchyClass.HEAD_TO_HEAD]
        assert h2h and others
        for hp in h2h:
            for op in others:
                assert hp[0] <= op[0] and hp[1] <= op[1]


def sixleaf_tree():
    return node(node(leaf("h"), node(node(a, b), node(c, d))), leaf("x"))


def sixleaf_scripts():
    single = [{"op": "SM3", "args": [{"key": "(a|b)"}, {"key": "(c|d)"}]}]
    triple = [
        {"op": "SM3", "args": [{"key": "a"}, {"key": "b"}]},
        {"op": "SM3", "args": [{"key": "c"}, {"key": "d"}]},
        {"op": "EM", "args": [{"key": "(a|b)"}, {"key": "(c|d)"}]},
    ]
    return single, triple


class TestDerivationCosts:
    def test_sixleaf_single_vs_triple(self):
        single, triple = sixleaf_scripts()
        ws = workspace(sixleaf_tree())
        d1 = replay(ws, single, allow_sibling_cut=True)
        d2 = replay(ws, triple, allow_sibling_cut=True)
        assert d1.final.key == d2.final.key
        r1, r2 = derivation_cost(d1), derivation_cost(d2)
        assert r1["totals"]["ms"] == Fraction(1, 3)
        assert r1["totals"]["ms_ws"] == Fraction(1, 3)
        # per-component accounting: 2/3 + 1/2; workspace-grading accounting: 4/3
        assert r2["totals"]["ms"] == Fraction(7, 6)
        assert r2["totals"]["ms_ws"] == Fraction(4, 3)
        assert r1["totals"]["ms"] < r2["totals"]["ms"]

    def test_search_and_resource_minimality_disagree(self):
        # the two regimes prefer different paths to the same forest: the
        # single big extraction wins on search cost, the chain of atomic
        # extractions keeps every step's complexity loss smaller
        single, triple = sixleaf_scripts()
        ws = workspace(sixleaf_tree())
        d1 = replay(ws, single, allow_sibling_cut=True)
        d2 = replay(ws, triple, allow_sibling_cut=True)
        r1, r2 = derivation_cost(d1), derivation_cost(d2)
        assert r1["totals"]["ms"] < r2["totals"]["ms"]
        worst_step_cl_single = max(v.cl for v in r1["steps"])
        worst_step_cl_triple = max(v.cl for v in r2["steps"])
        assert worst_step_cl_triple < worst_step_cl_single

    def test_amalgam_sm_derivation_totals(self):
        ws = workspace(*(leaf(x) for x in ("John", "v*", "INFL", "read", "a", "book")))
        script = [
            {"op": "EM", "args": [{"key": "a"}, {"key": "book"}]},
            {"op": "EM", "args": [{"key": "read"}, {"key": "(a|book)"}]},
            {"op": "SM1", "args": [{"key": "read"}, {"key": "v*"}]},
            {"op": "EM", "args": [{"key": "(read|v*)"}, {"key": "(a|book)"}]},
            {"op": "EM", "args": [{"key": "John"}, {"key": "((a|book)|(read|v*))"}]},
            {"op": "SM1", "args": [{"key": "(read|v*)"}, {"key": "INFL"}]},
            {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
        ]
        deriv = replay(ws, script)
        report = derivation_cost(deriv)
        t = report["totals"]
        assert t["ms"] == Fraction(2, 3) + Fraction(3, 5)
        assert t["my_d"] == 5
        assert t["my_c"] == 7
        assert t["cl_type"] == 2
        assert t["cl"] == 3  # by extracted degree: 1 + 2
        assert t["n_em"] == 5 and t["n_sm"] == 2

    def test_all_em_im_derivation_free(self):
        ws = workspace(a, b, c)
        script = [
            {"op": "EM", "args": [{"key": "a"}, {"key": "b"}]},
            {"op": "EM", "args": [{"key": "(a|b)"}, {"key": "c"}]},
            {"op": "IM", "args": [{"key": "a"}]},
        ]
        deriv = replay(ws, script)
        assert derivation_cost(deriv)["totals"]["ms"] == 0

    def test_empty_derivation(self):
        # no step to read the mode from: the derivation records it
        for mode in ("c", "d"):
            report = derivation_cost(replay(workspace(node(a, b)), [], mode))
            assert report["totals"]["ms"] == 0 and not report["steps"] and report["mode"] == mode

    def test_contraction_derivation_starting_with_em_labels_mode(self):
        ws = workspace(leaf("x"), node(a, b), c)
        script = [
            {"op": "EM", "args": [{"key": "x"}, {"key": "c"}]},
            {"op": "SM1", "args": [{"key": "a"}, {"key": "(c|x)"}]},
        ]
        report = derivation_cost(replay(ws, script, "c"))
        assert report["mode"] == "c"
        assert report["totals"]["my_c"] == 2  # actual contraction deltas
        assert report["totals"]["my_d"] == 1  # deletion read from the table


class TestQuotientCosts:
    def test_ratio_formula(self):
        assert quotient_cost(17, 14) == Fraction(14, 17)
        assert quotient_cost(14, 13) == Fraction(13, 14)

    def test_no_identification_costs_one(self):
        assert quotient_cost(9, 9) == 1

    def test_growth_rejected(self):
        with pytest.raises(CostError):
            quotient_cost(10, 11)

    def test_amalgam_fc_report(self):
        g = form_copy_quotient(amalgam_tree(), [("(read|v*)", 0, 1), ("read", 0, 2)])
        report = fc_cost_report(g, n_em_steps=8)
        assert report["ms"] == Fraction(14, 17) + Fraction(13, 14)
        assert abs(float(report["ms"]) - 1.752) < 1e-3
        assert report["my_quotient"] == 4
        assert report["my_em"] == 8
        assert report["cl"] == 3

    def test_fc_vs_sm_ms_comparison(self):
        # quotient route ~1.752 vs sideward route 2/3+3/5 ~ 1.266
        fc = Fraction(14, 17) + Fraction(13, 14)
        sm = Fraction(2, 3) + Fraction(3, 5)
        assert sm < fc


class TestLookupComparison:
    def make(self, extract_key):
        vstar = leaf("v*")
        T = node(node(leaf("look"), leaf("up")), node(leaf("the"), leaf("answer")))
        ws = workspace(vstar, T)
        script = [
            {"op": "SM1", "args": [{"key": extract_key}, {"key": "v*"}]},
            {"op": "EM", "args": [{"component": 0}, {"component": 1}]},
        ]
        return derivation_cost(replay(ws, script, "c"))

    def test_atomic_extraction_cheaper_in_cl(self):
        head = self.make("look")
        phrase = self.make("(look|up)")
        assert head["totals"]["cl"] == 1 < phrase["totals"]["cl"] == 2
        # the search regime ranks them the other way; both are reported
        assert head["totals"]["ms"] > phrase["totals"]["ms"]


class TestCostVector:
    def vector(self, **changed):
        fields = dict(tag="SM1", ms=Fraction(1, 2), ms_ws=Fraction(2, 3), db0=0, dalpha=0, dsigma=0,
                      dsigma_hat=0, cl=1, cl_type=1)
        return CostVector(**{**fields, **changed})

    def test_positional_and_keyword_fields(self):
        ws = workspace(node(a, b), c)
        sm1 = [s for s in all_merge_successors(ws, CFG_D) if s.tag == "SM1"][0]
        assert step_costs(sm1) == self.vector() == CostVector("SM1", Fraction(1, 2), Fraction(2, 3), 0, 0, 0, 0, 1, 1)
        with pytest.raises(TypeError):
            CostVector("SM1", Fraction(1, 2))

    def test_equality(self):
        assert self.vector() == self.vector() and self.vector() != self.vector(cl=2)
        assert self.vector() != self.vector(tag="SM2") and self.vector() != ("SM1",)
        with pytest.raises(TypeError):
            hash(self.vector())
        v = self.vector()
        v.cl = 3
        assert v == self.vector(cl=3)

    def test_repr(self):
        assert repr(self.vector()) == (
            "CostVector(tag='SM1', ms=Fraction(1, 2), ms_ws=Fraction(2, 3), db0=0, dalpha=0, dsigma=0, "
            "dsigma_hat=0, cl=1, cl_type=1)"
        )

    def test_copied_and_pickled_vectors_are_equal(self):
        for twin in forest_tests.twins(self.vector()):
            assert type(twin) is CostVector and twin == self.vector()
