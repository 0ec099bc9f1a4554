import math

import numpy as np
import pytest

from mergespace import markov
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import enumerate_forests
from mergespace.markov import (
    EXACT_T0_EXPONENT,
    MarkovError,
    REGIME_EXPONENTS,
    REGIMES,
    SERIES_T0_EXPONENT,
    asymptotic_check,
    build_graph,
    graph_dot,
    matrix_csv,
    perron_frobenius,
    pf_to_json,
    sector_exponents_match,
    series_closed_form,
    step_cost,
    strong_connectivity,
    structured_closed_form,
    three_leaf_pattern,
    weighted_matrix,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)

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

K_X_NO_IM = np.array(
    [
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 1, 0],
    ],
    dtype=float,
)


def hat_K_X():
    p = 1 / (2 + SQRT2)
    q = 1 / (2 + 2 * SQRT2)
    r = SQRT2 / (2 + SQRT2)
    return np.array(
        [
            [0, p, p, 0, q, q],
            [p, 0, p, q, 0, q],
            [p, p, 0, q, q, 0],
            [r, 0, 0, 0, p, p],
            [0, r, 0, p, 0, p],
            [0, 0, r, p, p, 0],
        ]
    )


def cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestThreeLeafMatrices:
    def test_six_vertices(self):
        g = build_graph("abc")
        assert g.n == 6
        assert [w.b0 for w in g.vertices] == [1, 1, 1, 2, 2, 2]

    def test_K_with_im(self):
        g = build_graph("abc")
        assert np.array_equal(g.K, K_X)

    def test_K_without_im(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False))
        assert np.array_equal(g.K, K_X_NO_IM)

    def test_identity_sm_adds_identity(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_identity_sm=True))
        assert np.array_equal(g.K, np.eye(6) + K_X)

    def test_mode_c_rejected(self):
        with pytest.raises(MarkovError):
            build_graph("abc", MergeConfig(mode="c"))

    def test_leaf_bound(self):
        with pytest.raises(MarkovError):
            build_graph("abcdefg")


class TestPerronFrobenius:
    def test_K_X_eigendata(self):
        pf = perron_frobenius(build_graph("abc").K)
        assert abs(pf.lam - (2 + SQRT2)) <= 1e-9
        want_eta = np.array([SQRT2] * 3 + [1] * 3)
        assert cosine(pf.eta, want_eta) >= 1 - 1e-9
        assert np.allclose(pf.K_hat, hat_K_X(), atol=1e-9)
        assert np.allclose(pf.K_hat.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(pf.K_hat.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(pf.xi, 1 / 6, atol=1e-10)
        assert np.abs(pf.xi @ pf.K_hat - pf.xi).max() <= 1e-10

    def test_K_prime_eigendata(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False))
        pf = perron_frobenius(g.K)
        lam_p = 1 + SQRT3
        assert abs(pf.lam - lam_p) <= 1e-9
        want_eta = np.array([2 / lam_p] * 3 + [1] * 3)
        assert cosine(pf.eta, want_eta) >= 1 - 1e-9
        Z = 3 * (3 - SQRT3)
        want_xi = np.array([2 - SQRT3] * 3 + [1] * 3) / Z
        assert np.allclose(pf.xi, want_xi, atol=1e-9)
        # stochastic but not bistochastic: some column sum differs from 1
        assert np.allclose(pf.K_hat.sum(axis=1), 1.0, atol=1e-10)
        assert np.abs(pf.K_hat.sum(axis=0) - 1.0).max() > 0.1

    def test_K_doubleprime_eigendata(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_identity_sm=True))
        pf = perron_frobenius(g.K)
        assert abs(pf.lam - (3 + SQRT2)) <= 1e-9
        assert cosine(pf.eta, np.array([SQRT2] * 3 + [1] * 3)) >= 1 - 1e-9
        assert np.allclose(pf.K_hat.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(pf.xi, 1 / 6, atol=1e-10)

    def test_reducible_support_rejected(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False, allow_sm=False))
        with pytest.raises(MarkovError):
            perron_frobenius(g.K)

    def test_stall_names_steps_and_gap(self):
        with pytest.raises(MarkovError, match=r"stalled after 3 steps.*relative gap"):
            perron_frobenius(build_graph("abcd").K, max_iter=3)


LAPACK_CHAINS = [
    pytest.param({}, None, 1.0, id="plain"),
    # the dense repeated-squaring routine raised "stationary distribution did
    # not converge" on the 5-leaf chain without internal merge
    pytest.param({"allow_im": False}, None, 1.0, id="no-im"),
    pytest.param({"allow_identity_sm": True}, None, 1.0, id="identity-sm"),
    *(pytest.param({}, r, t, id=f"{r}-t{t}") for r in REGIMES for t in (0.1, 0.5)),
]


class TestAgainstLapack:
    @pytest.mark.parametrize("labels", ["abcd", "abcde"])
    @pytest.mark.parametrize("flags, regime, t", LAPACK_CHAINS)
    def test_power_iteration_matches_eigvals(self, labels, flags, regime, t):
        g = build_graph(labels, MergeConfig(mode="d", **flags), regime=regime, t=t)
        pf = perron_frobenius(g.K)
        lam = np.linalg.eigvals(g.K).real.max()
        assert abs(pf.lam - lam) <= 1e-10 * lam
        assert np.abs(pf.K_hat.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(pf.xi @ pf.K_hat - pf.xi).max() <= 1e-12
        assert (pf.eta > 0).all() and (pf.xi > 0).all()
        assert pf.residual <= 1e-12


ORBIT_FLAGS = [
    pytest.param({}, id="plain"),
    pytest.param({"allow_im": False}, id="no-im"),
    pytest.param({"allow_identity_sm": True}, id="identity-sm"),
    pytest.param({"allow_sibling_cut": True}, id="sibling-cut"),
    pytest.param({"atomic_sm_only": True}, id="atomic-sm"),
    pytest.param({"allow_sm": False}, id="no-sm"),
]


def _reference_graph(vertices, steps, regime, t, collapse_01):
    """(vertex keys, K, edge tags, weights) from every state's own steps,
    without any use of the leaf-relabeling symmetry."""
    index = {w.key: i for i, w in enumerate(vertices)}
    K = np.zeros((len(vertices), len(vertices)))
    tags, weights = {}, {}
    for i, state_steps in enumerate(steps):
        for step in state_steps:
            j = index[step.output_ws.key]
            tags.setdefault((i, j), []).append(step.tag)
            if regime is None:
                K[i, j] += 1.0
            else:
                expo = step_cost(step, regime)
                weights.setdefault((i, j), []).append(expo)
                K[i, j] += t ** float(expo)
    if collapse_01:
        K = (K > 0).astype(float)
    return [w.key for w in vertices], K, {e: sorted(v) for e, v in tags.items()}, weights


class TestOrbitTransport:
    @pytest.mark.parametrize("labels", ["abc", "abcd", "aabc", "abcde"])
    @pytest.mark.parametrize("flags", ORBIT_FLAGS)
    def test_equals_per_state_reference(self, labels, flags):
        cfg = MergeConfig(mode="d", **flags)
        vertices = enumerate_forests(labels, require_edge=True)
        steps = [all_merge_successors(ws, cfg) for ws in vertices]
        for regime, collapse in [(None, False), (None, True), *((r, False) for r in REGIMES)]:
            g = build_graph(labels, cfg, regime=regime, t=0.5, collapse_01=collapse)
            keys, K, tags, weights = _reference_graph(vertices, steps, regime, 0.5, collapse)
            assert [w.key for w in g.vertices] == keys
            if regime is None:
                assert np.array_equal(g.K, K)
                assert g.weights is None
            else:
                np.testing.assert_allclose(g.K, K, rtol=1e-14, atol=0)
                assert {e: sorted(v) for e, v in g.weights.items()} == {
                    e: sorted(v) for e, v in weights.items()
                }
            assert g.edge_tags == tags

    def test_engine_runs_on_representatives(self, monkeypatch):
        # 9 orbits of states at 5 distinct leaves: each representative and
        # one spot-checked member go through the engine, nothing else does
        calls = []

        def counted(ws, cfg):
            calls.append(ws.key)
            return all_merge_successors(ws, cfg)

        monkeypatch.setattr(markov, "all_merge_successors", counted)
        assert build_graph("abcde").n == 265
        assert len(calls) == 18 and len(set(calls)) == 18

    def test_repeated_labels_are_their_own_orbits(self, monkeypatch):
        def never(*args):
            raise AssertionError("a state with repeated labels was carried over")

        monkeypatch.setattr(markov, "_transport", never)
        assert build_graph("aabc").n == 22

    def test_corrupted_carried_row_is_caught(self, monkeypatch):
        transport = markov._transport
        corrupted = []

        def corrupt_first(targets, *args):
            cols = transport(targets, *args)
            if not corrupted:
                corrupted.append(cols[0])
                cols[0] = cols[1]
            return cols

        monkeypatch.setattr(markov, "_transport", corrupt_first)
        with pytest.raises(MarkovError, match="differ from those carried over"):
            build_graph("abcd")
        assert corrupted


class TestWeightedMatrices:
    @pytest.mark.parametrize("regime", ["ms", "my", "cl", "total"])
    def test_pattern_matches_cost_model(self, regime):
        # weighted_matrix asserts internally that exponents from the cost
        # model reproduce the sector pattern
        for t in (0.1, 0.5, 0.9):
            g = weighted_matrix("abc", regime, t)
            assert np.allclose(g.K, three_leaf_pattern(regime, t), atol=1e-12)
            assert sector_exponents_match(g, regime)

    def test_sector_check_is_exact(self):
        g = weighted_matrix("abc", "ms", 0.5)
        assert not sector_exponents_match(g, "cl")
        edge = next(e for e, tags in g.edge_tags.items() if tags == ["SM3"])
        g.weights[edge] = [float(REGIME_EXPONENTS["ms"][0])]  # 1/3 rounded
        assert not sector_exponents_match(g, "ms")

    def test_t_equals_one_recovers_unweighted(self):
        for regime in ("ms", "my", "cl", "total"):
            g = weighted_matrix("abc", regime, 1.0)
            assert np.array_equal(g.K, K_X)

    def test_exponent_sets_recorded(self):
        g = weighted_matrix("abc", "total", 0.5)
        exps = {e for lst in g.weights.values() for e in lst}
        a, b, c = REGIME_EXPONENTS["total"]
        assert exps == {a, b, c, 0}

    def test_total_is_sum_of_regimes(self):
        for reg_parts, reg_total in [(("ms", "my", "cl"), "total")]:
            parts = [REGIME_EXPONENTS[r] for r in reg_parts]
            total = REGIME_EXPONENTS[reg_total]
            for k in range(3):
                assert sum(p[k] for p in parts) == total[k]

    def test_per_step_costs_sum(self):
        g = build_graph("abc")
        from mergespace.engine import all_merge_successors

        for ws in g.vertices:
            for s in all_merge_successors(ws, g.cfg):
                assert step_cost(s, "total") == (
                    step_cost(s, "ms") + step_cost(s, "my") + step_cost(s, "cl")
                )


class TestClosedForm:
    @pytest.mark.parametrize("regime", ["ms", "my", "cl", "total"])
    def test_matches_power_iteration_on_grid(self, regime):
        a, b, c = REGIME_EXPONENTS[regime]
        for t in np.linspace(0.05, 1.0, 20):
            g = weighted_matrix("abc", regime, float(t))
            pf = perron_frobenius(g.K)
            cf = structured_closed_form(a, b, c, float(t))
            assert abs(pf.lam - cf["lam"]) <= 1e-9, (regime, t)
            want_eta = np.array([cf["u"]] * 3 + [1.0] * 3)
            assert cosine(pf.eta, want_eta) >= 1 - 1e-9
            assert np.allclose(pf.xi, cf["xi"], atol=1e-9)

    def test_my_stationary_always_uniform(self):
        a, b, c = REGIME_EXPONENTS["my"]
        for t in (0.01, 0.1, 0.5, 0.9, 2.0):
            assert abs(structured_closed_form(a, b, c, t)["v"] - 1.0) <= 1e-12
            assert abs(series_closed_form(a, b, c, t)["v"] - 1.0) <= 1e-12

    def test_my_hat_matrix_bistochastic_for_all_t(self):
        for t in (0.1, 0.5, 0.9):
            g = weighted_matrix("abc", "my", t)
            pf = perron_frobenius(g.K)
            assert np.allclose(pf.K_hat.sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(pf.K_hat, hat_K_X(), atol=1e-9)

    def test_closed_form_at_t1(self):
        for regime in ("ms", "my", "cl", "total"):
            a, b, c = REGIME_EXPONENTS[regime]
            cf = structured_closed_form(a, b, c, 1.0)
            assert abs(cf["lam"] - (2 + SQRT2)) <= 1e-12
            assert abs(cf["u"] - SQRT2) <= 1e-12
            assert abs(cf["v"] - 1.0) <= 1e-12

    def test_series_variant_differs_off_t1(self):
        a, b, c = REGIME_EXPONENTS["total"]
        exact = structured_closed_form(a, b, c, 0.5)
        series = series_closed_form(a, b, c, 0.5)
        assert abs(exact["lam"] - series["lam"]) > 1e-6


class TestAsymptotics:
    @pytest.mark.parametrize("regime", ["ms", "cl", "total"])
    def test_limits_and_exponents(self, regime):
        report = asymptotic_check(regime)
        assert report["t0_limit_ok"]
        assert report["t1_limit_ok"]
        assert report["series_exponent_ok"]
        assert abs(report["series_exponent"] - float(SERIES_T0_EXPONENT[regime])) <= 0.05
        # the exact-matrix slope is reported and differs from the series one
        assert abs(report["exact_exponent"] - float(EXACT_T0_EXPONENT[regime])) <= 0.05

    def test_t1_uniform_within_tolerance(self):
        for regime in ("ms", "cl", "total"):
            a, b, c = REGIME_EXPONENTS[regime]
            xi = series_closed_form(a, b, c, 1.0 - 1e-6)["xi"]
            assert np.abs(xi - 1 / 6).max() <= 1e-6
            xi2 = structured_closed_form(a, b, c, 1.0 - 1e-6)["xi"]
            assert np.abs(xi2 - 1 / 6).max() <= 1e-6

    def test_ms_series_expansion_small_t(self):
        # connected-sector mass ~ 1/3 - t^(5/6)/6 - t^(4/3)/3 + O(t^(5/3))
        a, b, c = REGIME_EXPONENTS["ms"]
        t = 0.01
        xi0 = series_closed_form(a, b, c, t)["xi"][0]
        approx = 1 / 3 - t ** (5 / 6) / 6 - t ** (4 / 3) / 3
        assert abs(xi0 - approx) <= t ** (5 / 3)


class TestStrongConnectivity:
    @pytest.mark.parametrize("labels", ["abc", "abcd", "abcde"])
    @pytest.mark.parametrize("im", [False, True])
    @pytest.mark.parametrize("atomic", [False, True])
    def test_connected(self, labels, im, atomic):
        g = build_graph(labels, MergeConfig(mode="d", allow_im=im, atomic_sm_only=atomic))
        report = strong_connectivity(g)
        assert report["strongly_connected"] and report["scc_count"] == 1
        assert all(p is not None for p in report["witness_paths"])

    def test_em_only_disconnected(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False, allow_sm=False))
        report = strong_connectivity(g)
        assert not report["strongly_connected"]
        assert report["scc_count"] > 1

    def test_atomic_subgraph_contained(self):
        for im in (False, True):
            g = build_graph("abcd", MergeConfig(mode="d", allow_im=im))
            ga = build_graph("abcd", MergeConfig(mode="d", allow_im=im, atomic_sm_only=True))
            assert set(ga.edge_tags) <= set(g.edge_tags)


class TestMultiplicityAndExports:
    def test_multiplicity_at_four_leaves(self):
        g = build_graph("abcd")
        assert g.K.max() > 1
        g01 = build_graph("abcd", collapse_01=True)
        assert np.array_equal(g01.K, (g.K > 0).astype(float))

    def test_csv_and_dot(self):
        g = build_graph("abc")
        csv = matrix_csv(g)
        assert csv.count("\n") == 7
        dot = graph_dot(g)
        assert "digraph" in dot and "EM" in dot

    def test_pf_json(self):
        pf = perron_frobenius(build_graph("abc").K)
        blob = pf_to_json(pf)
        assert blob["bistochastic"] is True
        assert abs(blob["lambda"] - (2 + SQRT2)) < 1e-9
