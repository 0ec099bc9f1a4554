import math
import time
import warnings

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

    def test_leaf_bound(self, monkeypatch):
        # 8 leaves (353 521 states) are refused from the closed-form count,
        # before any forest is enumerated
        def never(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(markov, "enumerate_forests", never)
        with pytest.raises(MarkovError, match=f"353521 states, over the bound of {markov.MAX_STATES}"):
            build_graph("abcdefgh")

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_t_must_be_finite_and_positive(self, t):
        with pytest.raises(MarkovError, match="t must be finite and positive"):
            build_graph("abc", regime="ms", t=t)

    def test_overflowing_weight_is_a_domain_error(self):
        with pytest.raises(MarkovError, match="overflows t\\^cost"):
            build_graph("abcd", regime="total", t=1e300)


class TestPerronFrobenius:
    def test_K_X_eigendata(self):
        pf = perron_frobenius(build_graph("abc"))
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
        pf = perron_frobenius(g)
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
        pf = perron_frobenius(g)
        assert abs(pf.lam - (3 + SQRT2)) <= 1e-9
        assert cosine(pf.eta, np.array([SQRT2] * 3 + [1] * 3)) >= 1 - 1e-9
        assert np.allclose(pf.K_hat.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(pf.xi, 1 / 6, atol=1e-10)

    def test_reducible_support_rejected(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False, allow_sm=False))
        with pytest.raises(MarkovError):
            perron_frobenius(g)

    def test_stall_names_steps_and_gap(self):
        with pytest.raises(MarkovError, match=r"stalled after 3 steps.*relative gap"):
            perron_frobenius(build_graph("abcd"), max_iter=3)

    @pytest.mark.parametrize(
        "regime, t",
        [("cl", 1e-100), ("total", 1e-100), ("total", 1e-200), ("my", 1e-200), ("my", 1e-300)],
    )
    def test_underflowed_perron_vector_fails_fast(self, regime, t):
        # an entry underflowed to 0 must stop the power iteration, not a max_iter run on a nan bracket
        g = weighted_matrix("abcd", regime, t)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarkovError, match=r"Perron vector underflowed at power-iteration step \d+"):
                perron_frobenius(g)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        K = K_X.copy()
        K[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarkovError, match="non-finite entries"):
                perron_frobenius(K)


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
        pf = perron_frobenius(g)
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
            assert list(zip(g.rows.tolist(), g.cols.tolist())) == sorted(tags)
            assert [list(g.kinds[k][0]) for k in g.edge_kind.tolist()] == [tags[e] for e in sorted(tags)]
            if regime is None:
                assert np.array_equal(g.values, K[g.rows, g.cols])
                assert np.array_equal(g.K, K)
                assert g.weights is None
            else:
                np.testing.assert_allclose(g.values, K[g.rows, g.cols], rtol=1e-14, atol=0)
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
            cols = transport(targets, *args)  # one row per carried member
            if not corrupted:
                corrupted.append(cols[0, 0])
                cols[0, 0] = cols[0, 1]
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
            pf = perron_frobenius(g)
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
            pf = perron_frobenius(g)
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


def distance(A, src, dst):
    """The smallest k with (A^k)[src, dst] > 0, by repeated dense products."""
    reach = np.zeros(len(A), dtype=np.int64)
    reach[src] = 1
    for k in range(len(A)):
        if reach[dst]:
            return k
        reach = (reach @ A.astype(np.int64) > 0).astype(np.int64)
    return None


def assert_shortest_witnesses(A, report):
    """Both witness paths run between the first and last states, along edges
    of A, and are as short as the distance from dense matrix powers."""
    n = len(A)
    paths = report["witness_paths"]
    assert len(paths) == (2 if n > 1 else 0)
    for path, (src, dst) in zip(paths, [(0, n - 1), (n - 1, 0)]):
        assert path[0] == src and path[-1] == dst
        assert all(A[a, b] for a, b in zip(path, path[1:])), path
        assert len(path) - 1 == distance(A, src, dst)


class TestStrongConnectivity:
    @pytest.mark.parametrize("labels", ["abc", "abcd", "abcde"])
    @pytest.mark.parametrize("im", [False, True])
    @pytest.mark.parametrize("atomic", [False, True])
    def test_connected(self, labels, im, atomic):
        g = build_graph(labels, MergeConfig(mode="d", allow_im=im, atomic_sm_only=atomic))
        report = strong_connectivity(g)
        assert report["strongly_connected"] and report["scc_count"] == 1
        assert_shortest_witnesses(g.K > 0, report)

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


REACH_CHAINS = [
    *(
        pytest.param(
            labels, {"allow_im": im, "atomic_sm_only": atomic}, id=f"{labels}-im{im:d}-atomic{atomic:d}"
        )
        for labels in ("abc", "abcd", "abcde")
        for im in (False, True)
        for atomic in (False, True)
    ),
    *(
        pytest.param(labels, {"allow_im": False, "allow_sm": False}, id=f"{labels}-em-only")
        for labels in ("abc", "abcd")
    ),
]


def tarjan_verdict(rows, cols, n):
    return len(markov.strong_components(rows, cols, n)) == 1


def random_digraphs(count=400, seed=7):
    """Seeded dense boolean matrices of 1 to 12 states, with self-loops,
    sinks and isolated states."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        A = rng.random((n, n)) < rng.choice([0.1, 0.25, 0.5])  # self-loops included
        if n > 1 and rng.random() < 0.3:
            A[rng.integers(n)] = False  # a sink
        if n > 1 and rng.random() < 0.2:
            k = rng.integers(n)
            A[k] = A[:, k] = False  # an isolated state
        yield A


class TestReachability:
    @pytest.mark.parametrize("labels, flags", REACH_CHAINS)
    def test_verdict_equals_tarjan_on_chains(self, labels, flags):
        g = build_graph(labels, MergeConfig(mode="d", **flags))
        want = tarjan_verdict(g.rows, g.cols, g.n)
        assert strong_connectivity(g, witness=False)["strongly_connected"] == want
        assert want == (flags.get("allow_sm", True))  # only the EM-only chains are reducible

    def test_verdict_equals_tarjan_on_random_digraphs(self):
        verdicts = []
        for A in random_digraphs():
            rows, cols = np.nonzero(A)
            n = len(A)
            components = markov.strong_components(rows, cols, n)
            assert sorted(v for comp in components for v in comp) == list(range(n))
            want = len(components) == 1
            report = strong_connectivity(A)
            assert report["strongly_connected"] == want, A.astype(int)
            assert report["scc_count"] == len(components)
            verdicts.append(want)
        assert 50 < sum(verdicts) < 350

    def test_witnesses_are_shortest_paths_on_random_digraphs(self):
        connected = 0
        for A in random_digraphs():
            report = strong_connectivity(A)
            if report["strongly_connected"]:
                assert_shortest_witnesses(A, report)
                connected += 1
            else:
                assert report["witness_paths"] == []
        assert connected > 50

    def test_dense_edges_are_row_major_nonzeros(self):
        K = K_X.copy()
        K[2, 5] = 0.25
        rows, cols, w, n = markov._edges(K)
        want_rows, want_cols = np.nonzero(K)
        assert n == 6
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(w, K[want_rows, want_cols])


class TestDegenerateChains:
    def test_two_leaf_chain_has_no_dominant_eigenvalue(self):
        g = build_graph("ab")
        assert g.n == 1 and len(g.rows) == 0
        assert strong_connectivity(g) == {"strongly_connected": True, "scc_count": 1, "witness_paths": []}
        with pytest.raises(MarkovError, match="no positive dominant eigenvalue"):
            perron_frobenius(g)

    def test_zero_one_by_one(self):
        with pytest.raises(MarkovError, match="no positive dominant eigenvalue"):
            perron_frobenius(np.zeros((1, 1)))

    def test_self_loop(self):
        pf = perron_frobenius(np.ones((1, 1)))
        assert pf.lam == 1.0 and pf.eta.tolist() == [1.0] and pf.xi.tolist() == [1.0]
        assert pf.hat.tolist() == [1.0]

    def test_sink_is_reducible(self):
        with pytest.raises(MarkovError, match="reducible"):
            perron_frobenius(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_two_cycle(self):
        pf = perron_frobenius(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pf.lam == 1.0
        assert pf.eta.tolist() == [1.0, 1.0] and pf.xi.tolist() == [0.5, 0.5]
        assert pf.hat.tolist() == [1.0, 1.0]


class TestMultiplicityAndExports:
    def test_multiplicity_at_four_leaves(self):
        g = build_graph("abcd")
        assert g.values.max() > 1
        g01 = build_graph("abcd", collapse_01=True)
        assert np.array_equal(g01.rows, g.rows) and np.array_equal(g01.cols, g.cols)
        assert np.array_equal(g01.values, np.ones(len(g.values)))
        assert np.array_equal(g01.K, (g.K > 0).astype(float))

    def test_csv_and_dot(self):
        g = build_graph("abc")
        csv = matrix_csv(g)
        assert csv.count("\n") == 7
        dot = graph_dot(g)
        assert "digraph" in dot and "EM" in dot

    def test_pf_json(self):
        pf = perron_frobenius(build_graph("abc"))
        blob = pf_to_json(pf)
        assert blob["bistochastic"] is True
        assert abs(blob["lambda"] - (2 + SQRT2)) < 1e-9


EDGE_CHAINS = [
    pytest.param("abcd", {}, None, False, id="4-plain"),
    pytest.param("abcd", {}, None, True, id="4-collapse"),
    pytest.param("aabc", {"allow_identity_sm": True}, None, False, id="aabc-identity-sm"),
    pytest.param("abcde", {"allow_im": False}, None, False, id="5-no-im"),
    *(pytest.param("abcde", {}, r, False, id=f"5-{r}") for r in REGIMES),
]


class TestEdgeArrays:
    @pytest.mark.parametrize("labels, flags, regime, collapse", EDGE_CHAINS)
    def test_sorted_unique_nonzero(self, labels, flags, regime, collapse):
        g = build_graph(labels, MergeConfig(mode="d", **flags), regime=regime, t=0.5, collapse_01=collapse)
        key = g.rows * g.n + g.cols
        assert (np.diff(key) > 0).all()  # sorted by (row, col), no duplicate edge
        assert (g.values > 0).all()
        assert len(g.rows) == len(g.cols) == len(g.values) == len(g.edge_kind)
        assert 0 <= g.edge_kind.min() and g.edge_kind.max() < len(g.kinds)
        assert np.array_equal(np.nonzero(g.K), (g.rows, g.cols))

    @pytest.mark.parametrize("labels, flags, regime, collapse", EDGE_CHAINS)
    def test_pf_on_graph_equals_pf_on_dense(self, labels, flags, regime, collapse):
        # both routes feed the same edge arrays, in the same order, to one
        # routine, so the results agree exactly, weighted or not
        g = build_graph(labels, MergeConfig(mode="d", **flags), regime=regime, t=0.5, collapse_01=collapse)
        pf, dense = perron_frobenius(g), perron_frobenius(g.K)
        assert pf.lam == dense.lam and pf.iterations == dense.iterations
        for a, b in [(pf.eta, dense.eta), (pf.xi, dense.xi), (pf.hat, dense.hat)]:
            assert np.array_equal(a, b)

    def test_views_are_cached_and_K_is_read_only(self):
        g = weighted_matrix("abc", "ms", 0.5)
        assert g.K is g.K and g.edge_tags is g.edge_tags and g.weights is g.weights
        with pytest.raises(ValueError):
            g.K[0, 0] = 1.0
        assert np.array_equal(np.asarray(g), g.K)

    def test_underflowing_weights_leave_the_support(self):
        # t^2 underflows to 0 on the SM3 steps of the cl chain, so no tree
        # reaches a two-component state, in the edge arrays as in the dense K
        g = build_graph("abc", regime="cl", t=1e-200)
        sm3 = np.array([g.kinds[k][0] == ("SM3",) for k in g.edge_kind.tolist()])
        assert np.array_equal(g.values == 0, sm3) and sm3.any()
        assert strong_connectivity(g)["scc_count"] > 1
        with pytest.raises(MarkovError, match="reducible"):
            perron_frobenius(g)
        with pytest.raises(MarkovError, match="reducible"):
            perron_frobenius(g.K)


SEVEN_LEAF_LAMBDA = 35.883468251826  # the full 7-leaf chain, 12 digits


@pytest.fixture(scope="module")
def seven_leaves():
    g = build_graph("abcdefg")
    return g, perron_frobenius(g)


class TestSevenLeaves:
    def test_counts(self, seven_leaves):
        g, _ = seven_leaves
        assert g.n == 27_006
        assert len(g.rows) == 1_099_245
        assert g.values.sum() == 1_179_045
        assert sum(len(g.kinds[k][0]) for k in g.edge_kind.tolist()) == 1_179_045

    def test_strongly_connected(self, seven_leaves):
        g, _ = seven_leaves
        report = strong_connectivity(g)
        assert report["strongly_connected"]
        edges = g.rows * g.n + g.cols
        for path, (src, dst) in zip(report["witness_paths"], [(0, g.n - 1), (g.n - 1, 0)]):
            assert path[0] == src and path[-1] == dst
            assert np.isin(np.array(path[:-1]) * g.n + path[1:], edges).all()

    def test_perron_frobenius(self, seven_leaves):
        g, pf = seven_leaves
        assert abs(pf.lam - SEVEN_LEAF_LAMBDA) <= 1e-10 * SEVEN_LEAF_LAMBDA
        assert pf.residual <= 1e-12
        assert (pf.eta > 0).all() and (pf.xi > 0).all()
        assert abs(pf.xi.sum() - 1.0) <= 1e-12
        row_sums = np.bincount(pf.rows, pf.hat, g.n)
        assert np.abs(row_sums - 1.0).max() <= 1e-10
        xi_hat = np.bincount(pf.cols, pf.xi[pf.rows] * pf.hat, g.n)
        assert np.abs(xi_hat - pf.xi).max() <= 1e-12

    def test_dense_views_refused(self, seven_leaves):
        g, pf = seven_leaves
        bound = f"above {markov.MAX_DENSE_STATES} states"
        with pytest.raises(MarkovError, match=bound):
            g.K
        with pytest.raises(MarkovError, match=bound):
            pf.K_hat
        with pytest.raises(MarkovError, match=bound):
            matrix_csv(g)
        assert pf_to_json(pf)["bistochastic"] is False
