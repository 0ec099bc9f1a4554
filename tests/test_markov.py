import math
import re
import time
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from mergespace import markov
from mergespace.costs import cost_ratios
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import Leaf, Node, Workspace, enumerate_forests, forests_and_masks
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
    sector_deviation,
    series_closed_form,
    strong_connectivity,
    structured_closed_form,
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

        monkeypatch.setattr(markov, "forests_and_masks", never)
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

    def test_reducible_support_names_an_unreached_state(self):
        # without SM no tree reaches a two-component state
        g = build_graph("abc", MergeConfig(mode="d", allow_sm=False))
        with pytest.raises(
            MarkovError, match=r"^reducible support; .*: state 0 = \(\(a\|b\)\|c\) cannot reach state 3 = \(a\|b\)⊔c$"
        ):
            perron_frobenius(g)
        with pytest.raises(MarkovError, match=r"^reducible support; .*: state 0 cannot reach state 3$"):
            perron_frobenius(g.K)

    def test_stall_names_steps_and_gap(self, monkeypatch):
        monkeypatch.setattr(markov, "PF_MAX_ITER", 3)
        with pytest.raises(MarkovError, match=r"stalled after 3 steps.*relative gap"):
            perron_frobenius(build_graph("abcd"))

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


def ones_start_pf(K, tol=1e-12, max_iter=10_000):
    """(lam, eta, xi, products) by the power iterations from ones on K and on
    its transpose, as perron_frobenius ran before it started from a lifted
    quotient vector."""
    rows, cols, w, n = markov._edges(K)

    def vector(rows, cols, w):
        starts = np.searchsorted(rows, np.arange(n))
        v = np.ones(n)
        for step in range(1, max_iter + 1):
            Kv = np.add.reduceat(w * v[cols], starts)
            ratios = Kv / v
            lo, hi = ratios.min(), ratios.max()
            if hi - lo <= tol * lo:
                return v, ratios, step
            Kv += v
            v = Kv / Kv.max()
        raise AssertionError("the reference power iteration stalled")

    eta, ratios, right = vector(rows, cols, w)
    order = np.argsort(cols, kind="stable")
    u, _, left = vector(cols[order], rows[order], w[order])
    xi = u * eta
    xi /= xi.sum()
    return float(xi @ ratios), eta, xi, right + left


def assert_matches_ones_start(pf, K):
    lam, eta, xi, _ = ones_start_pf(K)
    assert abs(pf.lam - lam) <= 1e-12 * lam
    np.testing.assert_allclose(pf.eta, eta, rtol=1e-10, atol=0)
    np.testing.assert_allclose(pf.xi, xi, rtol=1e-10, atol=0)
    assert pf.residual <= 1e-12


def erased(t, memo):
    """t with every leaf relabeled to one label; memo maps the key of each
    tree already erased to its image."""
    if t.key not in memo:
        memo[t.key] = Leaf("x") if isinstance(t, Leaf) else Node(erased(t.left, memo), erased(t.right, memo))
    return memo[t.key]


def orbits(vertices):
    """The states of a chain over distinct labels, grouped by orbit
    under leaf relabeling: by the key of the workspace with every leaf
    relabeled to one label.  Orbits come in the order of their least
    state, each in increasing order."""
    memo, by_shape = {}, {}
    for i, ws in enumerate(vertices):
        by_shape.setdefault(Workspace(tuple(erased(c, memo) for c in ws.components)).key, []).append(i)
    return list(by_shape.values())


# cells of the coarsest equitable partition: one per unlabeled forest shape
CELL_COUNTS = {"abc": 2, "abcd": 5, "abcde": 9, "abcdef": 19, "abcdefg": 36}

CELL_CHAINS = [
    pytest.param({}, None, id="plain"),
    pytest.param({"allow_im": False}, None, id="no-im"),
    *(pytest.param({}, r, id=r) for r in REGIMES),
]


def coarsest_equitable(K):
    """The coarsest partition of the states of a dense K that is equitable for
    K and for K^T, by refinement on exact signatures: a set of frozensets."""
    n = len(K)
    cell = [0] * n
    while True:
        signatures = [
            (
                cell[i],
                tuple(sorted((float(K[i, j]), cell[j]) for j in np.flatnonzero(K[i]))),
                tuple(sorted((float(K[j, i]), cell[j]) for j in np.flatnonzero(K[:, i]))),
            )
            for i in range(n)
        ]
        ids = {}
        new = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == len(set(cell)):
            return {frozenset(np.flatnonzero(np.array(cell) == c).tolist()) for c in set(cell)}
        cell = new


def blown_up(seed):
    """A random weighted digraph on 4 blocks of 3 alike states (a 3-cycle
    inside each block), with one entry changed so that some blocks split."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 3, (4, 4)).astype(float)
    K = np.kron(A, np.ones((3, 3))) + np.kron(np.eye(4), 0.5 * np.roll(np.eye(3), 1, axis=1))
    K[rng.integers(12), rng.integers(12)] += 1.0
    return K


EQUITABLE_CASES = [  # each builds its matrix when its test runs
    # out-rows alike, values 1 and 2 in turn along a 4-cycle: two cells
    pytest.param(lambda: np.roll(np.diag([1.0, 2.0, 1.0, 2.0]), 1, axis=1), id="values-split"),
    # one entry 1 out of every state; in-degrees 2, 1 and 0: three cells
    pytest.param(lambda: np.array([[0.0, 1, 0], [1, 0, 0], [1, 0, 0]]), id="in-edges-split"),
    *(pytest.param(lambda seed=seed: blown_up(seed), id=f"blown-up-{seed}") for seed in range(6)),
    pytest.param(lambda: build_graph("abcd").K, id="abcd"),
    pytest.param(lambda: build_graph("abcd", regime="total", t=0.5).K, id="abcd-total"),
    pytest.param(lambda: build_graph("aabc", MergeConfig(mode="d", allow_identity_sm=True)).K, id="aabc-identity-sm"),
    pytest.param(lambda: build_graph("abcde", MergeConfig(mode="d", allow_im=False)).K, id="abcde-no-im"),
]


class TestLumpedStart:
    @pytest.mark.parametrize("make", EQUITABLE_CASES)
    def test_cells_are_the_coarsest_equitable_partition(self, make):
        K = make()
        rows, cols, w, n = markov._edges(K)
        cell, k = markov._equitable_cells(rows, cols, w, n)
        assert {frozenset(np.flatnonzero(cell == c).tolist()) for c in range(k)} == coarsest_equitable(K)

    @pytest.mark.parametrize("labels", ["abc", "abcd", "abcde", "abcdef"])
    @pytest.mark.parametrize("flags, regime", CELL_CHAINS)
    def test_orbits_lie_in_cells(self, labels, flags, regime):
        g = build_graph(labels, MergeConfig(mode="d", **flags), regime=regime, t=0.5)
        cell, k = markov._equitable_cells(g.rows, g.cols, g.values, g.n)
        assert k == CELL_COUNTS[labels] == len(orbits(g.vertices))
        for orbit in orbits(g.vertices):
            assert len(set(cell[orbit].tolist())) == 1
        assert perron_frobenius(g).cells == k

    @pytest.mark.parametrize("labels", ["abcd", "abcde", "aabc", "aabb"])
    @pytest.mark.parametrize("flags, regime, t", LAPACK_CHAINS)
    def test_lifted_start_matches_ones_start(self, monkeypatch, labels, flags, regime, t):
        g = build_graph(labels, MergeConfig(mode="d", **flags), regime=regime, t=t)
        products = []  # (states, products) of each power iteration
        perron_vector = markov._perron_vector

        def counted(rows, cols, w, n, *args):
            out = perron_vector(rows, cols, w, n, *args)
            products.append((n, out[3]))
            return out

        monkeypatch.setattr(markov, "_perron_vector", counted)
        pf = perron_frobenius(g)
        assert_matches_ones_start(pf, g)
        assert 1 < pf.cells < g.n
        # one joint iteration on both quotients, then one certifying product
        # on K per vector; a joint step counts as two products
        assert [n for n, _ in products] == [2 * pf.cells, g.n, g.n]
        assert products[1][1] == products[2][1] == 1
        assert pf.iterations == 2 * products[0][1] + sum(steps for _, steps in products[1:])

    def test_wrong_partition_costs_products_not_the_result(self, monkeypatch):
        g = build_graph("abcde", regime="total", t=0.5)
        right = perron_frobenius(g)
        equitable_cells = markov._equitable_cells

        def merged(*args):
            # one cell of trees and one of three-component forests: their
            # states have different rows, so the partition is not equitable
            cell, k = equitable_cells(*args)
            a, b = cell[0], cell[-1]
            assert a != b
            cell = np.where(cell == b, a, cell)
            return np.unique(cell, return_inverse=True)[1], k - 1

        monkeypatch.setattr(markov, "_equitable_cells", merged)
        wrong = perron_frobenius(g)
        assert wrong.cells == right.cells - 1
        assert wrong.iterations > right.iterations
        assert_matches_ones_start(wrong, g)

    def test_discrete_partition_is_the_ones_start(self):
        # random weights leave no two states alike: k = n, and the routine
        # runs the iterations from ones on the same edges
        rng = np.random.default_rng(11)
        n = 40
        K = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
        K[np.arange(n), (np.arange(n) + 1) % n] = 1.0 + rng.random(n)  # a Hamiltonian cycle
        pf = perron_frobenius(K)
        lam, eta, xi, products = ones_start_pf(K)
        assert pf.cells == n
        assert pf.lam == lam and pf.iterations == products
        assert np.array_equal(pf.eta, eta) and np.array_equal(pf.xi, xi)

    @pytest.mark.parametrize("n", [200, 300, 70_000])
    def test_transposed_is_the_lexsort(self, n):
        # uint8, uint16 and uint32 columns: numpy radix-sorts the first two
        # and runs timsort on the last; each must give (col, row) order
        rng = np.random.default_rng(n)
        keys = np.unique(rng.integers(0, n * n, size=4 * n))
        rows, cols = np.divmod(keys, n)
        w = rng.random(len(keys))
        order = np.lexsort((rows, cols))
        t_rows, t_cols, t_w = markov._transposed(rows, cols, w, n)
        assert np.array_equal(t_rows, cols[order])
        assert np.array_equal(t_cols, rows[order])
        assert np.array_equal(t_w, w[order])

    @pytest.mark.parametrize("K", ["graph", "dense"])
    def test_two_calls_are_bit_identical(self, K):
        g = build_graph("abcde", regime="ms", t=0.1)
        a, b = (perron_frobenius(g if K == "graph" else g.K) for _ in range(2))
        assert a.lam == b.lam and a.cells == b.cells and a.iterations == b.iterations
        for x, y in [(a.eta, b.eta), (a.xi, b.xi), (a.hat, b.hat)]:
            assert np.array_equal(x, y)


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
    without any use of the leaf-relabeling symmetry; weights maps each edge
    to its steps' (tag, exponent) pairs."""
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
                expo = Fraction(*cost_ratios(step)[REGIMES.index(regime)])
                weights.setdefault((i, j), []).append((step.tag, expo))
                K[i, j] += t ** float(expo)
    if collapse_01:
        K = (K > 0).astype(float)
    return [w.key for w in vertices], K, {e: sorted(v) for e, v in tags.items()}, weights


def edge_tags(g):
    """(i, j) -> sorted list of the tags of the steps from i to j."""
    return {
        (i, j): list(g.kinds[k][0]) for i, j, k in zip(g.rows.tolist(), g.cols.tolist(), g.edge_kind.tolist())
    }


def assert_equals_per_state_reference(labels, cfg, variants):
    """build_graph equals the per-state reference graph for each (regime,
    collapse_01) of variants, at t = 0.5."""
    vertices = enumerate_forests(labels, require_edge=True)
    steps = [all_merge_successors(ws, cfg) for ws in vertices]
    for regime, collapse in variants:
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
                e: sorted(x for _, x in v) for e, v in weights.items()
            }
            # each kind pairs its tags and exponents, sorted
            assert [list(zip(*g.kinds[k])) for k in g.edge_kind.tolist()] == [sorted(weights[e]) for e in sorted(tags)]
        assert edge_tags(g) == tags


class TestOrbitTransport:
    @pytest.mark.parametrize("labels", ["abc", "abcd", "aabc", "abcde"])
    @pytest.mark.parametrize("flags", ORBIT_FLAGS)
    def test_equals_per_state_reference(self, labels, flags):
        variants = [(None, False), (None, True), *((r, False) for r in REGIMES)]
        assert_equals_per_state_reference(labels, MergeConfig(mode="d", **flags), variants)

    def test_six_leaves_equal_per_state_reference(self):
        # every carried row of the 6-leaf chain, unweighted and under total
        assert_equals_per_state_reference("abcdef", MergeConfig(), [(None, False), ("total", False)])

    @pytest.mark.parametrize("labels", ["abc", "abcd", "abcde", "abcdef", "abcdefg"])
    def test_orbits_are_the_label_erased_classes(self, labels):
        # the walk over the permutation action finds the classes of the
        # label erasure, and each member's permutation maps the leaf sets of
        # its representative's internal vertices onto the member's own
        def clusters(t, out):
            if isinstance(t, Leaf):
                return frozenset(t.name)
            below = clusters(t.left, out) | clusters(t.right, out)
            out.add(below)
            return below

        def state_clusters(ws):
            out = set()
            for c in ws.components:
                clusters(c, out)
            return out

        vertices, masks = forests_and_masks(labels, require_edge=True)
        walked = markov._StateKeys(masks, len(labels)).orbits()
        assert [[rep, *others.tolist()] for rep, others, _ in walked] == orbits(vertices)
        perms = list(permutations(range(len(labels))))
        for rep, others, member_perms in walked:
            assert len(others) == len(member_perms)
            source = state_clusters(vertices[rep])
            for member, p in zip(others.tolist(), member_perms.tolist()):
                relabel = {x: labels[i] for x, i in zip(labels, perms[p])}
                image = {frozenset(relabel[x] for x in c) for c in source}
                assert image == state_clusters(vertices[member]), (vertices[rep].key, vertices[member].key)

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

    def test_carried_image_off_the_states_is_refused(self, monkeypatch):
        # after the walk, the first carried permutation sends the mask of all
        # leaves, every tree's root, to the mask of leaf a alone, which no
        # internal vertex has: each carried tree leaves the state set
        walk = markov._StateKeys.orbits
        corrupted = []

        def corrupt_after_walk(states):
            out = walk(states)
            p = next(perms[0] for _, others, perms in out if len(others))
            states.word_lo[-1, p], states.word_hi[-1, p] = states.word_lo[1, 0], states.word_hi[1, 0]
            corrupted.append(p)
            return out

        monkeypatch.setattr(markov._StateKeys, "orbits", corrupt_after_walk)
        for labels in ("abcd", "abcdefg"):
            with pytest.raises(MarkovError, match="a carried target is not a state of the chain"):
                build_graph(labels)
        assert len(corrupted) == 2


class TestWeightedMatrices:
    @pytest.mark.parametrize("regime", ["ms", "my", "cl", "total"])
    def test_pattern_matches_cost_model(self, regime):
        # weighted_matrix checks internally that exponents from the cost
        # model reproduce the sector pattern
        for t in (0.1, 0.5, 0.9):
            g = weighted_matrix("abc", regime, t)
            assert sector_deviation(g, regime, t) is None

    def test_sector_check_is_exact(self):
        g = weighted_matrix("abc", "ms", 0.5)
        assert sector_deviation(g, "cl", 0.5) == (0, 4)  # the first SM3 edge
        k = next(k for k in g.edge_kind.tolist() if g.kinds[k][0] == ("SM3",))
        g.kinds[k] = (("SM3",), (float(REGIME_EXPONENTS["ms"][0]),))  # 1/3 rounded
        assert sector_deviation(g, "ms", 0.5) == (0, 4)

    def test_rounded_exponent_is_refused(self, monkeypatch):
        # an SM3 search cost of 333333333333333/10^15 moves t^cost by less
        # than 1e-12 at t = 0.5, but it is not the published 1/3
        ms = REGIMES.index("ms")

        def rounded(step):
            ratios = list(cost_ratios(step))
            if step.tag == "SM3":
                ratios[ms] = (333333333333333, 10**15)
            return tuple(ratios)

        monkeypatch.setattr(markov, "cost_ratios", rounded)
        with pytest.raises(MarkovError, match=r"ms chain deviates from the sector pattern at edge \(0, 4\)"):
            weighted_matrix("abc", "ms", 0.5)

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
                ms, my, cl, total = (Fraction(*r) for r in cost_ratios(s))
                assert total == ms + my + cl


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
        # the structured closed-form slope is reported and differs from the series one
        assert abs(report["exact_exponent"] - float(EXACT_T0_EXPONENT[regime])) <= 0.05

    @pytest.mark.parametrize("regime", ["ms", "cl", "total"])
    def test_exact_exponent_matches_the_weighted_chain(self, regime):
        # the slope of the smallest xi of the real 3-leaf weighted chain on a
        # log-log scale, over t in [1e-6, 1e-5]: 0.3278, 2.0000 and 2.3333
        lo, hi = 1e-6, 1e-5
        y_lo, y_hi = (min(perron_frobenius(weighted_matrix("abc", regime, t)).xi) for t in (lo, hi))
        slope = math.log(y_hi / y_lo) / math.log(hi / lo)
        assert abs(slope - float(EXACT_T0_EXPONENT[regime])) <= 0.01

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
        assert report == {"strongly_connected": True, "scc_count": 1}

    def test_em_only_disconnected(self):
        g = build_graph("abc", MergeConfig(mode="d", allow_im=False, allow_sm=False))
        report = strong_connectivity(g)
        assert not report["strongly_connected"]
        assert report["scc_count"] > 1

    def test_atomic_subgraph_contained(self):
        for im in (False, True):
            g = build_graph("abcd", MergeConfig(mode="d", allow_im=im))
            ga = build_graph("abcd", MergeConfig(mode="d", allow_im=im, atomic_sm_only=True))
            assert set(edge_tags(ga)) <= set(edge_tags(g))


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
        assert strong_connectivity(g)["strongly_connected"] == want
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

    def test_dense_edges_are_row_major_nonzeros(self):
        K = K_X.copy()
        K[2, 5] = 0.25
        rows, cols, w, n = markov._edges(K)
        want_rows, want_cols = np.nonzero(K)
        assert n == 6
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(w, K[want_rows, want_cols])

    @pytest.mark.parametrize("entries", [1, 5, 13, 64, 1 << 18])
    def test_dense_scan_in_row_blocks(self, monkeypatch, entries):
        # blocks of one row, of one row for a block shorter than a row, of
        # rows that do not divide the matrix, and of the whole matrix; _edges
        # refuses a matrix that is not square
        monkeypatch.setattr(markov, "_SCAN_ENTRIES", entries)
        K = np.random.default_rng(3).random((11, 11))
        K[K < 0.6] = 0.0
        K[4] = 0.0  # an empty row
        K[7, 2] = math.nan  # kept, as np.nonzero keeps it
        rows, cols, w, n = markov._edges(K)
        want_rows, want_cols = np.nonzero(K)
        assert n == 11
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(w, K[want_rows, want_cols], equal_nan=True)


class TestNonSquareInput:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (2, 2, 2)])
    @pytest.mark.parametrize("routine", [perron_frobenius, strong_connectivity])
    def test_refused_with_its_shape(self, routine, shape):
        with pytest.raises(MarkovError, match=re.escape(f"need a square matrix, got one of shape {shape}")):
            routine(np.ones(shape))


class TestDegenerateChains:
    def test_two_leaf_chain_has_no_dominant_eigenvalue(self):
        g = build_graph("ab")
        assert g.n == 1 and len(g.rows) == 0
        assert strong_connectivity(g) == {"strongly_connected": True, "scc_count": 1}
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

    def test_unreached_state_and_direction_named(self):
        # state 1 is a sink: state 0 reaches it, it reaches nothing
        with pytest.raises(MarkovError, match=r"^reducible support; .*: state 1 cannot reach state 0$"):
            perron_frobenius(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # state 1 is a source
        with pytest.raises(MarkovError, match=r"^reducible support; .*: state 0 cannot reach state 1$"):
            perron_frobenius(np.array([[0.0, 0.0], [1.0, 0.0]]))

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
        assert blob["cells"] == pf.cells == 2
        assert blob["iterations"] == pf.iterations


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
        assert g.K is g.K and g.weights is g.weights
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
        # the graph's error counts the edges lost; the dense K cannot tell
        lost = f"; t\\^cost underflowed to 0 on {sm3.sum()} of {len(g.values)} edges at this t$"
        with pytest.raises(MarkovError, match="^reducible support; .*cannot reach .*" + lost):
            perron_frobenius(g)
        with pytest.raises(MarkovError, match=r"^reducible support; .*: state 0 cannot reach state 3$"):
            perron_frobenius(g.K)


@pytest.mark.parametrize(
    "n, states, edges, steps, lam",
    [(8, 75, 977, 4_542, 49.011401172222), (10, 319, 7_551, 33_586, 81.268073601187)],
)
def test_equal_leaves_chain(n, states, edges, steps, lam):
    # K(a^n): repeated labels, so every state runs through the engine, and
    # the partition into cells is discrete
    g = build_graph("a" * n)
    assert (g.n, len(g.rows), g.values.sum()) == (states, edges, steps)
    pf = perron_frobenius(g)
    assert pf.cells == states
    assert abs(pf.lam - lam) <= 1e-12 * lam


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
        assert strong_connectivity(g) == {"strongly_connected": True, "scc_count": 1}

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

    def test_orbits_lie_in_cells(self, seven_leaves):
        g, pf = seven_leaves
        cell, k = markov._equitable_cells(g.rows, g.cols, g.values, g.n)
        assert k == pf.cells == CELL_COUNTS["abcdefg"]
        for orbit in orbits(g.vertices):
            assert len(set(cell[orbit].tolist())) == 1

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
