"""The Merge Markov chain on fixed-leaf state spaces.

Vertices are all forests over a leaf multiset with at least one edge; a
directed edge from F to F' counts the distinct one-step Merge applications
taking F to F'.  Entries can be cost-weighted by t^cost under one of four
regimes.  Perron-Frobenius data turns the nonnegative matrix into a
stochastic one whose stationary distribution describes the long-run
dynamics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from mergespace.costs import cl_cost, ms_cost, rr_delta
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import Leaf, enumerate_forests

REGIMES = ("ms", "my", "cl", "total")

# sector exponents (SM3, SM1, EM) realized on the 3-leaf state space
REGIME_EXPONENTS = {
    "ms": (Fraction(1, 3), Fraction(1, 2), Fraction(0)),
    "my": (Fraction(-1), Fraction(0), Fraction(1)),
    "cl": (Fraction(2), Fraction(1), Fraction(0)),
    "total": (Fraction(4, 3), Fraction(3, 2), Fraction(1)),
}


class MarkovError(ValueError):
    pass


def step_cost(step, regime: str) -> Fraction:
    if regime == "ms":
        return ms_cost(step)
    if regime == "my":
        return Fraction(rr_delta(step)[2])
    if regime == "cl":
        return Fraction(cl_cost(step))
    if regime == "total":
        return ms_cost(step) + rr_delta(step)[2] + cl_cost(step)
    raise MarkovError(f"unknown regime {regime!r}")


@dataclass
class TransitionGraph:
    vertices: list
    index: dict
    K: np.ndarray
    edge_tags: dict  # (i, j) -> sorted list of step tags
    cfg: MergeConfig
    weights: Optional[dict] = None  # (i, j) -> list of Fraction exponents

    @property
    def n(self) -> int:
        return len(self.vertices)


def build_graph(
    leaves,
    cfg: MergeConfig = MergeConfig(),
    regime: Optional[str] = None,
    t: float = 1.0,
    collapse_01: bool = False,
) -> TransitionGraph:
    """State-space graph over all forests with the given leaves and >= 1 edge.

    Unweighted entries count distinct Merge steps (or clip to 0/1 with
    collapse_01); with a regime, each step contributes t^cost instead.
    Requires the deletion coproduct: contraction quotients leave traces and
    fall outside the state space.

    Merge and every cost regime commute with relabeling the leaves, so the
    engine and the cost model run on one representative per orbit of states
    under label permutations.  Every other state's row is the
    representative's (target, tag, exponent) list carried through the
    permutation that maps the representative onto that state.  The first
    other member of each orbit is also built directly, and MarkovError is
    raised if its steps differ from the carried ones.  With repeated labels
    every state is its own orbit.
    """
    labels = tuple(sorted(leaves))
    if not 2 <= len(labels) <= 6:
        raise MarkovError("leaf count outside the exhaustive-enumeration bound [2, 6]")
    if cfg.mode != "d":
        raise MarkovError("transition graphs need mode 'd'")
    if regime is not None and regime not in REGIMES:
        raise MarkovError(f"unknown regime {regime!r}")
    if t <= 0:
        raise MarkovError("weight parameter t must be positive")
    vertices = enumerate_forests(labels, require_edge=True)
    index = {w.key: i for i, w in enumerate(vertices)}
    forms = [_state_form(w, labels) for w in vertices]
    locate = {form.clusters: i for i, form in enumerate(forms)}
    orbits: dict = {}
    for i, form in enumerate(forms):
        orbits.setdefault(form.shape, []).append(i)

    def direct_row(i: int) -> list:
        return [
            (index[step.output_ws.key], step.tag, None if regime is None else step_cost(step, regime))
            for step in all_merge_successors(vertices[i], cfg)
        ]

    n = len(vertices)
    K = np.zeros((n, n))
    edge_tags: dict = {}
    weights: dict = {}
    for rep, *others in orbits.values():
        row = direct_row(rep)
        edges: dict = {}  # target -> (tags, exponents) in step order
        for j, tag, expo in row:
            tags, expos = edges.setdefault(j, ([], []))
            tags.append(tag)
            expos.append(expo)
        targets = list(edges)
        values = [
            len(tags) if regime is None else sum(t ** float(x) for x in expos)
            for tags, expos in edges.values()
        ]
        rows = {rep: targets}
        for i in others:
            rows[i] = _transport(targets, forms[rep], forms[i], forms, locate)
        if others:
            moved = dict(zip(targets, rows[others[0]]))
            if Counter((moved[j], tag, x) for j, tag, x in row) != Counter(direct_row(others[0])):
                raise MarkovError(
                    f"steps of {vertices[others[0]].key} differ from those carried over from "
                    f"{vertices[rep].key}; Merge or the cost model is not label-invariant"
                )
        for i, cols in rows.items():
            K[i, cols] = values
            for j, (tags, expos) in zip(cols, edges.values()):
                edge_tags[i, j] = sorted(tags)
                if regime is not None:
                    weights[i, j] = list(expos)
    if collapse_01:
        K = (K > 0).astype(float)
    return TransitionGraph(
        vertices, index, K, edge_tags, cfg, weights=weights if regime else None
    )


class _Form(NamedTuple):
    """A state up to leaf relabeling.

    shape is the label-free form of each component (children ordered by
    shape), equal for exactly the states of one orbit; bits gives each leaf
    occurrence, in that order, its own bit; clusters is the set of leaf
    masks of the internal vertices, which determines the state.
    """

    shape: tuple
    bits: list
    clusters: frozenset


def _tree_form(t, named: bool) -> tuple:
    """(shape, leaf labels in shape order, (start, end) leaf span of each
    internal vertex) of one tree; leaves carry their label only if named."""
    if isinstance(t, Leaf):
        return (t.name if named else ""), (t.name,), ()
    a, b = sorted((_tree_form(t.left, named), _tree_form(t.right, named)))
    k = len(a[1])
    seq = a[1] + b[1]
    spans = a[2] + tuple((s + k, e + k) for s, e in b[2]) + ((0, len(seq)),)
    return "(" + a[0] + "|" + b[0] + ")", seq, spans


def _state_form(ws, labels: tuple) -> _Form:
    # repeated labels stay in the shape, so such states are their own orbit;
    # the k-th occurrence of a label gets the k-th bit of its run in labels
    named = len(set(labels)) < len(labels)
    slot: dict = {}
    for i, label in enumerate(labels):
        slot.setdefault(label, 1 << i)
    shape, bits, spans = [], [], []
    for form, seq, tree_spans in sorted(_tree_form(c, named) for c in ws.components):
        shape.append(form)
        spans += [(s + len(bits), e + len(bits)) for s, e in tree_spans]
        for label in seq:
            bits.append(slot[label])
            slot[label] <<= 1
    return _Form(tuple(shape), bits, frozenset(sum(bits[s:e]) for s, e in spans))


def _transport(targets: list, src: _Form, dst: _Form, forms: list, locate: dict) -> list:
    """The states that src's targets become under the label permutation
    mapping src onto dst (a state of the same shape), in the same order."""
    image = dict(zip(src.bits, dst.bits))
    table = [0] * (1 << len(src.bits))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | image[low]
    return [locate[frozenset([table[c] for c in forms[j].clusters])] for j in targets]


def weighted_matrix(leaves, regime: str, t: float, cfg: MergeConfig = MergeConfig()) -> TransitionGraph:
    """Cost-weighted transition matrix; exponents come from the cost model on
    the actual steps, and on the 3-leaf space are checked against the known
    sector pattern."""
    g = build_graph(leaves, cfg, regime=regime, t=t)
    plain = (
        cfg.allow_sm
        and not cfg.allow_identity_sm
        and not cfg.allow_sibling_cut
        and not cfg.atomic_sm_only
    )
    if len(tuple(leaves)) == 3 and len(set(leaves)) == 3 and plain:
        _assert_three_leaf_pattern(g, regime, t)
    return g


def three_leaf_pattern(regime: str, t: float, with_im: bool = True) -> np.ndarray:
    """The expected 6x6 weighted matrix: IM block unweighted, SM3 block t^a,
    EM block t^c, SM1 block t^b, zero diagonals in each block."""
    a, b, c = (float(x) for x in REGIME_EXPONENTS[regime])
    K = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            if i != j:
                if with_im:
                    K[i, j] = 1.0  # IM sector
                K[i, 3 + j] = t ** a  # SM3 sector
                K[3 + i, 3 + j] = t ** b  # SM1 sector
        K[3 + i, i] = t ** c  # EM sector
    return K


def sector_exponents_match(g: TransitionGraph, regime: str) -> bool:
    """Exact check of a weighted 3-leaf graph: every step's Fraction exponent
    in g.weights equals its sector's entry of REGIME_EXPONENTS (IM steps
    carry exponent 0), and all four sectors occur."""
    a, b, c = REGIME_EXPONENTS[regime]
    sector = {"IM": Fraction(0), "SM3": a, "SM1": b, "EM": c}
    tags = {tag for step_tags in g.edge_tags.values() for tag in step_tags}
    if g.weights is None or tags != set(sector):
        return False
    return all(
        sorted(g.weights[edge]) == sorted(sector[tag] for tag in step_tags)
        for edge, step_tags in g.edge_tags.items()
    )


def _assert_three_leaf_pattern(g: TransitionGraph, regime: str, t: float) -> None:
    want = three_leaf_pattern(regime, t, with_im=g.cfg.allow_im)
    if not np.allclose(g.K, want, rtol=0, atol=1e-12):
        raise MarkovError(f"3-leaf {regime} matrix deviates from the sector pattern")


# ---------------------------------------------------------------------------
# strong connectivity (iterative Tarjan)

def strong_components(adj: list) -> list:
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    sccs: list = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _adjacency(rows: np.ndarray, cols: np.ndarray, n: int) -> list:
    """Successor lists from the edge arrays of ``np.nonzero(K)`` (rows ascending)."""
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    return [succ[bounds[i]:bounds[i + 1]] for i in range(n)]


def strong_connectivity(g: TransitionGraph, witness: bool = True) -> dict:
    adj = _adjacency(*np.nonzero(g.K), g.n)
    sccs = strong_components(adj)
    connected = len(sccs) == 1
    out = {"strongly_connected": connected, "scc_count": len(sccs), "witness_paths": []}
    if connected and witness and g.n > 1:
        src, dst = 0, g.n - 1
        for pair in ((src, dst), (dst, src)):
            out["witness_paths"].append(_bfs_path(adj, *pair))
    return out


def _bfs_path(adj, src, dst):
    prev = {src: None}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    if dst not in prev:
        return None
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Perron-Frobenius data

@dataclass
class PFData:
    """Perron-Frobenius data of a nonnegative matrix K with strongly
    connected support.

    lam is the dominant eigenvalue, eta the right Perron vector scaled to
    max 1, K_hat[i, j] = K[i, j] eta[j] / (lam eta[i]) the stochastic
    normalization, and xi its stationary distribution.  iterations is the
    number of matrix-vector products taken by the two power iterations
    (right and left vector) together.  residual is the larger of their final
    relative Collatz-Wielandt gaps (hi - lo) / lo; it bounds the relative
    error of lam and the deviation of every row sum of K_hat from 1.
    """

    lam: float
    eta: np.ndarray
    K_hat: np.ndarray
    xi: np.ndarray
    iterations: int
    residual: float


def perron_frobenius(K: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000) -> PFData:
    """Dominant eigendata by shifted power iteration on the edge arrays of K.

    Each step is v <- (Kv + v) / max(Kv + v), with K v taken over the
    nonzero entries only; the identity shift removes periodicity (the
    unweighted chain has zero diagonal).  For v > 0 the Collatz-Wielandt
    bracket lo = min_i (Kv)_i / v_i <= lam <= max_i (Kv)_i / v_i = hi holds,
    and the iteration stops once hi - lo <= tol * lo, a rule that does not
    depend on the size of K.  The same iteration on the transposed edges
    gives the left vector u, and xi = u * eta normalized, because u K = lam u
    makes (u * eta) K_hat = u * eta.  lam is the xi-weighted mean of the
    final ratios (K eta)_i / eta_i, i.e. u K eta / u eta.

    Raises MarkovError on negative entries, on support that is not strongly
    connected, and when a bracket is still wider than tol after max_iter
    steps.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if (K < 0).any():
        raise MarkovError("negative entries")
    rows, cols = np.nonzero(K)
    if len(strong_components(_adjacency(rows, cols, n))) != 1:
        raise MarkovError("reducible support; Perron-Frobenius theory needs strong connectivity")
    w = K[rows, cols]
    eta, ratios, gap_right, steps_right = _perron_vector(rows, cols, w, n, tol, max_iter)
    u, _, gap_left, steps_left = _perron_vector(cols, rows, w, n, tol, max_iter)
    xi = u * eta
    xi /= xi.sum()
    lam = float(xi @ ratios)
    if lam <= 0:
        raise MarkovError("no positive dominant eigenvalue; some state has no successor")
    K_hat = np.zeros_like(K)
    K_hat[rows, cols] = w * eta[cols] / eta[rows] / lam
    return PFData(
        lam=lam,
        eta=eta,
        K_hat=K_hat,
        xi=xi,
        iterations=steps_right + steps_left,
        residual=max(gap_right, gap_left),
    )


def _perron_vector(rows, cols, w, n: int, tol: float, max_iter: int):
    """Perron vector (max 1) of the n x n matrix with entries w at (rows, cols).

    Returns the vector, its ratios (Kv)_i / v_i, their relative gap and the
    number of matrix-vector steps taken.
    """
    v = np.ones(n)
    lo = hi = math.nan
    for step in range(1, max_iter + 1):
        Kv = np.bincount(rows, w * v[cols], n)
        ratios = Kv / v
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= tol * lo:
            return v, ratios, float((hi - lo) / lo) if lo else 0.0, step
        Kv += v
        v = Kv / Kv.max()
    raise MarkovError(
        f"power iteration stalled after {max_iter} steps: Collatz-Wielandt bracket "
        f"[{lo:.12g}, {hi:.12g}] has relative gap {(hi - lo) / lo:.2e} > tol {tol:g}"
    )


# ---------------------------------------------------------------------------
# closed forms for the 3-leaf weighted chain

def structured_closed_form(a, b, c, t: float) -> dict:
    """Exact Perron-Frobenius data of the 3x3-sector matrix with exponents
    (a, b, c) on the SM3 / SM1 / EM sectors: eigenvector (u,u,u,1,1,1),
    eigenvalue lam, and stationary distribution (v,v,v,1,1,1)/(3v+3).

    Solves t^c u^2 + 2(t^b - 1)u - 2t^a = 0, so the radicand couples the
    SM3 and EM sectors through t^(a+c).
    """
    return _sector_closed_form(a, b, c, t, coupling=float(a) + float(c))


def series_closed_form(a, b, c, t: float) -> dict:
    """Variant with the radicand coupling t^(a+b) instead of t^(a+c).

    Not an eigenvector of the weighted matrix unless b == c or t == 1; kept
    because the reference asymptotic series (small-t slopes 5/6, 3, 17/6 for
    the ms / cl / total regimes) are expansions of this expression.
    """
    return _sector_closed_form(a, b, c, t, coupling=float(a) + float(b))


def _sector_closed_form(a, b, c, t: float, coupling: float) -> dict:
    if t <= 0:
        raise MarkovError("t must be positive")
    a, b, c = float(a), float(b), float(c)
    A = 1.0 - t ** b
    disc = math.sqrt(A * A + 2.0 * t ** coupling)
    u = t ** (-c) * (A + disc)
    lam = 1.0 + t ** b + disc
    # lam - 2 = disc - A, rationalized to dodge cancellation at small t
    lam_minus_2 = 2.0 * t ** coupling / (A + disc)
    v = u * t ** c / lam_minus_2
    Z = 3.0 * v + 3.0
    xi = np.array([v, v, v, 1.0, 1.0, 1.0]) / Z
    return {"u": u, "lam": lam, "v": v, "xi": xi}


SERIES_T0_EXPONENT = {"ms": Fraction(5, 6), "cl": Fraction(3), "total": Fraction(17, 6)}
EXACT_T0_EXPONENT = {
    "ms": Fraction(1, 3),
    "cl": Fraction(2),
    "total": Fraction(7, 3),
}


def _fit_exponent(form, a, b, c, lo=1e-6, hi=1e-5) -> float:
    y_lo = form(a, b, c, lo)["xi"][3]
    y_hi = form(a, b, c, hi)["xi"][3]
    return math.log(y_hi / y_lo) / math.log(hi / lo)


def asymptotic_check(regime: str, t_grid=None) -> dict:
    """Behavior of the stationary distribution across t.

    Verifies the t->0 limit (uniform 1/3 on the connected structures) and
    the t->1 limit (uniform 1/6 overall), and fits the small-t exponent of
    the disconnected-sector probability.  The asserted slopes (5/6 for ms, 3
    for cl, 17/6 for total) belong to the series variant of the closed form;
    the exact-matrix slopes (1/3, 2, 7/3) are reported alongside.
    """
    if regime not in ("ms", "cl", "total"):
        raise MarkovError("asymptotics cover the ms / cl / total regimes")
    a, b, c = REGIME_EXPONENTS[regime]
    grid = list(t_grid) if t_grid is not None else list(np.linspace(0.05, 0.95, 10))
    xi_series = [(t, series_closed_form(a, b, c, t)["xi"]) for t in grid]
    t0 = series_closed_form(a, b, c, 1e-12)["xi"]
    t1 = series_closed_form(a, b, c, 1.0 - 1e-6)["xi"]
    slope_series = _fit_exponent(series_closed_form, a, b, c)
    slope_exact = _fit_exponent(structured_closed_form, a, b, c)
    want = float(SERIES_T0_EXPONENT[regime])
    report = {
        "regime": regime,
        "grid": [{"t": t, "xi": xi.tolist()} for t, xi in xi_series],
        "t0_limit": t0.tolist(),
        "t0_limit_ok": bool(
            np.allclose(t0[:3], 1 / 3, atol=1e-6) and np.allclose(t0[3:], 0.0, atol=1e-6)
        ),
        "t1_limit": t1.tolist(),
        "t1_limit_ok": bool(np.allclose(t1, 1 / 6, atol=1e-6)),
        "series_exponent": slope_series,
        "series_exponent_expected": want,
        "series_exponent_ok": bool(abs(slope_series - want) <= 0.05),
        "exact_exponent": slope_exact,
        "exact_exponent_expected": float(EXACT_T0_EXPONENT[regime]),
    }
    report["ok"] = report["t0_limit_ok"] and report["t1_limit_ok"] and report["series_exponent_ok"]
    return report


# ---------------------------------------------------------------------------
# exports

def matrix_csv(g: TransitionGraph) -> str:
    lines = ["," + ",".join(w.key for w in g.vertices)]
    for i, w in enumerate(g.vertices):
        cells = [w.key] + [format(x, ".12g") for x in g.K[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def graph_dot(g: TransitionGraph) -> str:
    out = ["digraph merge {"]
    for i, w in enumerate(g.vertices):
        out.append(f'  n{i} [label="{w.key}"];')
    for (i, j), tags in sorted(g.edge_tags.items()):
        label = "|".join(sorted(set(tags)))
        out.append(f'  n{i} -> n{j} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def pf_to_json(pf: PFData) -> dict:
    col_sums = pf.K_hat.sum(axis=0)
    return {
        "lambda": pf.lam,
        "eta": pf.eta.tolist(),
        "xi": pf.xi.tolist(),
        "bistochastic": bool(np.allclose(col_sums, 1.0, atol=1e-10)),
        "iterations": pf.iterations,
        "residual": pf.residual,
    }
