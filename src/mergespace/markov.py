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
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from mergespace.costs import cl_cost, ms_cost, rr_delta
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import Leaf, enumerate_forests, forest_count

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


# build_graph refuses more states than this, counted with forest_count before
# anything is enumerated.  The 7-leaf chain (27 006 states, 1 099 245 edges)
# is the largest that fits; the next, 8 leaves, has 353 521 states.
MAX_STATES = 30_000
# Dense matrices (TransitionGraph.K, PFData.K_hat, matrix_csv, the CLI's JSON
# "matrix") are refused above the 6-leaf state count: 47 MB each there, and
# 5.8 GB at 7 leaves.
MAX_DENSE_STATES = 2_430


@dataclass
class TransitionGraph:
    """The chain over one leaf multiset as sorted COO edge arrays.

    Edge e runs from state rows[e] to state cols[e] with value values[e]:
    the number of distinct Merge steps, their summed t^cost under a regime,
    or 1 with collapse_01.  Edges are sorted by (row, col) and unique.
    kinds[edge_kind[e]] is the edge's (sorted step tags, Fraction exponents
    in step order or None), one table entry shared by every edge with the
    same steps.  K, edge_tags and weights are views of the arrays, built on
    first read and cached.
    """

    vertices: list
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    edge_kind: np.ndarray
    kinds: list
    cfg: MergeConfig
    regime: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def K(self) -> np.ndarray:
        """The dense n x n matrix, read-only; refused above MAX_DENSE_STATES."""
        return _dense(self.rows, self.cols, self.values, self.n)

    @cached_property
    def edge_tags(self) -> dict:
        """(i, j) -> sorted list of the tags of the steps from i to j."""
        return self._per_edge(0)

    @cached_property
    def weights(self) -> Optional[dict]:
        """(i, j) -> list of the exponents of those steps; None if unweighted."""
        return None if self.regime is None else self._per_edge(1)

    def _per_edge(self, part: int) -> dict:
        table = [kind[part] for kind in self.kinds]
        return {
            (i, j): list(table[k])
            for i, j, k in zip(self.rows.tolist(), self.cols.tolist(), self.edge_kind.tolist())
        }

    def __array__(self, dtype=None, copy=None):
        # code written for a dense matrix (np.asarray, numpy.linalg) reads K
        return np.array(self.K, dtype=dtype, copy=copy)


def check_dense(n: int) -> None:
    """Raises MarkovError if n states are too many for a dense matrix."""
    if n > MAX_DENSE_STATES:
        raise MarkovError(
            f"{n} states: dense matrices are refused above {MAX_DENSE_STATES} states (6 leaves)"
        )


def _dense(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    check_dense(n)
    K = np.zeros((n, n))
    K[rows, cols] = values
    K.flags.writeable = False
    return K


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
    fall outside the state space.  More than MAX_STATES states (counted for
    distinct labels) are refused before anything is enumerated.

    Merge and every cost regime commute with relabeling the leaves, so the
    engine and the cost model run on one representative per orbit of states
    under label permutations.  Every other state's row is the
    representative's row carried through the permutation that maps the
    representative onto that state.  The first other member of each orbit
    is also built directly, and MarkovError is raised if its (target, tag,
    exponent) steps differ from the carried ones.  With repeated labels
    every state is its own orbit, and no state form is computed.
    """
    labels = tuple(sorted(leaves))
    if len(labels) < 2:
        raise MarkovError("transition graphs need at least 2 leaves")
    bound = forest_count(len(labels)) - 1
    if bound > MAX_STATES:
        raise MarkovError(
            f"{len(labels)} leaves give up to {bound} states, over the bound of {MAX_STATES}"
        )
    if cfg.mode != "d":
        raise MarkovError("transition graphs need mode 'd'")
    if regime is not None and regime not in REGIMES:
        raise MarkovError(f"unknown regime {regime!r}")
    if not (math.isfinite(t) and t > 0):
        raise MarkovError(f"weight parameter t must be finite and positive, got t = {t}")
    vertices = enumerate_forests(labels, require_edge=True)
    index = {w.key: i for i, w in enumerate(vertices)}
    if len(set(labels)) < len(labels):
        orbits = [[i] for i in range(len(vertices))]
    else:
        bit = {label: 1 << i for i, label in enumerate(labels)}
        tree_forms: dict = {}  # tree key -> _tree_form, shared by every state
        forms = [_state_form(w, bit, tree_forms) for w in vertices]
        states = _StateKeys(forms, len(labels))
        by_shape: dict = {}
        for i, form in enumerate(forms):
            by_shape.setdefault(form.shape, []).append(i)
        orbits = list(by_shape.values())

    def direct_row(i: int) -> list:
        return [
            (index[step.output_ws.key], step.tag, None if regime is None else step_cost(step, regime))
            for step in all_merge_successors(vertices[i], cfg)
        ]

    kinds: dict = {}  # (sorted tags, exponents or None) -> index
    parts = []  # (rows, cols, kind indices) per orbit
    for rep, *others in orbits:
        row = direct_row(rep)
        edges: dict = {}  # target -> (tags, exponents) in step order
        for j, tag, expo in row:
            tags, expos = edges.setdefault(j, ([], []))
            tags.append(tag)
            expos.append(expo)
        targets = np.fromiter(edges, dtype=np.intp, count=len(edges))
        kind = np.array(
            [
                kinds.setdefault((tuple(sorted(tags)), None if regime is None else tuple(expos)), len(kinds))
                for tags, expos in edges.values()
            ],
            dtype=np.int32,
        )
        parts.append((np.full(len(targets), rep), targets, kind))
        if not others:
            continue
        moved = _transport(targets, forms[rep], [forms[i] for i in others], states)
        carried = dict(zip(targets.tolist(), moved[0].tolist()))
        if Counter((carried[j], tag, x) for j, tag, x in row) != Counter(direct_row(others[0])):
            raise MarkovError(
                f"steps of {vertices[others[0]].key} differ from those carried over from "
                f"{vertices[rep].key}; Merge or the cost model is not label-invariant"
            )
        parts.append((np.repeat(others, len(targets)), moved.ravel(), np.tile(kind, len(others))))
    rows, cols, kind = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(rows * len(vertices) + cols)
    rows, cols, kind = rows[order], cols[order], kind[order]
    table = list(kinds)
    per_kind = [float(len(tags)) if expos is None else _weight(t, expos) for tags, expos in table]
    values = np.array(per_kind)[kind]
    if collapse_01:
        values = (values > 0).astype(float)
    return TransitionGraph(vertices, rows, cols, values, kind, table, cfg, regime)


def _weight(t: float, expos: tuple) -> float:
    """The summed t^cost of one edge's steps, in step order."""
    try:
        return sum(t ** float(x) for x in expos)
    except OverflowError:
        raise MarkovError(f"t = {t} overflows t^cost for cost {max(expos)}") from None


class _Form(NamedTuple):
    """A state over distinct labels up to leaf relabeling.

    shape is the label-free form of each component (children ordered by
    shape), equal for exactly the states of one orbit; bits gives each leaf,
    in that order, its label's bit; clusters is the sorted tuple of leaf
    masks of the internal vertices, which determines the state.
    """

    shape: tuple
    bits: tuple
    clusters: tuple


def _tree_form(t, bit: dict, memo: dict) -> tuple:
    """(shape, leaf bits in shape order, leaf masks of the internal
    vertices) of one tree over distinct labels, bit[label] being each
    label's bit.  memo maps the key of each tree already formed to its
    form."""
    form = memo.get(t.key)
    if form is None:
        if isinstance(t, Leaf):
            form = "", (bit[t.name],), ()
        else:
            a, b = sorted((_tree_form(t.left, bit, memo), _tree_form(t.right, bit, memo)))
            bits = a[1] + b[1]
            form = "(" + a[0] + "|" + b[0] + ")", bits, a[2] + b[2] + (sum(bits),)
        memo[t.key] = form
    return form


def _state_form(ws, bit: dict, memo: dict) -> _Form:
    forms = sorted(_tree_form(c, bit, memo) for c in ws.components)
    return _Form(
        tuple(f[0] for f in forms),
        tuple(b for f in forms for b in f[1]),
        tuple(sorted(m for f in forms for m in f[2])),
    )


class _StateKeys:
    """Every state's clusters as one row of masks, zero-padded in front to
    the n - 1 internal vertices of a tree, and as one int64 key: the masks
    (n bits each) packed in order, n (n - 1) <= 42 bits under MAX_STATES."""

    def __init__(self, forms: list, n_leaves: int):
        self.n_leaves = n_leaves
        width = n_leaves - 1
        self.masks = np.array([(0,) * (width - len(f.clusters)) + f.clusters for f in forms])
        keys = self._pack(self.masks)
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def _pack(self, masks: np.ndarray) -> np.ndarray:
        return (masks << (self.n_leaves * np.arange(masks.shape[-1]))).sum(axis=-1)

    def find(self, masks: np.ndarray) -> np.ndarray:
        """The states whose rows of masks (sorted ascending) are given."""
        keys = self._pack(masks)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if (self.keys[pos] != keys).any():
            raise MarkovError("a carried target is not a state of the chain")
        return self.order[pos]


def _transport(targets: np.ndarray, src: _Form, dsts: list, states: _StateKeys) -> np.ndarray:
    """The states that src's targets become under the label permutations
    mapping src onto each of dsts (states of src's shape): row r holds the
    images under the permutation onto dsts[r], in the order of targets.

    A permutation acts on all 2^n leaf masks through one table, so the
    images of every mask of every target are one gather; sorted and packed,
    each image is looked up among the states' keys.
    """
    n = len(src.bits)
    image = np.zeros((len(dsts), n), dtype=np.int64)  # bit position -> image bit
    image[:, [b.bit_length() - 1 for b in src.bits]] = [d.bits for d in dsts]
    table = image @ ((np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1)
    return states.find(np.sort(table[:, states.masks[targets]], axis=-1))


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
# strong connectivity: reachability decides it, Tarjan counts the components

def strong_components(rows: np.ndarray, cols: np.ndarray, n: int) -> list:
    """The strongly connected components of the digraph on n states with
    edges rows[e] -> cols[e], sorted by row (iterative Tarjan): state v's
    successors are cols[first[v]:first[v + 1]]."""
    first = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    sccs: list = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, first[root])]
        while work:
            v, e = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(e, first[v + 1]):
                w = succ[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, first[w]))
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


def _edges(K) -> tuple:
    """(rows, cols, values, n) of the nonzero entries of a TransitionGraph or
    of a dense square matrix, sorted by (row, col)."""
    if isinstance(K, TransitionGraph):
        keep = K.values != 0  # t^cost can underflow to 0
        return K.rows[keep], K.cols[keep], K.values[keep], K.n
    K = np.asarray(K, dtype=float)
    flat = np.flatnonzero(K)
    rows, cols = np.divmod(flat, K.shape[1])
    return rows, cols, K.ravel()[flat], K.shape[0]


def _bfs_tree(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Breadth-first search from state 0 over the edges src[e] -> dst[e]:
    each reached state's parent is its lowest-numbered predecessor on the
    previous level, state 0 is its own parent, and n marks a state never
    reached.  Each sweep takes every edge out of the last frontier at once."""
    parent = np.full(n, n)
    parent[0] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = True
    while True:
        out = np.flatnonzero(frontier[src])
        out = out[parent[dst[out]] == n]  # edges into states not yet reached
        if not len(out):
            return parent
        reached = dst[out]
        np.minimum.at(parent, reached, src[out])
        frontier = np.zeros(n, dtype=bool)
        frontier[reached] = True


def strong_connectivity(g, witness: bool = True) -> dict:
    """Whether g, a TransitionGraph or a dense square matrix, is strongly
    connected, its component count, and with witness shortest paths from
    the first state to the last and back.

    One breadth-first search from state 0 along the edges and one against
    them decide: the chain is strongly connected when both reach every
    state.  The witnesses are read off the two trees, 0 -> n-1 from the
    first and n-1 -> 0 from the second.  Tarjan runs only to count the
    components of a reducible chain."""
    rows, cols, _, n = _edges(g)
    trees = [_bfs_tree(rows, cols, n), _bfs_tree(cols, rows, n)] if n else []
    connected = bool(trees) and all((parent < n).all() for parent in trees)
    out = {"strongly_connected": connected, "scc_count": 1, "witness_paths": []}
    if not connected:
        out["scc_count"] = len(strong_components(rows, cols, n))
    elif witness and n > 1:
        paths = []
        for parent in trees:  # from n-1 up to the root, state 0
            path = [n - 1]
            while path[-1]:
                path.append(int(parent[path[-1]]))
            paths.append(path)
        out["witness_paths"] = [paths[0][::-1], paths[1]]
    return out


# ---------------------------------------------------------------------------
# Perron-Frobenius data

@dataclass
class PFData:
    """Perron-Frobenius data of a nonnegative matrix K with strongly
    connected support.

    lam is the dominant eigenvalue, eta the right Perron vector scaled to
    max 1, and xi the stationary distribution of the stochastic
    normalization K_hat[i, j] = K[i, j] eta[j] / (lam eta[i]).  K_hat is
    kept on K's nonzero entries: hat[e] at (rows[e], cols[e]); the dense
    K_hat is a view built on first read and refused above MAX_DENSE_STATES.
    iterations is the number of matrix-vector products taken by the two
    power iterations (right and left vector) together.  residual is the
    larger of their final relative Collatz-Wielandt gaps (hi - lo) / lo; it
    bounds the relative error of lam and the deviation of every row sum of
    K_hat from 1.
    """

    lam: float
    eta: np.ndarray
    xi: np.ndarray
    iterations: int
    residual: float
    rows: np.ndarray
    cols: np.ndarray
    hat: np.ndarray

    @cached_property
    def K_hat(self) -> np.ndarray:
        return _dense(self.rows, self.cols, self.hat, len(self.eta))


def perron_frobenius(K, tol: float = 1e-12, max_iter: int = 10_000) -> PFData:
    """Dominant eigendata by shifted power iteration on the edge arrays of K,
    a TransitionGraph or a dense matrix.

    Each step is v <- (Kv + v) / max(Kv + v), with K v taken as one sum
    per row over the row-sorted nonzero entries; the identity shift removes
    periodicity (the unweighted chain has zero diagonal).  For v > 0 the Collatz-Wielandt
    bracket lo = min_i (Kv)_i / v_i <= lam <= max_i (Kv)_i / v_i = hi holds,
    and the iteration stops once hi - lo <= tol * lo, a rule that does not
    depend on the size of K.  The same iteration on the transposed edges
    gives the left vector u, and xi = u * eta normalized, because u K = lam u
    makes (u * eta) K_hat = u * eta.  lam is the xi-weighted mean of the
    final ratios (K eta)_i / eta_i, i.e. u K eta / u eta.

    Raises MarkovError on non-finite or negative entries, on support that is
    not strongly connected, on a single state without a successor, and when
    a bracket is still wider than tol after max_iter steps.
    """
    rows, cols, w, n = _edges(K)
    if not np.isfinite(w).all():
        raise MarkovError("non-finite entries")
    if (w < 0).any():
        raise MarkovError("negative entries")
    if not n or any((_bfs_tree(s, d, n) == n).any() for s, d in ((rows, cols), (cols, rows))):
        raise MarkovError("reducible support; Perron-Frobenius theory needs strong connectivity")
    if not len(w):  # one state without a successor
        raise MarkovError("no positive dominant eigenvalue; some state has no successor")
    eta, ratios, gap_right, steps_right = _perron_vector(rows, cols, w, n, tol, max_iter)
    u, _, gap_left, steps_left = _perron_vector(*_transposed(rows, cols, w), n, tol, max_iter)
    xi = u * eta
    xi /= xi.sum()
    lam = float(xi @ ratios)
    return PFData(
        lam=lam,
        eta=eta,
        xi=xi,
        iterations=steps_right + steps_left,
        residual=max(gap_right, gap_left),
        rows=rows,
        cols=cols,
        hat=w * eta[cols] / eta[rows] / lam,
    )


def _transposed(rows, cols, w) -> tuple:
    """The reversed edges of row-sorted edge arrays, sorted by their new row:
    one stable sort by column keeps each column's edges in row order."""
    order = np.argsort(cols, kind="stable")
    return cols[order], rows[order], w[order]


def _perron_vector(rows, cols, w, n: int, tol: float, max_iter: int):
    """Perron vector (max 1) of the n x n matrix with entries w at (rows, cols),
    edges sorted by row and every row nonempty, as strong connectivity gives.

    Returns the vector, its ratios (Kv)_i / v_i, their relative gap and the
    number of matrix-vector steps taken.
    """
    starts = np.searchsorted(rows, np.arange(n))  # each row's first edge
    v = np.ones(n)
    lo = hi = math.nan
    # an entry of v or Kv that underflows to 0 shows as a ratio of 0, x/0 or 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1, max_iter + 1):
            Kv = np.add.reduceat(w * v[cols], starts)
            ratios = Kv / v
            lo, hi = ratios.min(), ratios.max()
            if not (lo > 0 and hi < math.inf):
                raise MarkovError(
                    f"Perron vector underflowed at power-iteration step {step}: its "
                    f"entries span more than double precision holds"
                )
            if hi - lo <= tol * lo:
                return v, ratios, float((hi - lo) / lo), step
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
    labels = ["|".join(sorted(set(tags))) for tags, _ in g.kinds]
    for i, j, k in zip(g.rows.tolist(), g.cols.tolist(), g.edge_kind.tolist()):
        out.append(f'  n{i} -> n{j} [label="{labels[k]}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def pf_to_json(pf: PFData) -> dict:
    col_sums = np.bincount(pf.cols, pf.hat, len(pf.eta))
    return {
        "lambda": pf.lam,
        "eta": pf.eta.tolist(),
        "xi": pf.xi.tolist(),
        "bistochastic": bool(np.allclose(col_sums, 1.0, atol=1e-10)),
        "iterations": pf.iterations,
        "residual": pf.residual,
    }
