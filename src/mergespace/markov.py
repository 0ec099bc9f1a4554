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
import random
from collections import Counter
# TransitionGraph and PFData stay dataclasses, unlike the records that
# every command loads: this module loads only together with numpy, which
# costs far more to import, and the benchmark's negative control rebuilds
# a PFData with dataclasses.replace.
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import permutations
from typing import Optional

import numpy as np

from mergespace.costs import REGIMES, cost_ratios
from mergespace.engine import MergeConfig, all_merge_successors
from mergespace.forest import DomainError, forests_and_masks, leaf_count_over

# sector exponents (SM3, SM1, EM) realized on the 3-leaf state space
REGIME_EXPONENTS = {
    "ms": (Fraction(1, 3), Fraction(1, 2), Fraction(0)),
    "my": (Fraction(-1), Fraction(0), Fraction(1)),
    "cl": (Fraction(2), Fraction(1), Fraction(0)),
    "total": (Fraction(4, 3), Fraction(3, 2), Fraction(1)),
}


class MarkovError(DomainError):
    pass


# build_graph refuses more states than this, counted with leaf_count_over before
# anything is enumerated.  The 7-leaf chain (27 006 states, 1 099 245 edges)
# is the largest that fits; the next, 8 leaves, has 353 521 states.
MAX_STATES = 30_000
# Power iterations stop once the Collatz-Wielandt bracket's relative gap is
# at most PF_TOL, and fail after PF_MAX_ITER steps.
PF_TOL = 1e-12
PF_MAX_ITER = 10_000
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
    kinds[edge_kind[e]] is the edge's (step tags, Fraction exponents or
    None), its steps' (tag, exponent) pairs in sorted order, one table entry
    shared by every edge with the same steps.  K and weights are views of
    the arrays, built on first read and cached.
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
    def weights(self) -> Optional[dict]:
        """(i, j) -> list of the exponents of the steps from i to j; None if
        unweighted."""
        if self.regime is None:
            return None
        return {
            (i, j): list(self.kinds[k][1])
            for i, j, k in zip(self.rows.tolist(), self.cols.tolist(), self.edge_kind.tolist())
        }

    def __array__(self, dtype=None, copy=None):
        # code written for a dense matrix (np.asarray, numpy.linalg) reads K
        return np.array(self.K, dtype=dtype, copy=copy)


def dense_refused(states) -> MarkovError:
    """The error for a dense matrix over too many states; states is a count
    or leaf_count_over's text."""
    return MarkovError(f"{states} states: dense matrices are refused above {MAX_DENSE_STATES} states (6 leaves)")


def _dense(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    if n > MAX_DENSE_STATES:
        raise dense_refused(n)
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
    fall outside the state space.  More than MAX_STATES states (counted over
    the leaf multiset) are refused before anything is enumerated.

    Merge and every cost regime commute with relabeling the leaves, so the
    engine and the cost model run on one representative per orbit of states
    under label permutations (_StateKeys.orbits).  Every other state's row
    is the representative's row carried through the permutation that maps
    the representative onto that state.  The first other member of each
    orbit is also built directly, and MarkovError is raised if its (target,
    tag, exponent) steps differ from the carried ones.  With repeated labels
    every state is its own orbit, and no state is keyed.
    """
    labels = tuple(sorted(leaves))
    if len(labels) < 2:
        raise MarkovError("transition graphs need at least 2 leaves")
    over = leaf_count_over(labels, MAX_STATES, require_edge=True)
    if over:
        raise MarkovError(f"{len(labels)} leaves can give {over} states, over the bound of {MAX_STATES}")
    if cfg.mode != "d":
        raise MarkovError("transition graphs need mode 'd'")
    if regime is not None and regime not in REGIMES:
        raise MarkovError(f"unknown regime {regime!r}")
    if not (math.isfinite(t) and t > 0):
        raise MarkovError(f"weight parameter t must be finite and positive, got t = {t}")
    vertices, masks = forests_and_masks(labels, require_edge=True)
    index = {w.key: i for i, w in enumerate(vertices)}
    if masks is None:  # repeated labels
        orbits = [(i, (), None) for i in range(len(vertices))]
    else:
        states = _StateKeys(masks, len(labels))
        orbits = states.orbits()

    pick = None if regime is None else REGIMES.index(regime)

    def direct_row(i: int) -> list:
        # each exponent as a reduced (numerator, denominator) pair
        return [
            (index[step.output_ws.key], step.tag, None if pick is None else cost_ratios(step)[pick])
            for step in all_merge_successors(vertices[i], cfg)
        ]

    kinds: dict = {}  # sorted (tag, exponent pair or None) pairs -> index
    blocks = []  # (states, their targets sorted per row, kind indices) per orbit
    degree = np.zeros(len(vertices), dtype=np.intp)
    for rep, others, perms in orbits:
        row = direct_row(rep)
        edges: dict = {}  # target -> (tag, exponent) pairs
        for j, tag, expo in row:
            edges.setdefault(j, []).append((tag, expo))
        targets = sorted(edges)
        kind = np.array([kinds.setdefault(tuple(sorted(edges[j])), len(kinds)) for j in targets], np.int32)
        targets = np.array(targets, dtype=np.intp)
        members = [rep]
        if len(others):
            moved = _transport(targets, perms, states)
            carried = dict(zip(targets.tolist(), moved[0].tolist()))
            if Counter((carried[j], tag, x) for j, tag, x in row) != Counter(direct_row(others[0])):
                raise MarkovError(
                    f"steps of {vertices[others[0]].key} differ from those carried over from "
                    f"{vertices[rep].key}; Merge or the cost model is not label-invariant"
                )
            order = np.argsort(moved, axis=1)
            members += others.tolist()
            targets = np.vstack([targets, np.take_along_axis(moved, order, axis=1)])
            kind = np.vstack([kind, kind[order]])
        degree[members] = len(edges)
        blocks.append((members, targets, kind))
    # each state's edges in one run, in state order
    first = np.cumsum(degree) - degree
    rows = np.repeat(np.arange(len(vertices)), degree)
    cols = np.empty(len(rows), dtype=np.intp)
    kind = np.empty(len(rows), dtype=np.int32)
    for members, targets, block_kind in blocks:
        at = first[members, None] + np.arange(targets.shape[-1])
        cols[at] = targets
        kind[at] = block_kind
    table = [_kind(pairs, regime is not None) for pairs in kinds]
    per_kind = [float(len(tags)) if expos is None else _weight(t, expos) for tags, expos in table]
    values = np.array(per_kind)[kind]
    if collapse_01:
        values = (values > 0).astype(float)
    return TransitionGraph(vertices, rows, cols, values, kind, table, cfg, regime)


def _kind(pairs: tuple, weighted: bool) -> tuple:
    """An edge's kinds entry from its steps' (tag, exponent pair) pairs: the
    tags and the Fraction exponents (None if unweighted), pairs sorted."""
    if not weighted:
        return tuple(tag for tag, _ in pairs), None
    pairs = sorted((tag, Fraction(*x)) for tag, x in pairs)
    return tuple(tag for tag, _ in pairs), tuple(x for _, x in pairs)


def _weight(t: float, expos: tuple) -> float:
    """The summed t^cost of one edge's steps, in kind order."""
    try:
        return sum(t ** float(x) for x in expos)
    except OverflowError:
        raise MarkovError(f"t = {t} overflows t^cost for cost {max(expos)}") from None


# Odd 64-bit multipliers of the state-key hash.  Its operands are always
# arrays: numpy wraps uint64 array products silently, where a product of
# two scalars raises a RuntimeWarning.
_HASH = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9], dtype=np.uint64)


class _StateKeys:
    """The states over n distinct labels, keyed exactly, and the action of
    the n! permutations of the labels on them.

    A label's leaf mask is its bit in sorted label order.  A state's key is
    the set of leaf masks of its internal vertices, which determines it, as
    a bitset over the 2^n masks (forests_and_masks gives it), held in two
    uint64 words, lo for masks below 64 and hi for the rest; masks[i] lists
    them, zero-padded to the n - 1 of a tree.  The permutations of the leaf
    bits are numbered in itertools order, so permutation 0 is the identity;
    word_lo[m, p] and word_hi[m, p] are the key bits of leaf mask m's image
    under permutation p, 0 for m = 0.  The keys sit in an open-addressing
    table with linear probing: the hash picks the first slot, and a state is
    found only when both of its words equal the query's.
    """

    def __init__(self, keys: list, n: int):
        self.lo = np.array([key % 2**64 for key in keys], dtype=np.uint64)
        self.hi = np.array([key >> 64 for key in keys], dtype=np.uint64)
        # the set bits of each state's 128, in order, fill its row of masks
        words = np.stack([self.lo, self.hi], axis=1).astype("<u8").view(np.uint8)
        bits = np.unpackbits(words, axis=1, bitorder="little").view(bool)
        state, held = np.divmod(np.flatnonzero(bits), 128)
        count = np.bincount(state, minlength=len(keys))
        self.masks = np.zeros((len(keys), n - 1), dtype=np.intp)
        self.masks[state, np.arange(len(state)) - np.repeat(np.cumsum(count) - count, count)] = held
        # images[m, p], mask m under permutation p: the masks from 2^i to
        # 2^(i + 1) are those below 2^i with bit i, which p sends to bit perms[p, i]
        perms = np.array(list(permutations(range(n))), dtype=np.intp)
        images = np.zeros((1 << n, len(perms)), dtype=np.intp)
        for i, image in enumerate(1 << perms.T):
            images[1 << i : 2 << i] = images[: 1 << i] | image
        mask = np.arange(1 << n)
        bits = np.left_shift(np.uint64(1), (mask % 64).astype(np.uint64))
        bits[0] = 0
        self.word_lo = np.where(mask < 64, bits, np.uint64(0))[images]
        self.word_hi = np.where(mask >= 64, bits, np.uint64(0))[images]
        # a hash of b bits, so at most a quarter of the 2^b slots are homes;
        # in the order of their home slots, each state takes the first free
        # slot from its home on, in a table of 2^(b + 1) slots that has room
        # for every state past the last home
        b = (4 * len(keys)).bit_length()
        self._shift = np.uint64(64 - b)
        home = self._slot(self.lo, self.hi)
        order = np.argsort(home, kind="stable")
        rank = np.arange(len(order))
        self.table = np.full(2 << b, -1, dtype=np.intp)
        self.table[np.maximum.accumulate(home[order] - rank) + rank] = order

    def _slot(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return (((lo ^ (hi * _HASH[0])) * _HASH[1]) >> self._shift).astype(np.intp)

    def words(self, states, perms) -> tuple:
        """(lo, hi), each of shape (states, permutations): the key words of
        the given states under the given permutations."""
        wl, wh = self.word_lo[:, perms], self.word_hi[:, perms]
        lo = hi = np.uint64(0)
        for column in self.masks[states].T:
            lo = lo + wl[column]
            hi = hi + wh[column]
        return lo, hi

    def find(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The states with the given key words (1-d arrays).  Each key is
        probed from its hashed slot on until a slot holds the state with
        both of its words; reaching an empty slot first means no state has
        that key.  An empty slot holds -1, whose words (the last state's)
        differ from the key's: the key's state would lie before that slot."""
        slot = self._slot(lo, hi)
        found = self.table[slot]
        todo = np.flatnonzero((self.lo[found] != lo) | (self.hi[found] != hi))
        while len(todo):
            if found[todo].min() < 0:
                raise MarkovError("a carried target is not a state of the chain")
            slot[todo] += 1
            state = found[todo] = self.table[slot[todo]]
            todo = todo[(self.lo[state] != lo[todo]) | (self.hi[state] != hi[todo])]
        return found

    def orbits(self) -> list:
        """(representative, other members, their permutations) per orbit,
        walking the states in index order: the least state not yet in an
        orbit is the next representative, its images under every
        permutation are its orbit, and each member's permutation is the
        first that maps the representative onto it."""
        covered = np.zeros(len(self.lo), dtype=bool)
        orbits = []
        rep = 0
        while not covered[rep]:
            lo, hi = self.words(rep, slice(None))
            members, perms = np.unique(self.find(lo, hi), return_index=True)
            covered[members] = True
            orbits.append((rep, members[1:], perms[1:]))
            rep = int(np.argmin(covered))
        return orbits


def _transport(targets: np.ndarray, perms: np.ndarray, states: _StateKeys) -> np.ndarray:
    """The states that targets become under each of the permutations perms:
    row r holds the images under perms[r], in the order of targets.  Each
    image's key is summed from the permutations' key-bit tables, and all
    are looked up at once."""
    lo, hi = states.words(targets, perms)
    return states.find(lo.ravel(), hi.ravel()).reshape(lo.shape).T


def weighted_matrix(leaves, regime: str, t: float, cfg: MergeConfig = MergeConfig()) -> TransitionGraph:
    """Cost-weighted transition matrix; exponents come from the cost model on
    the actual steps, and on the 3-leaf space sector_deviation checks them."""
    g = build_graph(leaves, cfg, regime=regime, t=t)
    plain = cfg.allow_sm and not (cfg.allow_identity_sm or cfg.allow_sibling_cut or cfg.atomic_sm_only)
    if len(tuple(leaves)) == 3 and len(set(leaves)) == 3 and plain:
        edge = sector_deviation(g, regime, t)
        if edge is not None:
            raise MarkovError(f"3-leaf {regime} chain deviates from the sector pattern at edge {edge}")
    return g


def sector_deviation(g: TransitionGraph, regime: str, t: float) -> Optional[tuple]:
    """None if the weighted 3-leaf graph g (trees 0-2, forests 3-5) is exactly
    the sector pattern of REGIME_EXPONENTS, else the first edge (i, j) off it.
    Each edge is one step: its kind must be ((tag,), (exponent,)) and its
    value t^exponent, both compared exactly."""
    a, b, c = REGIME_EXPONENTS[regime]
    want = {(3 + i, i): ("EM", c) for i in range(3)}
    for i, j in permutations(range(3), 2):
        if g.cfg.allow_im:
            want[i, j] = ("IM", Fraction(0))
        want[i, 3 + j] = ("SM3", a)
        want[3 + i, 3 + j] = ("SM1", b)
    have = {edge: e for e, edge in enumerate(zip(g.rows.tolist(), g.cols.tolist()))}
    for edge in sorted(want.keys() | have.keys()):
        if edge not in want or edge not in have:
            return edge
        (tag, x), e = want[edge], have[edge]
        if g.kinds[g.edge_kind[e]] != ((tag,), (x,)) or g.values[e] != t ** float(x):
            return edge
    return None


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


_SCAN_ENTRIES = 1 << 18  # entries of a dense matrix scanned for nonzeros at once


def _edges(K) -> tuple:
    """(rows, cols, values, n) of the nonzero entries of a TransitionGraph or
    of a dense square matrix, sorted by (row, col); anything else is refused
    with a MarkovError naming its shape."""
    if isinstance(K, TransitionGraph):
        keep = K.values != 0  # t^cost can underflow to 0
        return K.rows[keep], K.cols[keep], K.values[keep], K.n
    shape = np.shape(K)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise MarkovError(f"need a square matrix, got one of shape {shape}")
    K = np.asarray(K, dtype=float)
    n = len(K)
    # a block of rows at a time: one n x n boolean would cost as much memory as
    # K / 8, and the boolean scan is several times faster than one over floats
    b = max(1, _SCAN_ENTRIES // max(n, 1))
    flat = np.concatenate(
        [np.empty(0, dtype=np.intp)]
        + [np.flatnonzero(K[i : i + b].ravel() != 0) + i * n for i in range(0, n, b)]
    )
    rows, cols = np.divmod(flat, n)
    return rows, cols, K.ravel()[flat], n


def _unreached(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The states, in increasing order, that breadth-first search from state
    0 over the edges src[e] -> dst[e] never reaches.  Each sweep takes every
    edge out of the last frontier at once."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while True:
        reached = dst[frontier[src]]
        reached = reached[~seen[reached]]
        if not len(reached):
            return np.flatnonzero(~seen)
        seen[reached] = True
        frontier = np.zeros(n, dtype=bool)
        frontier[reached] = True


def _unreachable_pair(rows: np.ndarray, cols: np.ndarray, n: int) -> Optional[tuple]:
    """None when breadth-first search from state 0 of n > 0 reaches every
    state along the edges and against them; else (i, j), state i unable to
    reach state j: (0, j) for the least j missed along the edges, then
    (i, 0) for the least i missed against them."""
    for src, dst, forward in ((rows, cols, True), (cols, rows, False)):
        missed = _unreached(src, dst, n)
        if len(missed):
            return (0, int(missed[0])) if forward else (int(missed[0]), 0)
    return None


def strong_connectivity(g) -> dict:
    """Whether g, a TransitionGraph or a dense square matrix (any other shape
    is a MarkovError), is strongly connected, and its component count.

    One breadth-first search from state 0 along the edges and one against
    them decide: the chain is strongly connected when both reach every
    state.  Tarjan runs only to count the components of a reducible chain."""
    rows, cols, _, n = _edges(g)
    connected = bool(n) and _unreachable_pair(rows, cols, n) is None
    return {
        "strongly_connected": connected,
        "scc_count": 1 if connected else len(strong_components(rows, cols, n)),
    }


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
    cells is the number of cells of the equitable partition the power
    iterations started from (n when it is discrete).  iterations is the
    number of matrix-vector products of all the power iterations together:
    two per step of the joint one on the cells' quotient matrices, then
    those on K for the right and the left vector.  residual is the larger
    of the two final relative Collatz-Wielandt gaps (hi - lo) / lo on K; it
    bounds the relative error of lam and the deviation of every row sum of
    K_hat from 1.
    """

    lam: float
    eta: np.ndarray
    xi: np.ndarray
    cells: int
    iterations: int
    residual: float
    rows: np.ndarray
    cols: np.ndarray
    hat: np.ndarray

    @cached_property
    def K_hat(self) -> np.ndarray:
        return _dense(self.rows, self.cols, self.hat, len(self.eta))


def perron_frobenius(K) -> PFData:
    """Dominant eigendata by shifted power iteration on the edge arrays of K,
    a TransitionGraph or a dense matrix.

    Each step is v <- (Kv + v) / max(Kv + v), with K v taken as one sum
    per row over the row-sorted nonzero entries; the identity shift removes
    periodicity (the unweighted chain has zero diagonal).  For v > 0 the Collatz-Wielandt
    bracket lo = min_i (Kv)_i / v_i <= lam <= max_i (Kv)_i / v_i = hi holds,
    and the iteration stops once hi - lo <= PF_TOL * lo, a rule that does not
    depend on the size of K.  The same iteration on the transposed edges
    gives the left vector u, and xi = u * eta normalized, because u K = lam u
    makes (u * eta) K_hat = u * eta.  lam is the xi-weighted mean of the
    final ratios (K eta)_i / eta_i, i.e. u K eta / u eta.

    Each iteration on K starts from a vector lifted from a few cells.  On a
    partition of the states that is equitable for K and for its transpose
    (_equitable_cells), the Perron vectors are constant on the cells, and
    their values per cell are the Perron vectors of the quotient matrices
    S[A, B] / |A| (right) and S[A, B] / |B| (left), S[A, B] the sum of K
    over A x B.  Those are iterated to PF_TOL together, as one
    block-diagonal matrix (_lifted_starts), lifted by cell, and each
    iteration on K certifies its vector, by the same rule, in one product.
    A partition that is not equitable gives a worse start and costs
    products on K, never a different certificate.  A discrete partition
    starts from ones.

    Raises MarkovError on a matrix that is not square, on non-finite or
    negative entries, on support that is not strongly connected (naming a
    state that another cannot reach and, for a graph, how many edges
    underflowed to 0), on a single state without a successor, and when a
    bracket is still wider than PF_TOL after PF_MAX_ITER steps of one power
    iteration.
    """
    rows, cols, w, n = _edges(K)
    if not np.isfinite(w).all():
        raise MarkovError("non-finite entries")
    if (w < 0).any():
        raise MarkovError("negative entries")
    _check_strongly_connected(K, rows, cols, n)
    if not len(w):  # one state without a successor
        raise MarkovError("no positive dominant eigenvalue; some state has no successor")
    cell, k = _equitable_cells(rows, cols, w, n)
    eta0, u0, lumped = _lifted_starts(rows, cols, w, cell, k)
    eta, ratios, gap_right, steps_right = _perron_vector(rows, cols, w, n, eta0)
    u, _, gap_left, steps_left = _perron_vector(*_transposed(rows, cols, w, n), n, u0)
    xi = u * eta
    xi /= xi.sum()
    lam = float(xi @ ratios)
    return PFData(
        lam=lam,
        eta=eta,
        xi=xi,
        cells=k,
        iterations=lumped + steps_right + steps_left,
        residual=max(gap_right, gap_left),
        rows=rows,
        cols=cols,
        hat=w * eta[cols] / eta[rows] / lam,
    )


def _check_strongly_connected(K, rows, cols, n: int) -> None:
    """Raises MarkovError naming a state that another cannot reach and, when
    K is a graph some of whose t^cost weights underflowed to 0, how many."""
    if not n:
        raise MarkovError("reducible support; Perron-Frobenius theory needs strong connectivity: no states")
    pair = _unreachable_pair(rows, cols, n)
    if pair is not None:
        i, j = pair
        lost = int(np.count_nonzero(K.values == 0)) if isinstance(K, TransitionGraph) else 0
        raise MarkovError(
            "reducible support; Perron-Frobenius theory needs strong connectivity: "
            f"{_state_name(K, i)} cannot reach {_state_name(K, j)}"
            + (f"; t^cost underflowed to 0 on {lost} of {len(K.values)} edges at this t" if lost else "")
        )


def _state_name(K, i: int) -> str:
    return f"state {i} = {K.vertices[i].key}" if isinstance(K, TransitionGraph) else f"state {i}"


def _equitable_cells(rows, cols, w, n: int) -> tuple:
    """(cell of each state, cell count k) of the coarsest partition of the
    states that is equitable for K and for K^T, K having entries w at
    (rows, cols) sorted by (row, col): the states of one cell have, for
    every cell B and every entry value x, as many entries x into B, and as
    many from B.

    Colour refinement: each round weighs every edge by a random integer for
    its exact value class times one for the cell at its other end, sums the
    weights out of each state with one segment sum over the row-sorted
    edges and into each state with one bincount, and splits each cell by
    those sums with one lexsort.  It stops when a round splits no cell.
    Each edge's weight is an integer of at most 53 - bits(n) bits, so the
    sums of at most n of them are exact in double precision and the split
    does not depend on summation order.  Two states with different entries
    collide only by chance; the weights come from random.Random(0), so the
    partition of a given K is reproducible.
    """
    bits = (53 - n.bit_length()) // 2
    rng = random.Random(0)

    def draw(count: int) -> np.ndarray:  # integers in [1, 2^bits], as floats
        raw = np.frombuffer(rng.randbytes(8 * count), dtype=np.uint64)
        return (raw >> np.uint64(64 - bits)).astype(float) + 1

    # the distinct values by sort, not np.unique: numpy 2.4 runs that on a hash
    # table whose first call adds about 1.4 MB to a short CLI process's RSS
    values = np.sort(w)
    values = values[np.concatenate([[True], values[1:] != values[:-1]])]
    weight = draw(len(values))[np.searchsorted(values, w)]
    first = np.searchsorted(rows, np.arange(n + 1))  # each state's first edge
    some = first[:-1] < first[1:]  # the states with an edge out
    first = first[:-1][some]
    cell = np.zeros(n, dtype=np.intp)
    k = 1
    while True:
        h = draw(k)[cell]
        out = np.zeros(n)
        out[some] = np.add.reduceat(weight * h[cols], first)
        into = np.bincount(cols, weight * h[rows], n)
        order = np.lexsort((into, out, cell))
        c, o, i = cell[order], out[order], into[order]
        split = (c[1:] != c[:-1]) | (o[1:] != o[:-1]) | (i[1:] != i[:-1])
        new = np.concatenate([[0], split.cumsum()])
        if new[-1] + 1 == k:
            return cell, k
        k = int(new[-1]) + 1
        cell = np.empty(n, dtype=np.intp)
        cell[order] = new


def _lifted_starts(rows, cols, w, cell, k: int) -> tuple:
    """(right start, left start, products) for the power iterations on the
    n x n matrix K with entries w at (rows, cols), from the partition of its
    states into k cells: the Perron vectors of the quotients S[A, B] / |A|
    and S^T[B, A] / |B|, S[A, B] the sum of K over A x B, each scaled to max
    1 and lifted by cell; none for a discrete partition (k = n).  Both come
    from one power iteration on the block-diagonal matrix of the quotients,
    two products a step: with D = diag(|A|), D^-1 S^T = (S D^-1)^T and
    S D^-1 = D (D^-1 S) D^-1, so the blocks share a spectrum and converge
    together, and PF_TOL on the bracket of all 2k ratios certifies each."""
    if k == len(cell):
        return None, None, 0
    size = np.bincount(cell, minlength=k)
    # dense k x k: k < n, and over every multiplicity pattern of 7 leaves the
    # most cells a chain of build_graph has is 1 840 (a,a,a,b,b,c,d; 27 MB)
    S = np.bincount(cell[rows] * k + cell[cols], w, k * k)  # flat, by row
    at = np.flatnonzero(S != 0)  # faster than a scan over the floats
    q_rows, q_cols = np.divmod(at, k)
    t_rows, t_cols, t_S = _transposed(q_rows, q_cols, S[at], k)
    v, _, _, steps = _perron_vector(
        np.concatenate([q_rows, t_rows + k]),
        np.concatenate([q_cols, t_cols + k]),
        np.concatenate([S[at] / size[q_rows], t_S / size[t_rows]]),
        2 * k,
    )
    right, left = v[:k], v[k:]
    return (right / right.max())[cell], (left / left.max())[cell], 2 * steps


def _transposed(rows, cols, w, n: int) -> tuple:
    """The reversed edges of unique, row-sorted edge arrays over n states,
    sorted by new row, then column: a stable sort of the columns keeps each
    column's rows in order, and in the least unsigned type that holds n
    numpy radix-sorts them (n up to 65 535)."""
    order = np.argsort(cols.astype(np.min_scalar_type(n)), kind="stable")
    return cols[order], rows[order], w[order]


def _perron_vector(rows, cols, w, n: int, start=None):
    """Perron vector (max 1) of the n x n matrix with entries w at (rows, cols),
    edges sorted by row and every row nonempty, as strong connectivity gives,
    iterated from start (positive, max 1) or from ones.

    Returns the vector, its ratios (Kv)_i / v_i, their relative gap and the
    number of matrix-vector steps taken.
    """
    starts = np.searchsorted(rows, np.arange(n))  # each row's first edge
    v = np.ones(n) if start is None else start
    lo = hi = math.nan
    # an entry of v or Kv that underflows to 0 shows as a ratio of 0, x/0 or 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1, PF_MAX_ITER + 1):
            Kv = np.add.reduceat(w * v[cols], starts)
            ratios = Kv / v
            lo, hi = ratios.min(), ratios.max()
            if not (lo > 0 and hi < math.inf):
                raise MarkovError(
                    f"Perron vector underflowed at power-iteration step {step}: its "
                    f"entries span more than double precision holds"
                )
            if hi - lo <= PF_TOL * lo:
                return v, ratios, float((hi - lo) / lo), step
            Kv += v
            v = Kv / Kv.max()
    raise MarkovError(
        f"power iteration stalled after {PF_MAX_ITER} steps: Collatz-Wielandt bracket "
        f"[{lo:.12g}, {hi:.12g}] has relative gap {(hi - lo) / lo:.2e} > tol {PF_TOL:g}"
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


def _fit_exponent(form, a, b, c) -> float:
    """The slope of log xi[3] against log t between t = 1e-6 and 1e-5."""
    lo, hi = 1e-6, 1e-5
    y_lo = form(a, b, c, lo)["xi"][3]
    y_hi = form(a, b, c, hi)["xi"][3]
    return math.log(y_hi / y_lo) / math.log(hi / lo)


def asymptotic_check(regime: str) -> dict:
    """Behavior of the stationary distribution at the ends of t.

    Verifies the t->0 limit (uniform 1/3 on the connected structures) and
    the t->1 limit (uniform 1/6 overall), and fits the small-t exponent of
    the disconnected-sector probability.  The asserted slopes (5/6 for ms, 3
    for cl, 17/6 for total) belong to the series variant of the closed form;
    the structured closed-form slopes (1/3, 2, 7/3) are reported alongside.
    """
    if regime not in ("ms", "cl", "total"):
        raise MarkovError("asymptotics cover the ms / cl / total regimes")
    a, b, c = REGIME_EXPONENTS[regime]
    t0 = series_closed_form(a, b, c, 1e-12)["xi"]
    t1 = series_closed_form(a, b, c, 1.0 - 1e-6)["xi"]
    slope_series = _fit_exponent(series_closed_form, a, b, c)
    return {
        "t0_limit_ok": bool(
            np.allclose(t0[:3], 1 / 3, atol=1e-6) and np.allclose(t0[3:], 0.0, atol=1e-6)
        ),
        "t1_limit_ok": bool(np.allclose(t1, 1 / 6, atol=1e-6)),
        "series_exponent": slope_series,
        "series_exponent_ok": bool(abs(slope_series - float(SERIES_T0_EXPONENT[regime])) <= 0.05),
        "exact_exponent": _fit_exponent(structured_closed_form, a, b, c),
    }


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
    """The CLI's view of PFData: lambda, eta and xi; whether K_hat is also
    column-stochastic (bistochastic, to 1e-10); the cell count of the
    lumped start (cells, n when it was discrete); the products of all power
    iterations (iterations); and the final relative gap on K (residual)."""
    col_sums = np.bincount(pf.cols, pf.hat, len(pf.eta))
    return {
        "lambda": pf.lam,
        "eta": pf.eta.tolist(),
        "xi": pf.xi.tolist(),
        "bistochastic": bool(np.allclose(col_sums, 1.0, atol=1e-10)),
        "cells": pf.cells,
        "iterations": pf.iterations,
        "residual": pf.residual,
    }
