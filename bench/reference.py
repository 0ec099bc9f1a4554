"""Independent references for the benchmark's output checks.

Nothing here calls into ``mergespace``: the counts and tables below are
derived from the tree shapes alone, so a defect in the program cannot make
its own check pass.  Trees use the CLI's JSON encoding: a leaf is a label
string, a trace leaf is ``{"trace": key}`` and a vertex is ``["M", l, r]``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from math import comb

import numpy as np

# (db0, dalpha, dsigma) of one Merge step, per tag and coproduct mode, as
# published; a sideward cut of both edges below one vertex in mode "c" also
# drops that vertex from alpha, hence its own row.
RR_ROWS = {
    ("EM", "c"): (-1, 2, 1),
    ("EM", "d"): (-1, 2, 1),
    ("IM", "c"): (0, 1, 1),
    ("IM", "d"): (0, 0, 0),
    ("SM1", "c"): (0, 1, 1),
    ("SM1", "d"): (0, 0, 0),
    ("SM2", "c"): (1, 0, 1),
    ("SM2", "d"): (1, -2, -1),
    ("SM3", "c"): (1, 0, 1),
    ("SM3", "d"): (1, -2, -1),
    ("ID", "c"): (1, 0, 1),
    ("ID", "d"): (0, 0, 0),
}
SIBLING_CUT_ROW_C = (1, -1, 0)

# Published step totals of the full deletion-mode chain (IM on, no extras).
CHAIN_STEPS = {5: 4710, 6: 71025}


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def forest_count(n: int) -> int:
    """Forests with at least one edge over n distinct labels.

    A forest is a set partition whose blocks carry non-planar binary trees,
    (2k-3)!! of them on k leaves; the recurrence picks the block of the first
    label, then drops the all-singleton forest.
    """
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(
            comb(m - 1, k - 1) * (_double_factorial(2 * k - 3) if k > 1 else 1) * a[m - k]
            for k in range(1, m + 1)
        )
    return a[n] - 1


def _is_vertex(t) -> bool:
    return isinstance(t, list)


def _live(t) -> int:
    if isinstance(t, str):
        return 1
    if isinstance(t, dict):
        return 0
    return _live(t[1]) + _live(t[2])


def _terms(t, path=()):
    """(path, is_leaf) of every non-root vertex holding a live leaf."""
    if not _is_vertex(t):
        return
    for i, child in enumerate((t[1], t[2])):
        if _live(child):
            yield path + (i,), isinstance(child, str)
        yield from _terms(child, path + (i,))


def leaf_multiset(ws) -> Counter:
    out: Counter = Counter()
    stack = list(ws)
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out[t] += 1
        elif _is_vertex(t):
            stack.extend((t[1], t[2]))
    return out


def resource_profile(ws) -> tuple:
    """(b0, alpha, sigma): components, non-root vertices with a live leaf."""
    b0 = len(ws)
    alpha = sum(1 for t in ws for _ in _terms(t))
    return b0, alpha, alpha + b0


def successor_counts(ws, mode: str, im=True, sm=True, identity=False,
                     sibling_cut=False, atomic=False) -> Counter:
    """Distinct one-step Merge applications by tag, counted from the shapes.

    ``SM3-sibling`` counts the SM3 cuts of both edges below one non-root
    vertex (included in ``SM3``).  Assumes a trace-free workspace.
    """
    b = len(ws)
    terms = [list(_terms(t)) for t in ws]
    out: Counter = Counter()
    out["EM"] = comb(b, 2)
    if im:
        out["IM"] = sum(1 for ts in terms for p, _ in ts if mode == "c" or len(p) >= 2)
    if sm:
        usable = [[x for x in ts if x[1] or not atomic] for ts in terms]
        out["SM1"] = sum(len(u) for u in usable) * (b - 1)
        if not atomic:
            sizes = [len(ts) for ts in terms]
            out["SM2"] = sum(sizes[i] * sizes[j] for i in range(b) for j in range(i + 1, b))
        for u in usable:
            for x in range(len(u)):
                for y in range(x + 1, len(u)):
                    p, q = u[x][0], u[y][0]
                    n = min(len(p), len(q))
                    if p[:n] == q[:n]:
                        continue  # nested terms are not disjoint
                    if len(p) == len(q) and p[:-1] == q[:-1]:
                        if len(p) == 1 or not sibling_cut:
                            continue
                        out["SM3-sibling"] += 1
                    out["SM3"] += 1
    if identity:
        out["ID"] = sum(1 for t in ws if _is_vertex(t))
    return +out


def chain_step_count(forests_json, **flags) -> int:
    """Total deletion-mode successor steps over a list of forests."""
    return sum(
        sum(v for k, v in successor_counts(ws, "d", **flags).items() if k != "SM3-sibling")
        for ws in forests_json
    )


class EigenReference:
    """Largest real part of ``numpy.linalg.eigvals(K)``, cached by content,
    so a matrix seen again in a later pass is not factorised twice."""

    def __init__(self):
        self._cache: dict = {}

    def lam(self, K: np.ndarray) -> float:
        K = np.ascontiguousarray(K, dtype=float)
        key = (K.shape, hashlib.sha1(K.tobytes()).hexdigest())
        if key not in self._cache:
            self._cache[key] = float(np.linalg.eigvals(K).real.max())
        return self._cache[key]
