"""Formal linear combinations and coproducts.

Two coproducts act on workspaces of binary trees: extraction of disjoint
accessible terms paired with either the contraction quotient (mode "c",
traces kept) or the deletion quotient (mode "d", copies removed).  On the
side of arbitrary-arity trees with labeled internal vertices lives the
admissible-cut coproduct, its grafting operators, and the cocycle checks.

Coefficients are plain ints: every coproduct, cut and product here counts
terms, and nothing in this module touches floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from mergespace.forest import (
    ForestError,
    Leaf,
    Node,
    SyntaxTree,
    Workspace,
    accessible_terms,
    leaf,
    nested,
    quotient,
    workspace,
)

UNIT = Workspace(())


class LinComb:
    """Sparse linear combination.

    Terms can be anything hashable (workspaces, CK forests, trees).  Each
    coefficient is kept as the caller gives it (an int, or a Fraction that
    stays exact).  Zero coefficients are never stored; equality is
    term-by-term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for t, coef in terms.items() if isinstance(terms, dict) else terms:
                self.add(t, coef)

    @classmethod
    def of(cls, term, coef=1):
        lc = cls()
        lc.add(term, coef)
        return lc

    def add(self, term, coef=1) -> None:
        new = self.terms.get(term, 0) + coef
        if new:
            self.terms[term] = new
        else:
            self.terms.pop(term, None)

    def __add__(self, other: "LinComb") -> "LinComb":
        out = type(self)(self.terms)
        for t, c in other.terms.items():
            out.add(t, c)
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        out = type(self)(self.terms)
        for t, c in other.terms.items():
            out.add(t, -c)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{t!r}" for t, c in self)


class TensorComb(LinComb):
    """Linear combination of ordered pairs (left, right)."""

    @classmethod
    def pure(cls, left, right, coef=1):
        tc = cls()
        tc.add((left, right), coef)
        return tc

    def product(self, other: "TensorComb", mul: Callable) -> "TensorComb":
        """Componentwise product: (x1 (x) y1)(x2 (x) y2) = x1x2 (x) y1y2."""
        out = TensorComb()
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                out.add((mul(x1, x2), mul(y1, y2)), c1 * c2)
        return out


def ws_union(a: Workspace, b: Workspace) -> Workspace:
    return Workspace(a.components + b.components)


def _multiplicative(parts, unit, union: Callable) -> TensorComb:
    """The product of per-tree coproducts: a coproduct multiplicative over
    disjoint union, which is 1 (x) 1 on the empty forest."""
    out = TensorComb.pure(unit, unit)
    for part in parts:
        out = out.product(part, union)
    return out


# ---------------------------------------------------------------------------
# coproduct on workspaces

def _disjoint_collections(refs: list) -> Iterator[list]:
    """All sets of pairwise non-nested accessible-term refs (incl. empty)."""

    def conflicts(r, chosen):
        return any(r.component == s.component and nested(r.path, s.path) for s in chosen)

    def rec(i, chosen):
        if i == len(refs):
            yield list(chosen)
            return
        yield from rec(i + 1, chosen)
        if not conflicts(refs[i], chosen):
            chosen.append(refs[i])
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def _tree_coproduct(t: SyntaxTree, mode: str) -> TensorComb:
    ws = workspace(t)
    out = TensorComb()
    for cut in _disjoint_collections(accessible_terms(ws)):
        left = Workspace(tuple(r.subtree for r in cut))
        right = quotient(ws, cut, mode)
        out.add((left, right), 1)
    out.add((ws, UNIT), 1)  # whole-component split
    return out


def coproduct(ws: Workspace, mode: str) -> TensorComb:
    """Extraction-of-accessible-terms coproduct, multiplicative over disjoint
    union.  Terms are pairs (extracted forest, quotient workspace); the empty
    cut and the whole-component split are included."""
    if mode not in ("c", "d"):
        raise ForestError(f"unknown coproduct mode {mode!r}")
    return _multiplicative((_tree_coproduct(t, mode) for t in ws.components), UNIT, ws_union)


# ---------------------------------------------------------------------------
# arbitrary-arity labeled trees and the admissible-cut coproduct

@dataclass(frozen=True)
class CKTree:
    """Rooted tree of arbitrary arity; every vertex carries a label (or None).

    Children are unordered: stored sorted by canonical key.
    """

    label: Optional[str]
    children: tuple = ()
    key: str = field(init=False, compare=False)
    size: int = field(init=False, compare=False)  # vertex count

    def __post_init__(self):
        kids = tuple(sorted(self.children, key=lambda t: t.key))
        object.__setattr__(self, "children", kids)
        lab = self.label if self.label is not None else "•"
        object.__setattr__(self, "key", lab + "[" + "|".join(k.key for k in kids) + "]")
        object.__setattr__(self, "size", 1 + sum(k.size for k in kids))

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


@dataclass(frozen=True)
class CKForest:
    trees: tuple = ()
    key: str = field(init=False, compare=False)

    def __post_init__(self):
        ts = tuple(sorted(self.trees, key=lambda t: t.key))
        object.__setattr__(self, "trees", ts)
        object.__setattr__(self, "key", "⊔".join(t.key for t in ts) or "1")

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key

    def is_unit(self) -> bool:
        return not self.trees

    @property
    def size(self) -> int:
        return sum(t.size for t in self.trees)


CK_UNIT = CKForest(())


def ck_forest(*trees: CKTree) -> CKForest:
    return CKForest(tuple(trees))


def ck_union(a: CKForest, b: CKForest) -> CKForest:
    return CKForest(a.trees + b.trees)


def graft_B(f: CKForest, root_label: Optional[str] = None) -> CKTree:
    """New root (optionally labeled) over the forest; the empty forest grafts
    to a single vertex."""
    return CKTree(root_label, f.trees)


def _tree_admissible_cuts(t: CKTree) -> Iterator[tuple]:
    """Yield (pruned forest, kept tree) over admissible cuts: at most one cut
    edge on any root path.  Cutting an edge sends that whole subtree to the
    pruned side, so no further cuts happen below it."""
    child_options = []
    for ch in t.children:
        opts = [((ch,), None)]  # cut the edge above ch
        for pi, rho in _tree_admissible_cuts(ch):
            opts.append((pi, rho))
        child_options.append(opts)
    for combo in itertools.product(*child_options):
        pruned: tuple = ()
        kept = []
        for pi, rho in combo:
            pruned += pi
            if rho is not None:
                kept.append(rho)
        yield pruned, CKTree(t.label, tuple(kept))


def _ck_tree_coproduct(t: CKTree) -> TensorComb:
    out = TensorComb()
    for pruned, kept in _tree_admissible_cuts(t):
        out.add((CKForest(pruned), CKForest((kept,))), 1)
    out.add((CKForest((t,)), CK_UNIT), 1)  # full cut
    return out


def ck_coproduct(f: CKForest) -> TensorComb:
    """Admissible-cut coproduct on labeled arbitrary-arity forests, including
    the empty cut (1 (x) F) and the full cut (F (x) 1); multiplicative over
    disjoint union."""
    return _multiplicative(map(_ck_tree_coproduct, f.trees), CK_UNIT, ck_union)


def ck_counit_check(f: CKForest) -> bool:
    """(eps (x) id) Delta = id on the given forest."""
    collapsed = LinComb()
    for (x, y), c in ck_coproduct(f).terms.items():
        if x.is_unit():
            collapsed.add(y, c)
    return collapsed == LinComb.of(f)


def _ck_forests(n: int, alphabet, memo: dict) -> list:
    """All labeled forests with exactly n vertices, sorted by key; memo maps
    each vertex count done so far to its list.  Each forest is built once: its
    key-least tree beside a forest whose trees are all no less."""
    if n not in memo:
        found = [CK_UNIT] if n == 0 else []
        for k in range(1, n + 1):
            for lab in alphabet:
                for kids in _ck_forests(k - 1, alphabet, memo):
                    t = CKTree(lab, kids.trees)
                    found += (
                        CKForest((t,) + rest.trees)
                        for rest in _ck_forests(n - k, alphabet, memo)
                        if not rest.trees or rest.trees[0].key >= t.key
                    )
        memo[n] = sorted(found, key=lambda f: f.key)
    return memo[n]


def enumerate_ck_trees(n_vertices: int, alphabet) -> list:
    """All labeled arbitrary-arity trees with exactly n vertices."""
    if n_vertices < 1:
        return []
    labels = tuple(dict.fromkeys(alphabet))
    return [CKTree(lab, f.trees) for lab in labels for f in _ck_forests(n_vertices - 1, labels, {})]


def enumerate_ck_forests(max_vertices: int, alphabet) -> list:
    """All labeled forests with 0 < size <= max_vertices, plus the unit,
    sorted by (size, key)."""
    labels, memo = tuple(dict.fromkeys(alphabet)), {}
    return [f for n in range(max(max_vertices, 0) + 1) for f in _ck_forests(n, labels, memo)]


def cocycle_defect(f: CKForest, root_label: Optional[str], grafter=None) -> TensorComb:
    """Delta(B(F)) - B(F) (x) 1 - (id (x) B)(Delta(F)); zero iff the cocycle
    identity holds for this forest."""
    B = grafter or (lambda fr: graft_B(fr, root_label))
    grafted = CKForest((B(f),))
    defect = ck_coproduct(grafted)
    defect.add((grafted, CK_UNIT), -1)
    for (x, y), c in ck_coproduct(f).terms.items():
        defect.add((x, CKForest((B(y),))), -c)
    return defect


def verify_cocycle(max_vertices: int, alphabet=("a", "b"), grafter=None) -> dict:
    """Check the grafting cocycle identity for every forest up to the size
    bound, for every root label; exact equality, no tolerance."""
    if max_vertices < 0:
        raise ForestError("max_vertices must be >= 0")
    checked = 0
    for f in enumerate_ck_forests(max_vertices, alphabet):
        for lab in alphabet:
            defect = cocycle_defect(f, lab, grafter=grafter)
            checked += 1
            if defect:
                witness = next(iter(defect))
                return {
                    "ok": False,
                    "checked": checked,
                    "counterexample": {"forest": f, "label": lab, "term": witness},
                }
    return {"ok": True, "checked": checked, "counterexample": None}


def perturbed_grafter(root_label: str):
    """Deliberately wrong grafting: when possible, hangs the forest under the
    first child of a new two-vertex stem instead of directly under the root."""

    def B_bad(f: CKForest) -> CKTree:
        inner = CKTree(root_label, f.trees)
        return CKTree(root_label, (inner,)) if f.trees else CKTree(root_label)

    return B_bad


# ---------------------------------------------------------------------------
# edge insertions (grow-at-an-edge, never reachable from the merge engine)

EC_VIOLATING = "insertion operators grow structure at non-root edges"


def _insert_at_all_edges(t: SyntaxTree, alpha: str) -> list:
    out = []

    def rec(cur, path):
        # one edge above every non-root vertex
        if path:
            out.append(path)
        if isinstance(cur, Node):
            rec(cur.left, path + (0,))
            rec(cur.right, path + (1,))

    rec(t, ())

    def rebuild(cur, path, target):
        if path == target:
            return Node(cur, leaf(alpha))
        if isinstance(cur, Leaf):
            return cur
        return Node(
            rebuild(cur.left, path + (0,), target),
            rebuild(cur.right, path + (1,), target),
        )

    return [rebuild(t, (), p) for p in out]


def insertion_delta(target: SyntaxTree, alpha: str) -> LinComb:
    """Sum over edges of the tree obtained by splitting the edge with a new
    vertex carrying a new leaf.  This is the dual pre-Lie insertion; it is
    EC-violating and lives only here, never in the merge engine."""
    if isinstance(target, Leaf):
        raise ForestError("insertion needs a target with at least one edge")
    return insertion_delta_ws(workspace(target), alpha)


def insertion_delta_ws(ws: Workspace, alpha: str) -> LinComb:
    """Insertion extended to workspaces; a derivation for the product: the
    edge lies in exactly one component."""
    out = LinComb()
    for i, comp in enumerate(ws.components):
        if isinstance(comp, Leaf):
            continue
        for t in _insert_at_all_edges(comp, alpha):
            comps = ws.components[:i] + (t,) + ws.components[i + 1 :]
            out.add(Workspace(comps), 1)
    return out


def insertion_cocycle_defect(t: SyntaxTree, alpha: str) -> TensorComb:
    """Delta^c(delta(T)) - delta(T) (x) 1 - (id (x) delta)(Delta^c(T));
    nonzero in general, witnessing that insertions are not cocycles."""
    delta_t = insertion_delta(t, alpha)
    lhs = TensorComb()
    for w, c in delta_t.terms.items():
        for pair, d in coproduct(w, "c").terms.items():
            lhs.add(pair, c * d)
    rhs = TensorComb()
    for w, c in delta_t.terms.items():
        rhs.add((w, UNIT), c)
    for (x, y), c in coproduct(workspace(t), "c").terms.items():
        img = insertion_delta_ws(y, alpha)
        for w, d in img.terms.items():
            rhs.add((x, w), c * d)
    return lhs - rhs
