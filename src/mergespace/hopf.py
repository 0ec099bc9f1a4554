"""Coproducts on workspaces and on labeled forests.

Two coproducts act on workspaces of binary trees: extraction of disjoint
accessible terms paired with either the contraction quotient (mode "c",
traces kept) or the deletion quotient (mode "d", copies removed).  On the
side of arbitrary-arity trees with labeled internal vertices lives the
admissible-cut coproduct, its grafting operators, and the cocycle checks.

A linear combination is a plain dict from term to nonzero int coefficient:
every coproduct, cut and product here counts terms, and nothing in this
module touches floats.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, product
from operator import attrgetter
from typing import Optional

from mergespace.forest import (
    ForestError,
    Leaf,
    Node,
    SyntaxTree,
    Workspace,
    _Frozen,
    _by_key,
    _set,
    leaf,
    trace_leaf,
    workspace,
)

UNIT = Workspace(())


def ws_union(a: Workspace, b: Workspace) -> Workspace:
    return Workspace(a.components + b.components)


# ---------------------------------------------------------------------------
# coproduct on workspaces

def _kept_cuts(t: SyntaxTree, mode: str) -> list:
    """(extracted trees, quotient tree or None) for every set of pairwise
    non-nested accessible terms of t, t's root kept.  Each child of a vertex
    is kept, cut inside (its own list), or, when it holds a live leaf,
    extracted whole: mode "c" leaves a trace leaf in its place, mode "d"
    removes it and contracts the vertex left with one child, so a vertex
    whose children both go goes too (None)."""
    if isinstance(t, Leaf):
        return [((), t)]
    options = []
    for child in (t.left, t.right):
        cuts = _kept_cuts(child, mode)
        if child.leaves:
            cuts.append(((child,), trace_leaf(child.key) if mode == "c" else None))
        options.append(cuts)
    return [
        (xl + xr, qr if ql is None else ql if qr is None else Node(ql, qr))
        for (xl, ql), (xr, qr) in product(*options)
    ]


def coproduct(ws: Workspace, mode: str) -> dict:
    """Extraction-of-accessible-terms coproduct, multiplicative over disjoint
    union.  Terms are pairs (extracted forest, quotient workspace); the empty
    cut and the whole-component split are included.  Each term joins one
    term of every component's list: its kept-root cuts, then the split that
    extracts it whole."""
    if mode not in ("c", "d"):
        raise ForestError(f"unknown coproduct mode {mode!r}")
    per_tree = [_kept_cuts(t, mode) + [((t,), None)] for t in ws.components]
    return dict(
        Counter(
            (
                Workspace(tuple(chain.from_iterable(x for x, _ in terms))),
                Workspace(tuple(q for _, q in terms if q is not None)),
            )
            for terms in product(*per_tree)
        )
    )


# ---------------------------------------------------------------------------
# arbitrary-arity labeled trees and the admissible-cut coproduct

class CKTree(_Frozen):
    """Rooted tree of arbitrary arity; every vertex carries a label (or None).

    Children are unordered: stored sorted by canonical key.  Hashed by key;
    equal when the labels and the children are.  The tree's cut list, its
    full cut and admissible cuts, is computed on first use and kept in the
    ``_cuts`` slot, unset until then, so a tree shared by many forests is
    cut once.
    """

    __slots__ = ("label", "children", "key", "_cuts")

    def __init__(self, label: Optional[str], children: tuple = ()):
        kids = tuple(sorted(children, key=_by_key) if len(children) > 1 else children)
        _set(self, "label", label)
        _set(self, "children", kids)
        _set(self, "key", ("•" if label is None else label) + "[" + "|".join(map(_by_key, kids)) + "]")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key and self.label == other.label and self.children == other.children

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


class CKForest(_Frozen):
    """Multiset of CKTrees, stored sorted by key; the empty forest is the
    unit.  Hashed by key; equal when the trees are."""

    __slots__ = ("trees", "key")

    def __init__(self, trees: tuple = ()):
        if len(trees) > 1:
            trees = sorted(trees, key=_by_key)
            key = "⊔".join(map(_by_key, trees))
        else:
            key = trees[0].key if trees else "1"
        _set(self, "trees", tuple(trees))
        _set(self, "key", key)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key and self.trees == other.trees

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


CK_UNIT = CKForest(())


def graft_B(f: CKForest, root_label: Optional[str] = None) -> CKTree:
    """New root (optionally labeled) over the forest; the empty forest grafts
    to a single vertex."""
    return CKTree(root_label, f.trees)


def _cut_list(t: CKTree) -> list:
    """The terms of the coproduct of t, computed once and then read from its
    slot."""
    try:
        return t._cuts
    except AttributeError:
        cuts = _tree_admissible_cuts(t)
        _set(t, "_cuts", cuts)
        return cuts


def _tree_admissible_cuts(t: CKTree) -> list:
    """(pruned forest, kept forest) for the full cut of t, then for each
    admissible cut: at most one cut edge on any root path.  Cutting the edge
    above a child sends that whole subtree to the pruned side, which is the
    child's full cut, so each child's options are its own cut list.  The cut
    that prunes nothing keeps t itself.  One term may come more than once."""
    alone = CKForest((t,))
    out = [(alone, CK_UNIT)]
    for pruned, kept in map(_parts, product(*map(_cut_list, t.children))):
        if pruned:
            kept_tree = CKTree(t.label, [y.trees[0] for y in kept])
            out.append((_union(pruned), CKForest((kept_tree,))))
        else:
            out.append((CK_UNIT, alone))
    return out


def _parts(terms) -> tuple:
    """The non-empty pruned forests and kept forests of one term per tree."""
    pruned, kept = [], []
    for x, y in terms:
        if x.trees:
            pruned.append(x)
        if y.trees:
            kept.append(y)
    return pruned, kept


_by_trees = attrgetter("trees")


def _union(forests: list) -> CKForest:
    """Disjoint union of non-empty forests; the union of one is itself."""
    if len(forests) < 2:
        return forests[0] if forests else CK_UNIT
    return CKForest(tuple(chain.from_iterable(map(_by_trees, forests))))


def ck_coproduct(f: CKForest) -> dict:
    """Admissible-cut coproduct on labeled arbitrary-arity forests, including
    the empty cut (1 (x) F) and the full cut (F (x) 1); multiplicative over
    disjoint union: each term joins one term of every tree's cut list."""
    if len(f.trees) == 1:
        terms = _cut_list(f.trees[0])
    else:
        combos = map(_parts, product(*map(_cut_list, f.trees)))
        terms = [(_union(pruned), _union(kept)) for pruned, kept in combos]
    return dict(Counter(terms))


def enumerate_ck_forests(max_vertices: int, alphabet) -> list:
    """All labeled forests with 0 < size <= max_vertices, plus the unit,
    sorted by (size, key).  Each tree is built once, as a label over a
    smaller forest, and shared by every forest that holds it; each forest is
    built once, as its key-least tree beside a forest whose trees are all no
    less."""
    labels = tuple(dict.fromkeys(alphabet))
    trees: list = [[]]  # trees[k]: the trees with k vertices
    forests = [[CK_UNIT]]  # forests[n]: the forests with n vertices, by key
    for n in range(1, max(max_vertices, 0) + 1):
        trees.append([CKTree(lab, kids.trees) for lab in labels for kids in forests[n - 1]])
        found = [
            CKForest((t,) + rest.trees)
            for k in range(1, n + 1)
            for t in trees[k]
            for rest in forests[n - k]
            if not rest.trees or rest.trees[0].key >= t.key
        ]
        forests.append(sorted(found, key=_by_key))
    return [f for level in forests for f in level]


def _difference(p: dict, q: dict) -> dict:
    """p - q, zero coefficients dropped."""
    out = Counter(p)
    out.subtract(q)
    return {t: c for t, c in out.items() if c}


def cocycle_defect(f: CKForest, B) -> dict:
    """Delta(B(F)) - B(F) (x) 1 - (id (x) B)(Delta(F)) for the grafting B;
    empty iff the cocycle identity holds for this forest."""
    grafted = CKForest((B(f),))
    rhs = Counter({(grafted, CK_UNIT): 1})
    for (x, y), c in ck_coproduct(f).items():
        rhs[x, CKForest((B(y),))] += c
    lhs, rhs = ck_coproduct(grafted), dict(rhs)
    return {} if lhs == rhs else _difference(lhs, rhs)


def verify_cocycle(max_vertices: int, grafter=None) -> dict:
    """Check the grafting cocycle identity for every forest over the labels
    a and b up to the size bound, for every root label; exact equality, no
    tolerance."""
    if max_vertices < 0:
        raise ForestError("max_vertices must be >= 0")
    forests = enumerate_ck_forests(max_vertices, "ab")
    # a grafted tree the enumerator already built is that tree, so each
    # distinct tree is cut once
    built = {t.key: t for f in forests for t in f.trees}

    def interned(t: CKTree) -> CKTree:
        old = built.get(t.key)
        return old if old is not None and old == t else t

    checked = 0
    for f in forests:
        for lab in "ab":
            B = grafter or partial(graft_B, root_label=lab)
            defect = cocycle_defect(f, lambda fr: interned(B(fr)))
            checked += 1
            if defect:
                witness = min(defect.items(), key=lambda kv: repr(kv[0]))
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

def _inserted(t: SyntaxTree, new: Leaf) -> list:
    """t once for each edge, the edge split by a vertex that carries new:
    each child either gets the new vertex above it or passes the insertion
    down, and is joined to its sibling."""
    if isinstance(t, Leaf):
        return []
    return [
        Node(x, sibling)
        for child, sibling in ((t.left, t.right), (t.right, t.left))
        for x in [Node(child, new)] + _inserted(child, new)
    ]


def insertion_delta(target: SyntaxTree, alpha: str) -> dict:
    """Sum over edges of the tree obtained by splitting the edge with a new
    vertex carrying a new leaf.  This is the dual pre-Lie insertion; it is
    EC-violating and lives only here, never in the merge engine."""
    if isinstance(target, Leaf):
        raise ForestError("insertion needs a target with at least one edge")
    return insertion_delta_ws(workspace(target), alpha)


def insertion_delta_ws(ws: Workspace, alpha: str) -> dict:
    """Insertion extended to workspaces; a derivation for the product: the
    edge lies in exactly one component."""
    new = leaf(alpha)
    comps = ws.components
    return dict(
        Counter(
            Workspace(comps[:i] + (t,) + comps[i + 1 :])
            for i, comp in enumerate(comps)
            for t in _inserted(comp, new)
        )
    )


def insertion_cocycle_defect(t: SyntaxTree, alpha: str) -> dict:
    """Delta^c(delta(T)) - delta(T) (x) 1 - (id (x) delta)(Delta^c(T));
    nonzero in general, witnessing that insertions are not cocycles."""
    lhs, rhs = Counter(), Counter()
    for w, c in insertion_delta(t, alpha).items():
        rhs[w, UNIT] += c
        for pair, d in coproduct(w, "c").items():
            lhs[pair] += c * d
    for (x, y), c in coproduct(workspace(t), "c").items():
        for w, d in insertion_delta_ws(y, alpha).items():
            rhs[x, w] += c * d
    return _difference(lhs, rhs)
