"""Canonical non-planar binary labeled trees and workspaces.

A syntactic object is a binary rooted tree with labeled leaves, considered up
to reordering of children everywhere (non-planar).  A workspace is a multiset
of such trees.  Equality is by canonical key: a node's key is the sorted pair
of its children's keys, so two trees get the same key iff they are isomorphic
as unordered trees.

Trace leaves mark cancelled deeper copies.  They remember the canonical key of
the subtree they replaced and are invisible to all size counts (leaf count,
accessible terms, degree).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = [
    "Leaf",
    "Node",
    "SyntaxTree",
    "Workspace",
    "AccessibleTermRef",
    "leaf",
    "node",
    "trace_leaf",
    "workspace",
    "accessible_terms",
    "subtree_at",
    "nested",
    "tree_quotient",
    "quotient",
    "enumerate_trees",
    "enumerate_forests",
    "double_factorial",
    "forest_count",
    "tree_to_json",
    "tree_from_json",
    "workspace_to_json",
    "workspace_from_json",
]

# Reserved by the key encoding; labels must avoid them.
_RESERVED = set("(|)~⊔ ")


class ForestError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    """A labeled leaf.  ``trace=True`` marks a cancelled copy; ``name`` then
    holds the canonical key of the cancelled subtree."""

    name: str
    trace: bool = False
    key: str = field(init=False, compare=False)
    leaves: int = field(init=False, compare=False)  # non-trace leaf count
    alpha: int = field(init=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ForestError("empty leaf label")
        if not self.trace and _RESERVED & set(self.name):
            raise ForestError(f"label {self.name!r} uses a reserved character")
        object.__setattr__(self, "key", "~" + self.name + "~" if self.trace else self.name)
        object.__setattr__(self, "leaves", 0 if self.trace else 1)
        object.__setattr__(self, "alpha", 0)

    def __hash__(self):
        return hash((self.name, self.trace))

    def __repr__(self):
        return self.key


@dataclass(frozen=True)
class Node:
    """Internal binary vertex; children are stored sorted by canonical key."""

    left: "SyntaxTree"
    right: "SyntaxTree"
    key: str = field(init=False, compare=False)
    leaves: int = field(init=False, compare=False)
    alpha: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.left.key > self.right.key:
            l, r = self.right, self.left
            object.__setattr__(self, "left", l)
            object.__setattr__(self, "right", r)
        object.__setattr__(self, "key", "(" + self.left.key + "|" + self.right.key + ")")
        object.__setattr__(self, "leaves", self.left.leaves + self.right.leaves)
        # alpha counts non-root vertices whose subtree still holds a live leaf
        a = self.left.alpha + self.right.alpha
        a += 1 if self.left.leaves > 0 else 0
        a += 1 if self.right.leaves > 0 else 0
        object.__setattr__(self, "alpha", a)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


SyntaxTree = Union[Leaf, Node]


def leaf(name: str) -> Leaf:
    return Leaf(name)


def trace_leaf(cancelled_key: str) -> Leaf:
    return Leaf(cancelled_key, trace=True)


def node(left: SyntaxTree, right: SyntaxTree) -> Node:
    """Merge two trees; child order is canonicalized, so node(a, b) == node(b, a)."""
    return Node(left, right)


def vertex_count(t: SyntaxTree) -> int:
    """Number of vertices whose subtree holds at least one non-trace leaf."""
    if isinstance(t, Leaf):
        return t.leaves
    return t.alpha + (1 if t.leaves > 0 else 0)


@dataclass(frozen=True)
class Workspace:
    """Multiset of syntactic objects; the empty workspace is the unit."""

    components: tuple = ()
    key: str = field(init=False, compare=False)

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda t: t.key))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "key", "⊔".join(t.key for t in comps) or "1")

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key

    @property
    def b0(self) -> int:
        return len(self.components)

    @property
    def alpha(self) -> int:
        return sum(t.alpha for t in self.components)

    @property
    def sigma(self) -> int:
        return self.alpha + self.b0

    @property
    def degree(self) -> int:
        return sum(t.leaves for t in self.components)

    def is_unit(self) -> bool:
        return not self.components


def workspace(*trees: SyntaxTree) -> Workspace:
    return Workspace(tuple(trees))


@dataclass(frozen=True)
class AccessibleTermRef:
    """A non-root subtree of a workspace component, addressed by component
    index and path of child selectors (in canonical child order)."""

    component: int
    path: tuple
    subtree: SyntaxTree = field(compare=False)

    def __post_init__(self):
        if not self.path:
            raise ForestError("root of a component is not an accessible term")


def subtree_at(t: SyntaxTree, path: tuple) -> SyntaxTree:
    for step in path:
        if isinstance(t, Leaf):
            raise ForestError("path runs past a leaf")
        t = t.left if step == 0 else t.right
    return t


def _accessible_in(t: SyntaxTree, prefix: tuple) -> Iterator[tuple]:
    # pre-order; skips subtrees with no live leaves
    for i, child in enumerate((t.left, t.right)):
        if child.leaves > 0:
            yield prefix + (i,)
        if isinstance(child, Node):
            yield from _accessible_in(child, prefix + (i,))


def accessible_terms(ws: Workspace) -> list:
    """All accessible terms of a workspace; the list has length ws.alpha."""
    out = []
    for ci, comp in enumerate(ws.components):
        if isinstance(comp, Node):
            for path in _accessible_in(comp, ()):
                out.append(AccessibleTermRef(ci, path, subtree_at(comp, path)))
    return out


def nested(p: tuple, q: tuple) -> bool:
    """Whether one path is a prefix of the other, i.e. the two subtrees of
    one tree overlap.  Cuts must be pairwise non-nested."""
    n = min(len(p), len(q))
    return p[:n] == q[:n]


def _check_disjoint(refs) -> None:
    for i, a in enumerate(refs):
        for b in refs[i + 1 :]:
            if a.component == b.component and nested(a.path, b.path):
                raise ForestError(f"overlapping cut refs {a.path} / {b.path}")


def tree_quotient(t: SyntaxTree, paths, mode: str):
    """Quotient of one tree by disjoint cuts at the given paths.

    mode "c" replaces each cut subtree by a trace leaf; mode "d" removes it
    and contracts the vertex left with one child, returning None when the
    whole tree is consumed.  Only the vertices above a cut are rebuilt.
    """
    if () in paths:
        return trace_leaf(t.key) if mode == "c" else None
    if isinstance(t, Leaf):
        return t
    kids = []
    for i, child in enumerate((t.left, t.right)):
        below = [p[1:] for p in paths if p[0] == i]
        kids.append(tree_quotient(child, below, mode) if below else child)
    l, r = kids
    if l is None:
        return r
    if r is None:
        return l
    return Node(l, r)


def quotient(ws: Workspace, cut: list, mode: str) -> Workspace:
    """Quotient of a workspace by a set of disjoint accessible-term refs.

    mode "c": each extracted subtree is replaced in place by a trace leaf.
    mode "d": extracted subtrees are removed and non-branching vertices
    contracted away; a fully consumed component disappears.
    """
    if mode not in ("c", "d"):
        raise ForestError(f"unknown quotient mode {mode!r}")
    _check_disjoint(cut)
    by_comp: dict = {}
    for ref in cut:
        by_comp.setdefault(ref.component, []).append(ref.path)
    comps = []
    for ci, comp in enumerate(ws.components):
        kept = tree_quotient(comp, by_comp[ci], mode) if ci in by_comp else comp
        if kept is not None:
            comps.append(kept)
    return Workspace(tuple(comps))


def extracted_forest(ws: Workspace, cut: list) -> Workspace:
    """The forest of extracted accessible terms (left side of a coproduct term)."""
    _check_disjoint(cut)
    return Workspace(tuple(r.subtree for r in cut))


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def forest_count(n: int) -> int:
    """Number of forests over n distinct labels, the edgeless one included.

    The block holding the last label has k other labels and (2k - 1)!! trees:
    f(m + 1) = sum_k C(m, k) (2k - 1)!! f(m - k), f(0) = 1.
    """
    f = [1]
    for m in range(n):
        f.append(sum(math.comb(m, k) * double_factorial(2 * k - 1) * f[m - k] for k in range(m + 1)))
    return f[n]


def enumerate_trees(labels) -> list:
    """All non-planar binary trees over a leaf multiset; (2n-3)!! of them for
    n distinct labels."""
    labels = tuple(sorted(labels))
    if not labels:
        raise ForestError("empty leaf set")
    seen: dict = {}

    def build(ms: tuple) -> list:
        if ms in seen:
            return seen[ms]
        if len(ms) == 1:
            out = [leaf(ms[0])]
        else:
            found = {}
            for left_part, right_part in _splits(ms):
                for lt in build(left_part):
                    for rt in build(right_part):
                        t = Node(lt, rt)
                        found[t.key] = t
            out = [found[k] for k in sorted(found)]
        seen[ms] = out
        return out

    return build(labels)


def _splits(ms: tuple) -> Iterator[tuple]:
    """Unordered pairs of nonempty sub-multisets covering ms (each pair once)."""
    n = len(ms)
    emitted = set()
    for mask in range(1, 2 ** n - 1, 2):  # bit 0 set, so ms[0] stays in part a
        a = tuple(sorted(ms[i] for i in range(n) if mask >> i & 1))
        b = tuple(sorted(ms[i] for i in range(n) if not mask >> i & 1))
        if (a, b) in emitted:
            continue
        emitted.add((a, b))
        yield a, b


def _multiset_partitions(ms: tuple) -> Iterator[tuple]:
    if not ms:
        yield ()
        return
    first, rest = ms[0], ms[1:]
    seen = set()
    # first goes into a block with each sub-multiset of the rest
    n = len(rest)
    for mask in range(2 ** n):
        block = (first,) + tuple(rest[i] for i in range(n) if mask >> i & 1)
        remainder = tuple(rest[i] for i in range(n) if not mask >> i & 1)
        blk = tuple(sorted(block))
        if (blk, remainder) in seen:
            continue
        seen.add((blk, remainder))
        for sub in _multiset_partitions(remainder):
            yield (blk,) + sub


def enumerate_forests(labels, require_edge: bool = True) -> list:
    """All workspaces over a fixed leaf multiset.

    Every set-partition block of size >= 2 is expanded into all non-planar
    binary trees over it; singleton blocks stay bare leaves.  With
    require_edge the all-singleton partition is dropped.  Result is
    deduplicated and sorted by (component count, canonical key).
    """
    labels = tuple(sorted(labels))
    if not labels:
        raise ForestError("empty leaf set")
    if require_edge and len(labels) < 2:
        raise ForestError("need at least 2 leaves for a forest with an edge")
    found: dict = {}
    seen_partitions = set()
    for part in _multiset_partitions(labels):
        sig = tuple(sorted(part))
        if sig in seen_partitions:
            continue
        seen_partitions.add(sig)
        if require_edge and all(len(b) == 1 for b in part):
            continue
        choices = [enumerate_trees(b) for b in part]
        stack = [()]
        for ch in choices:
            stack = [s + (t,) for s in stack for t in ch]
        for comps in stack:
            ws = Workspace(comps)
            found[ws.key] = ws
    return sorted(found.values(), key=lambda w: (w.b0, w.key))


# ---------------------------------------------------------------------------
# serialization

def tree_to_json(t: SyntaxTree):
    if isinstance(t, Leaf):
        return {"trace": t.name} if t.trace else t.name
    return ["M", tree_to_json(t.left), tree_to_json(t.right)]


def tree_from_json(obj) -> SyntaxTree:
    if isinstance(obj, str):
        return leaf(obj)
    if isinstance(obj, dict) and isinstance(obj.get("trace"), str):
        return trace_leaf(obj["trace"])
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "M":
        return Node(tree_from_json(obj[1]), tree_from_json(obj[2]))
    raise ForestError(f"bad tree encoding: {json.dumps(obj)[:80]}")


def workspace_to_json(ws: Workspace):
    return [tree_to_json(t) for t in ws.components]


def workspace_from_json(obj) -> Workspace:
    if not isinstance(obj, list):
        raise ForestError(f"a workspace is a list of trees, got {json.dumps(obj)[:80]}")
    return Workspace(tuple(tree_from_json(t) for t in obj))


def tree_to_text(t: SyntaxTree) -> str:
    if isinstance(t, Leaf):
        return t.key
    return "[" + tree_to_text(t.left) + " " + tree_to_text(t.right) + "]"


def workspace_to_text(ws: Workspace) -> str:
    if ws.is_unit():
        return "1"
    return " ⊔ ".join(tree_to_text(t) for t in ws.components)
