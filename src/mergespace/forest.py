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

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from json.encoder import encode_basestring_ascii as _quoted  # json.dumps of a str
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

__all__ = [
    "DomainError",
    "Leaf",
    "Node",
    "SyntaxTree",
    "Workspace",
    "leaf",
    "node",
    "trace_leaf",
    "workspace",
    "accessible_terms",
    "positions",
    "subtree_at",
    "nested",
    "enumerate_trees",
    "enumerate_forests",
    "double_factorial",
    "forest_counts",
    "count_over",
    "multiset_counts",
    "leaf_count_over",
    "Renderer",
    "tree_to_json",
    "tree_from_json",
    "workspace_to_json",
    "workspace_from_json",
]

# Reserved by the key encoding; labels must avoid them.
_RESERVED = set("(|)~⊔ ")
_by_key = attrgetter("key")
_by_alpha = attrgetter("alpha")


class DomainError(ValueError):
    """Base of every error that bad input to the program raises, from any
    module: the CLI reports it as ``error: ...`` with exit code 1.  It lives
    here, in the lowest layer, so that catching it loads no other module."""


class ForestError(DomainError):
    pass


_set = object.__setattr__
_new = object.__new__


class _Frozen:
    """Base of the immutable records: each subclass sets its slots once, in
    __new__ or __init__, and from then on a field can neither be assigned
    nor deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle would set the slots through __setattr__; a slot
        # filled on first use may still be unset
        names = [n for c in type(self).__mro__ for n in c.__dict__.get("__slots__", ())]
        return _rebuilt, (type(self), {n: getattr(self, n) for n in names if hasattr(self, n)})


def _setters(cls) -> tuple:
    """The descriptor setters of cls's own slots, in __slots__ order.  A
    record's __new__ fills its fields through them: one call each, past
    _Frozen.__setattr__, where object.__setattr__ would look the name up."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _rebuilt(cls, fields: dict):
    """The record of class cls with the given fields, as copied or unpickled."""
    record = _new(cls)
    for name, value in fields.items():
        _set(record, name, value)
    return record


class Leaf(_Frozen):
    """A labeled leaf.  ``trace=True`` marks a cancelled copy; ``name`` then
    holds the canonical key of the cancelled subtree.  Equal when name and
    trace are."""

    __slots__ = ("name", "trace", "key", "leaves", "alpha")

    def __init__(self, name: str, trace: bool = False):
        if not name:
            raise ForestError("empty leaf label")
        if not trace and not _RESERVED.isdisjoint(name):
            raise ForestError(f"label {name!r} uses a reserved character")
        _set(self, "name", name)
        _set(self, "trace", trace)
        _set(self, "key", "~" + name + "~" if trace else name)
        _set(self, "leaves", 0 if trace else 1)  # non-trace leaf count
        _set(self, "alpha", 0)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.trace == other.trace

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


class Node(_Frozen):
    """Internal binary vertex; children are stored sorted by canonical key.

    Equal when the children are equal, in either order.  Keys alone are not
    enough: trace names may hold the key's separators, so two different
    trees can share a key, and two children with one key keep the order
    they were given in."""

    __slots__ = ("left", "right", "key", "leaves", "alpha")

    def __new__(cls, left: "SyntaxTree", right: "SyntaxTree"):
        if left.key > right.key:
            left, right = right, left
        self = _new(cls)
        _node_left(self, left)
        _node_right(self, right)
        _node_key(self, f"({left.key}|{right.key})")
        _node_leaves(self, left.leaves + right.leaves)
        # alpha counts non-root vertices whose subtree still holds a live leaf
        _node_alpha(self, left.alpha + right.alpha + (left.leaves > 0) + (right.leaves > 0))
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key and (
            (self.left == other.left and self.right == other.right)
            or (self.left == other.right and self.right == other.left)
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key


_node_left, _node_right, _node_key, _node_leaves, _node_alpha = _setters(Node)

SyntaxTree = Union[Leaf, Node]


def leaf(name: str) -> Leaf:
    return Leaf(name)


def trace_leaf(cancelled_key: str) -> Leaf:
    return Leaf(cancelled_key, trace=True)


def node(left: SyntaxTree, right: SyntaxTree) -> Node:
    """Merge two trees; child order is canonicalized, so node(a, b) == node(b, a)."""
    return Node(left, right)


class Workspace(_Frozen):
    """Multiset of syntactic objects; the empty workspace is the unit.  Equal
    when the components are equal as multisets.  They are stored sorted by
    key, and components with one key keep the order they were given in, so
    the tuples are compared first and the multisets only when those
    differ.  alpha is the number of accessible terms."""

    __slots__ = ("components", "key", "alpha")

    def __new__(cls, components: tuple = ()):
        return ordered_workspace(sorted(components, key=_by_key))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key and (
            self.components == other.components or Counter(self.components) == Counter(other.components)
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key

    @property
    def b0(self) -> int:
        return len(self.components)

    @property
    def sigma(self) -> int:
        return self.alpha + self.b0

    @property
    def degree(self) -> int:
        return sum(t.leaves for t in self.components)


_ws_components, _ws_key, _ws_alpha = _setters(Workspace)


def ordered_workspace(comps) -> Workspace:
    """The workspace of components already sorted by key, kept in the order
    given: Workspace without the sort."""
    comps = tuple(comps)
    self = _new(Workspace)
    _ws_components(self, comps)
    _ws_key(self, "⊔".join(map(_by_key, comps)) or "1")
    _ws_alpha(self, sum(map(_by_alpha, comps)))
    return self


def workspace(*trees: SyntaxTree) -> Workspace:
    return Workspace(tuple(trees))


def subtree_at(t: SyntaxTree, path: tuple) -> SyntaxTree:
    """The subtree of t at path, a sequence of child selectors: 0 for the
    left child, 1 for the right."""
    return path_vertices(t, path)[-1]


def path_vertices(t: SyntaxTree, path: tuple) -> list:
    """The vertices on path from t down, t first and the subtree at path
    last.  A step other than 0 or 1, or one past a leaf, is a ForestError."""
    out = [t]
    for step in path:
        if isinstance(t, Leaf):
            raise ForestError("path runs past a leaf")
        if step == 0:
            t = t.left
        elif step == 1:
            t = t.right
        else:
            raise ForestError(f"path {path}: step {step!r} is neither 0 nor 1")
        out.append(t)
    return out


def contract_up(out, vertices: list, path: tuple, k: int) -> list:
    """The cut levels from depth k up to the root, indexed by depth: level k
    is out, what is left of the subtree at path[:k] after a cut inside it,
    and level j < k is the vertex vertices[j] (at path[:j]) with its child
    path[j] replaced by level j + 1, or, where that is None, contracted to
    its other child.  Only the k vertices above depth k are rebuilt."""
    levels = [out] * (k + 1)
    for j in range(k - 1, -1, -1):
        v = vertices[j]
        if path[j]:
            out = v.left if out is None else Node(v.left, out)
        else:
            out = v.right if out is None else Node(out, v.right)
        levels[j] = out
    return levels


def positions(t: SyntaxTree, prefix: tuple = ()) -> Iterator[tuple]:
    """(path, subtree) for every vertex of t in pre-order, root first; each
    path is prefix followed by the child selectors from t."""
    yield prefix, t
    if isinstance(t, Node):
        yield from positions(t.left, prefix + (0,))
        yield from positions(t.right, prefix + (1,))


def accessible_terms(ws: Workspace) -> list:
    """All accessible terms of a workspace as (source, subtree) pairs, in
    component order and pre-order; the list has length ws.alpha.  A source
    is (component index, path), the path non-empty: a component's root is
    not an accessible term."""
    return [
        ((ci, path), sub)
        for ci, comp in enumerate(ws.components)
        for path, sub in positions(comp)
        if path and sub.leaves > 0
    ]


def nested(p: tuple, q: tuple) -> bool:
    """Whether one path is a prefix of the other, i.e. the two subtrees of
    one tree overlap.  Cuts must be pairwise non-nested."""
    n = min(len(p), len(q))
    return p[:n] == q[:n]


def tree_quotient(t: SyntaxTree, paths, mode: str):
    """Quotient of one tree by disjoint cuts at the given paths, each a
    non-empty sequence of 0s and 1s, as `quotient` checks them.  A step
    other than 0 or 1 is a ForestError worded as subtree_at words it.

    mode "c" replaces each cut subtree by a trace leaf; mode "d" removes it
    and contracts the vertex left with one child, returning None when the
    whole tree is consumed.  Only the vertices above a cut are rebuilt: the
    walk goes down the spine, the paths' common prefix, cuts where it ends
    or, where several cuts part, takes each child's share of them down that
    child, and contract_up rebuilds the spine bottom-up, as it builds the
    cut levels of a Merge step.
    """
    for p in paths:
        if p.count(0) + p.count(1) != len(p):
            subtree_at(t, p)  # raises at the bad step, or at a leaf before it
    prefix = paths[0] if len(paths) == 1 else _common_prefix(paths)
    spine = path_vertices(t, prefix)
    t = spine[-1]
    if prefix in paths:
        out = trace_leaf(t.key) if mode == "c" else None
    elif isinstance(t, Leaf):
        raise ForestError("path runs past a leaf")
    else:
        k = len(prefix)
        l = tree_quotient(t.left, [p[k + 1 :] for p in paths if p[k] == 0], mode)
        r = tree_quotient(t.right, [p[k + 1 :] for p in paths if p[k] == 1], mode)
        out = r if l is None else l if r is None else Node(l, r)
    return contract_up(out, spine, prefix, len(prefix))[0]


def _common_prefix(paths) -> tuple:
    """The longest common prefix of the paths: that of the least and the
    greatest of them."""
    first, last = min(paths), max(paths)
    k = 0
    while k < len(first) and first[k] == last[k]:
        k += 1
    return first[:k]


def quotient(ws: Workspace, sources: list, mode: str) -> Workspace:
    """Quotient of a workspace by disjoint accessible terms, each named by its
    source (component index, non-empty path) as accessible_terms gives it.

    mode "c": each extracted subtree is replaced in place by a trace leaf.
    mode "d": extracted subtrees are removed and non-branching vertices
    contracted away; a fully consumed component disappears.
    A source outside the workspace, at a component's root or past a leaf,
    with a path step other than 0 or 1, or one overlapping another, is a
    ForestError naming it.

    No code in the package calls it: the engine cuts through path_vertices
    and contract_up.  It stays for the benchmark's tracer, which wraps it,
    and for the tests, where it and tree_quotient are the reference the
    engine's cuts and the Hopf coproduct are checked against.
    """
    if mode not in ("c", "d"):
        raise ForestError(f"unknown quotient mode {mode!r}")
    by_comp: dict = {}
    for src in sources:
        ci, path = src
        if not 0 <= ci < ws.b0:
            raise ForestError(f"source {src}: no component {ci} in a workspace of {ws.b0}")
        if not path:
            raise ForestError(f"source {src}: the root of a component is not an accessible term")
        if path.count(0) + path.count(1) != len(path):
            raise ForestError(f"source {src}: a path step is neither 0 nor 1")
        paths = by_comp.setdefault(ci, [])
        for q in paths:
            if nested(q, path):
                raise ForestError(f"overlapping sources {(ci, q)} / {src}")
        paths.append(path)
    comps = []
    for ci, comp in enumerate(ws.components):
        if ci in by_comp:
            try:
                comp = tree_quotient(comp, by_comp[ci], mode)
            except ForestError as exc:
                raise ForestError(f"sources {[(ci, p) for p in by_comp[ci]]}: {exc}") from None
        if comp is not None:
            comps.append(comp)
    return Workspace(tuple(comps))


def double_factorial(n: int) -> int:
    return math.prod(range(n, 1, -2))


def forest_counts() -> Iterator[int]:
    """The numbers of forests over 0, 1, 2, ... distinct labels, the
    edgeless one included.

    The block holding the last label has k other labels and (2k - 1)!! trees:
    f(m + 1) = sum_k C(m, k) (2k - 1)!! f(m - k), f(0) = 1.
    """
    f = [1]
    while True:
        yield f[-1]
        m = len(f) - 1
        f.append(sum(math.comb(m, k) * double_factorial(2 * k - 1) * f[m - k] for k in range(m + 1)))


def count_over(counts: Iterable[int], n: int, bound: int) -> Optional[str]:
    """None when the n-th of the increasing counts (from the 0-th) is at
    most bound; otherwise the count that a refusal names.  That is the n-th
    count while the counts fit in 64 bits.  The walk stops at the first
    count c past both the bound and 64 bits and names "more than c", so that
    a refusal never computes or prints a count that a large n makes huge."""
    for m, c in enumerate(counts):
        if m == n:
            return str(c) if c > bound else None
        if c > max(bound, sys.maxsize):
            return f"more than {c}"


def multiset_counts(labels) -> Iterator[tuple]:
    """(trees, forests) over each growing prefix of the sorted leaf multiset:
    the first label, the first two, and so on up to all of them.  Each count
    is at least the one before.

    A count depends on the vector w of label multiplicities alone.  The trees
    over w, |w| >= 2, are its unordered splits {u, w - u} into non-empty
    parts, one tree on each: T(w) = (sum_u T(u) T(w - u) + T(w / 2)) / 2, the
    last term only when every multiplicity is even.  Forests are multisets of
    trees, counted by the Euler transform along a coordinate i with w_i > 0:
    w_i F(w) = sum_{0 < s <= w} F(w - s) sum_{d | s} (s_i / d) T(s / d).
    The tables hold every vector below the prefix's, one coordinate for each
    label seen so far.
    """
    T, F = {(): 0}, {(): 1}
    top: tuple = ()
    previous = None
    for lab in sorted(labels):
        if lab != previous:  # a new coordinate, 0 in every vector so far
            T = {w + (0,): c for w, c in T.items()}
            F = {w + (0,): c for w, c in F.items()}
            top, previous = top + (0,), lab
        top = top[:-1] + (top[-1] + 1,)
        # the new vectors end in top[-1]; each comes after those below it
        for rest in itertools.product(*(range(c + 1) for c in top[:-1])):
            _count_at(rest + top[-1:], T, F)
        yield T[top], F[top]


def _count_at(w: tuple, T: dict, F: dict) -> None:
    """Fills T(w) and F(w) from the counts of the vectors below w."""
    below = list(itertools.product(*(range(c + 1) for c in w)))[1:]  # 0 < u <= w
    if len(below) == 1:
        T[w] = 1
    else:
        half = tuple(c // 2 for c in w)
        twice = T[half] if all(c % 2 == 0 for c in w) else 0
        T[w] = (sum(T[u] * T[_minus(w, u)] for u in below[:-1]) + twice) // 2
    i = next(k for k, c in enumerate(w) if c)
    total = 0
    for s in below:
        if s[i]:
            g = math.gcd(*s)
            shares = sum((s[i] // d) * T[tuple(c // d for c in s)] for d in range(1, g + 1) if g % d == 0)
            total += F[_minus(w, s)] * shares
    F[w] = total // w[i]


def _minus(w: tuple, u: tuple) -> tuple:
    return tuple(a - b for a, b in zip(w, u))


def leaf_count_over(labels, bound: int, trees: bool = False, require_edge: bool = False) -> Optional[str]:
    """None when the trees (trees=True) or the forests (with require_edge,
    those with an edge) over the leaf multiset number at most bound;
    otherwise the count that a refusal names.  Distinct labels walk the
    closed forms with count_over.  Repeated labels walk multiset_counts and
    stop at the first prefix past the bound, which names "at least c" when it
    is not the whole multiset, so that the counting costs no more than the
    bound allows."""
    n = len(labels)
    drop = require_edge and not trees  # the edgeless forest
    if len(set(labels)) == n:
        closed = map(double_factorial, itertools.count(-3, 2)) if trees else forest_counts()  # (2n - 3)!!
        return count_over((c - drop for c in closed), n, bound)
    for m, (t, f) in enumerate(multiset_counts(labels), 1):
        c = t if trees else f - drop
        if c > bound:
            return str(c) if m == n else f"at least {c}"
    return None


def enumerate_trees(labels) -> list:
    """All non-planar binary trees over a leaf multiset, sorted by key;
    (2n-3)!! of them for n distinct labels."""
    sub = _SubMultisets(labels)
    return sorted(sub.trees(sub.full)[0], key=_by_key)


class _SubMultisets:
    """The trees and forests over each sub-multiset of a leaf multiset, built
    once, each with its internal vertices' codes as a bitset, bit c for code
    c.  A code counts each distinct label in one digit of a mixed radix, the
    place of a label being the product of m + 1 over the multiplicities m
    before it: codes 0 to full are the sub-multisets, leaf masks if distinct."""

    def __init__(self, labels):
        labels = sorted(labels)
        if not labels:
            raise ForestError("empty leaf set")
        self.n, self.distinct = len(labels), len(set(labels)) == len(labels)
        self.tree_memo, place = {}, 1
        for name, run in itertools.groupby(labels):
            self.tree_memo[place] = [Leaf(name)], [0]
            place *= len(list(run)) + 1
        self.full, self.forest_memo = place - 1, {0: ([()], [0])}
        self.lowest = [0] * place  # the place of each code's lowest nonzero digit
        for p in self.tree_memo:
            self.lowest[p::p] = [p] * (self.full // p)

    def blocks(self, c: int) -> Iterator[tuple]:
        """(block, rest) for each block of c holding c's first label, all of
        c first: v steps down the sub-multisets of r, c less that label."""
        low = self.lowest[c]
        r = v = c - low
        yield c, 0
        while v:
            p = self.lowest[v]  # one off v's lowest nonzero digit, those below refilled
            v += r % p - p
            yield v + low, r - v

    def trees(self, c: int) -> tuple:
        """(trees, codes), an entry of each per tree over c, each tree once."""
        if c not in self.tree_memo:
            out, codes, root = [], [], 1 << c
            for block, rest in self.blocks(c):
                if rest:
                    (lts, lcs), (rts, rcs) = self.trees(block), self.trees(rest)
                    out += [Node(lt, rt) for lt in lts for rt in rts]
                    codes += [lc | rc | root for lc in lcs for rc in rcs]
            if not self.distinct:  # then a tree comes once per split of its root
                out, codes = map(list, zip(*{t.key: (t, x) for t, x in zip(out, codes)}.values()))
            self.tree_memo[c] = out, codes
        return self.tree_memo[c]

    def forests(self, c: int) -> tuple:
        """(components, codes), an entry of each per forest over c: a tree over
        the block holding c's first label, then a forest over the rest."""
        if c not in self.forest_memo:
            comps_out, codes_out = self.forest_memo[c] = [], []
            for block, rest in self.blocks(c):
                (trees, tree_codes), (tails, tail_codes) = self.trees(block), self.forests(rest)
                comps_out += [(t,) + comps for t in trees for comps in tails]
                codes_out += [tc | codes for tc in tree_codes for codes in tail_codes]
        return self.forest_memo[c]


def enumerate_forests(labels, require_edge: bool = True) -> list:
    """The workspaces of forests_and_masks."""
    return forests_and_masks(labels, require_edge)[0]


def forests_and_masks(labels, require_edge: bool = True) -> tuple:
    """(workspaces, masks): all workspaces over a fixed leaf multiset, a tree
    over every set-partition block (with require_edge, not all singletons),
    sorted by (component count, key).  With distinct labels masks[i] is the
    bitset of the leaf masks of workspace i's internal vertices, else None."""
    sub = _SubMultisets(labels)
    if require_edge and sub.n < 2:
        raise ForestError("need at least 2 leaves for a forest with an edge")
    forests, codes = sub.forests(sub.full)
    states = [ordered_workspace(sorted(comps, key=_by_key)) for comps in forests]
    by_count = [{} for _ in range(sub.n + 1)]  # key -> index, by component count
    for i, ws in enumerate(states):
        by_count[len(ws.components)][ws.key] = i
    order = [found[key] for found in by_count[: sub.n + 1 - require_edge] for key in sorted(found)]
    return [states[i] for i in order], [codes[i] for i in order] if sub.distinct else None


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


class Renderer:
    """The JSON and text forms of trees and workspaces, each tree object
    rendered once.

    Outputs built from one input share most of their subtree objects: a
    Merge step rebuilds only the vertices above its cuts, and the forests of
    one enumeration share their trees.  One Renderer per request renders
    each shared subtree once.  The memo is keyed on identity, because keys
    are not injective once traces appear, and it holds every tree it
    rendered, so that no id is reused while it lives.  Its entry for a tree
    is (tree, JSON, text, text escaped as in a JSON string); escaping acts
    character by character, so the escaped text of a vertex is built from
    its children's as its text is.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict = {}

    def _rendered(self, t: SyntaxTree) -> tuple:
        """The memo entry of t, rendered on a miss."""
        get = self._memo.get
        if isinstance(t, Leaf):
            quoted = _quoted(t.name)
            if t.trace:
                hit = t, '{"trace": ' + quoted + "}", t.key, "~" + quoted[1:-1] + "~"
            else:
                hit = t, quoted, t.key, quoted[1:-1]
        else:
            _, lj, lt, lx = get(id(t.left)) or self._rendered(t.left)
            _, rj, rt, rx = get(id(t.right)) or self._rendered(t.right)
            hit = t, f'["M", {lj}, {rj}]', f"[{lt} {rt}]", f"[{lx} {rx}]"
        self._memo[id(t)] = hit
        return hit

    def _entries(self, ws: Workspace) -> list:
        """The memo entries of ws's components, in component order."""
        get, rendered = self._memo.get, self._rendered
        return [get(id(t)) or rendered(t) for t in ws.components]

    def tree_text(self, t: SyntaxTree) -> str:
        """t with each vertex as [left right] and each leaf as its key."""
        return (self._memo.get(id(t)) or self._rendered(t))[2]

    def workspace_json(self, ws: Workspace) -> str:
        """workspace_to_json(ws) as json.dumps writes it."""
        return "[" + ", ".join([e[1] for e in self._entries(ws)]) + "]"

    def workspace_text(self, ws: Workspace) -> str:
        """The components' texts joined by ⊔; the empty workspace is 1."""
        return " ⊔ ".join([e[2] for e in self._entries(ws)]) or "1"

    def json_forms(self, ws: Workspace) -> tuple:
        """(self.workspace_json(ws), json.dumps(self.workspace_text(ws))) in
        one pass over the components, the second joined from the escaped
        texts."""
        entries = self._entries(ws)
        text = '"' + " \\u2294 ".join([e[3] for e in entries]) + '"' if entries else '"1"'
        return "[" + ", ".join([e[1] for e in entries]) + "]", text


def workspace_to_text(ws: Workspace) -> str:
    return Renderer().workspace_text(ws)
