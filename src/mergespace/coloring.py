"""Colored trees and generator-based acceptance.

A rule set lists single-vertex generators (root color over an unordered pair
of child colors, wildcards allowed) and, optionally, composite generators
whose body is a multi-vertex colored pattern.  A colored tree is accepted
when every internal vertex is covered by a generator and all global checks
pass.  Search enumerates colorings of a bare tree subject to per-leaf color
constraints; an empty search is a filtered-out structure.

Unit-slot markers (the bookkeeping leaves left by merge-with-unit movement
steps) are ordinary leaves carrying a slot color, so single-vertex rule sets
stay equivalent to building the same trees by color-constrained Merge.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from mergespace.forest import (
    DomainError,
    ForestError,
    Leaf,
    Node,
    SyntaxTree,
    leaf,
    positions,
    trace_leaf,
    tree_from_json,
)

WILDCARD = "*"


class ColoringError(DomainError):
    pass


@dataclass(frozen=True)
class CLeaf:
    label: str
    color: str
    trace: bool = False


@dataclass(frozen=True)
class CNode:
    color: str
    left: "ColoredTree"
    right: "ColoredTree"


ColoredTree = object  # CLeaf | CNode


def bare(t: ColoredTree) -> SyntaxTree:
    if isinstance(t, CLeaf):
        return trace_leaf(t.label) if t.trace else leaf(t.label)
    return Node(bare(t.left), bare(t.right))


@dataclass(frozen=True)
class Generator:
    """Single-vertex rule: root color over an unordered pair of child colors.

    A child may be the wildcard.  ``tag`` records what introduced the rule
    (base inventory, movement landing, SM splitting, clustering, head
    movement, clitic splitting).
    """

    root: str
    children: tuple
    tag: str = "base"

    def child_pairs(self, c1: str, c2: str) -> bool:
        g1, g2 = self.children
        return (_cm(g1, c1) and _cm(g2, c2)) or (_cm(g1, c2) and _cm(g2, c1))


def _cm(pattern: str, color: str) -> bool:
    return pattern == WILDCARD or pattern == color


@dataclass(frozen=True)
class Pattern:
    """Body of a composite generator: internal vertices fix consumed colors,
    leaves constrain the subtrees plugged in below."""

    color: str
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class RuleSet:
    """Colors, generators and checks of one coloring system.

    ``roots(c1, c2)`` is the one generator lookup: at construction every
    generator is filed under its sorted child pair, wildcards included, and
    a lookup unions the buckets ``{c1, *} x {c2, *}``.  ``fragments`` holds
    the internal vertices of the composite bodies.  Generators and
    composites are stored as tuples, so neither can go stale.
    """

    name: str
    colors: set
    generators: tuple
    composites: tuple = ()  # (root) carried by Pattern.color
    global_checks: list = field(default_factory=list)
    role_inject: dict = field(default_factory=dict)  # color -> iterable of role names
    role_discharge: dict = field(default_factory=dict)  # color -> role name

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self.composites = tuple(self.composites)
        self._index: dict = {}
        for g in self.generators:
            self._index.setdefault(tuple(sorted(g.children)), set()).add(g.root)
        self.fragments = tuple(q for p in self.composites for q in _internal(p))

    @property
    def composite(self) -> bool:
        return bool(self.composites)

    def known(self, color: str) -> bool:
        return color in self.colors

    def roots(self, c1: str, c2: str) -> frozenset:
        """Root colors of every generator whose children match (c1, c2) in
        either order."""
        out = _NONE
        for a in {c1, WILDCARD}:
            for b in {c2, WILDCARD}:
                out = out | self._index.get((a, b) if a <= b else (b, a), _NONE)
        return out

    def extended(self, name: str, extra_generators, extra_colors=()) -> "RuleSet":
        return RuleSet(
            name=name,
            colors=set(self.colors) | set(extra_colors),
            generators=self.generators + tuple(extra_generators),
            composites=self.composites,
            global_checks=list(self.global_checks),
            role_inject=dict(self.role_inject),
            role_discharge=dict(self.role_discharge),
        )


_NONE = frozenset()


def _internal(p: Pattern) -> list:
    return [] if p.is_leaf else [p] + [q for c in p.children for q in _internal(c)]


# ---------------------------------------------------------------------------
# acceptance

def _check_colors_known(rs: RuleSet, t: ColoredTree) -> None:
    stack = [t]
    while stack:
        x = stack.pop()
        if not rs.known(x.color):
            raise ColoringError(f"unknown color token {x.color!r} for rule set {rs.name}")
        if isinstance(x, CNode):
            stack.extend([x.left, x.right])


def _match_pattern(rs: RuleSet, pat: Pattern, t: ColoredTree, memo: dict) -> bool:
    """Pattern internal vertices must coincide with tree vertices (colors
    fixed, no further generator needed there); pattern leaves require the
    plugged-in subtree to be accepted with the stated root color."""
    if pat.is_leaf:
        if pat.color == WILDCARD:
            return _accepted_subtree(rs, t, t.color, memo)
        return t.color == pat.color and _accepted_subtree(rs, t, pat.color, memo)
    if isinstance(t, CLeaf) or t.color != pat.color:
        return False
    p1, p2 = pat.children
    return (
        _match_pattern(rs, p1, t.left, memo) and _match_pattern(rs, p2, t.right, memo)
    ) or (
        _match_pattern(rs, p1, t.right, memo) and _match_pattern(rs, p2, t.left, memo)
    )


def _accepted_subtree(rs: RuleSet, t: ColoredTree, root_color: str, memo: dict) -> bool:
    if t.color != root_color:
        return False
    key = (id(t), root_color)
    if key in memo:
        return memo[key]
    if isinstance(t, CLeaf):
        out = True
    else:
        out = False
        if t.color in rs.roots(t.left.color, t.right.color):
            out = _accepted_subtree(rs, t.left, t.left.color, memo) and _accepted_subtree(
                rs, t.right, t.right.color, memo
            )
        if not out:
            out = any(_match_pattern(rs, pat, t, memo) for pat in rs.composites)
    memo[key] = out
    return out


def theta_criterion(rs: RuleSet, t: ColoredTree) -> bool:
    """Every injected role is discharged: leaf head bundles inject, leaf
    argument colors (traces included) discharge, counts must balance."""
    inject: dict = {}
    discharge: dict = {}
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, CNode):
            stack.extend([x.left, x.right])
            continue
        for role in rs.role_inject.get(x.color, ()):
            inject[role] = inject.get(role, 0) + 1
        role = rs.role_discharge.get(x.color)
        if role:
            discharge[role] = discharge.get(role, 0) + 1
    return inject == discharge


GLOBAL_CHECKS = {"theta": theta_criterion}


def accepts(rs: RuleSet, t: ColoredTree, _memo: Optional[dict] = None):
    """(accepted, first failing vertex path or check name)."""
    _check_colors_known(rs, t)
    memo = _memo if _memo is not None else {}

    def walk(x, path):
        if isinstance(x, CLeaf):
            return None
        if not rs.composite:
            if x.color not in rs.roots(x.left.color, x.right.color):
                return path
            return walk(x.left, path + (0,)) or walk(x.right, path + (1,))
        return None if _accepted_subtree(rs, x, x.color, memo) else path

    bad = walk(t, ())
    if bad is not None:
        return False, bad
    for check in rs.global_checks:
        if not GLOBAL_CHECKS[check](rs, t):
            return False, check
    return True, None


# ---------------------------------------------------------------------------
# coloring search over bare trees

# `color_search` refuses to build more candidate colored trees than this
# (leaves and subtrees included; see `candidate_count`).  Measured on one
# core, unconstrained `phase+split` combs: 5 leaves build 179 882 candidates
# in 3.8 s with a 37 MB peak; 6 leaves (1 136 153 candidates, 29 s, 153 MB)
# are refused.  The shipped scenarios build at most 144.
MAX_CANDIDATES = 250_000


def _checked_constraints(rs: RuleSet, constraints) -> dict:
    if constraints is None:
        return {}
    if not isinstance(constraints, dict):
        raise ColoringError(f"constraints must map labels to color lists, got {_short(constraints)}")
    for label, allowed in constraints.items():
        if not isinstance(allowed, (list, tuple)) or not all(isinstance(c, str) for c in allowed):
            raise ColoringError(f"constraints: {label}: not a list of colors: {_short(allowed)}")
        for c in allowed:
            if not rs.known(c):
                raise ColoringError(f"constraint color {c!r} not in rule set {rs.name}")
    return constraints


def _short(obj) -> str:
    return json.dumps(obj, default=repr)[:80]


def _leaf_choices(rs: RuleSet, t: Leaf, constraints: dict) -> list:
    # traces use their ~name~ form, so they constrain separately
    return list(constraints.get(t.key, sorted(rs.colors)))


def _vertex_roots(rs: RuleSet, t: Node, cl: str, cr: str) -> list:
    """Candidate colors of vertex ``t`` over children colored (cl, cr): the
    generator roots, plus the roots of composite-body fragments whose
    children shallowly match.  Vertices consumed inside a composite body are
    justified top-down by `accepts`; any other color can never be covered."""
    roots = rs.roots(cl, cr)
    if rs.fragments:
        left = (cl, isinstance(t.left, Node))
        right = (cr, isinstance(t.right, Node))
        roots = roots | {
            p.color
            for p in rs.fragments
            if (_shallow(p.children[0], left) and _shallow(p.children[1], right))
            or (_shallow(p.children[0], right) and _shallow(p.children[1], left))
        }
    return sorted(roots)


def _shallow(p: Pattern, child: tuple) -> bool:
    color, internal = child
    if p.is_leaf:
        return p.color == WILDCARD or p.color == color
    return internal and p.color == color


def candidate_count(rs: RuleSet, tree: SyntaxTree, constraints: Optional[dict] = None) -> int:
    """How many colored trees `color_search` builds on ``tree``, counting
    every vertex's candidates (leaves included), without building any:
    exact counts per root color, bottom-up."""
    constraints = _checked_constraints(rs, constraints)
    total = 0

    def count(t: SyntaxTree) -> Counter:
        nonlocal total
        if isinstance(t, Leaf):
            out = Counter(_leaf_choices(rs, t, constraints))
        else:
            left, right = count(t.left), count(t.right)
            out = Counter()
            for cl, nl in left.items():
                for cr, nr in right.items():
                    for root in _vertex_roots(rs, t, cl, cr):
                        out[root] += nl * nr
        total += sum(out.values())
        return out

    count(tree)
    return total


def color_search(
    rs: RuleSet,
    tree: SyntaxTree,
    constraints: Optional[dict] = None,
    limit: Optional[int] = None,
) -> list:
    """All accepted colorings of a bare tree, leaf colors drawn from the
    constraint map (label -> allowed colors; unconstrained leaves range over
    the whole palette).  An empty result means the structure is filtered out.
    Searches that would build more than ``MAX_CANDIDATES`` candidates are
    refused before building any.
    """
    total = candidate_count(rs, tree, constraints)
    constraints = constraints or {}
    if total > MAX_CANDIDATES:
        raise ColoringError(
            f"the search would build {total} candidate colorings, over the bound {MAX_CANDIDATES}"
        )

    def colorings(t: SyntaxTree) -> list:
        if isinstance(t, Leaf):
            return [CLeaf(t.name, c, trace=t.trace) for c in _leaf_choices(rs, t, constraints)]
        lefts, rights = colorings(t.left), colorings(t.right)
        return [
            CNode(root, lt, rt)
            for lt in lefts
            for rt in rights
            for root in _vertex_roots(rs, t, lt.color, rt.color)
        ]

    out = []
    shared_memo: dict = {}
    for colored in colorings(tree):
        if rs.composite or rs.global_checks:
            ok, _ = accepts(rs, colored, _memo=shared_memo)
        else:
            ok = True  # single-vertex candidates are generator-matched by construction
        if ok:
            out.append(colored)
            if limit is not None and len(out) >= limit:
                break
    return out


def scenario_verdicts(blob: dict) -> list:
    """One row per case of a scenario: the rule set, the verdict (accept when
    any coloring is found), the number of colorings, and whether the case's
    ``expect``, ``min_colorings`` and ``max_colorings`` all hold.  The whole
    file is checked before any search: a bad field raises ColoringError
    naming it."""
    tree, cases = _checked_scenario(blob)
    rows = []
    for case, rs in cases:
        found = color_search(rs, tree, blob.get("constraints"))
        verdict = "accept" if found else "reject"
        ok = verdict == case["expect"]
        if ok and case.get("min_colorings"):
            ok = len(found) >= case["min_colorings"]
        if ok and case.get("max_colorings") is not None:
            ok = len(found) <= case["max_colorings"]
        rows.append({"ruleset": case["ruleset"], "verdict": verdict, "colorings": len(found), "ok": ok})
    return rows


def _checked_scenario(blob) -> tuple:
    """The bare tree and the (case, rule set) pairs of a scenario."""
    from mergespace.rulesets import get_ruleset  # rulesets imports this module

    if not isinstance(blob, dict):
        raise ColoringError("a scenario must be a JSON object")
    for name in ("tree", "cases"):
        if name not in blob:
            raise ColoringError(f"scenario has no {name!r} field")
    try:
        tree = tree_from_json(blob["tree"])
    except ForestError as exc:
        raise ColoringError(f"tree: {exc}") from None
    if not isinstance(blob["cases"], list) or not blob["cases"]:
        raise ColoringError(f"cases: not a non-empty list: {_short(blob['cases'])}")
    cases = []
    for k, case in enumerate(blob["cases"]):
        if not isinstance(case, dict):
            raise ColoringError(f"cases[{k}]: not an object: {_short(case)}")
        for name in ("ruleset", "expect"):
            if name not in case:
                raise ColoringError(f"cases[{k}]: no {name!r} field")
        if case["expect"] not in ("accept", "reject"):
            raise ColoringError(f"cases[{k}]: expect: want accept or reject, got {_short(case['expect'])}")
        for name in ("min_colorings", "max_colorings"):
            value = case.get(name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
                raise ColoringError(f"cases[{k}]: {name}: not a non-negative integer: {_short(value)}")
        rs = get_ruleset(case["ruleset"])
        _checked_constraints(rs, blob.get("constraints"))
        cases.append((case, rs))
    return tree, cases


# ---------------------------------------------------------------------------
# color-constrained Merge (External Merge over colored components)

def _colored_merges(components: tuple, i: int, j: int, rs: RuleSet) -> list:
    """(new components tuple, root color) for the merges of components i < j,
    one per root color in sorted order."""
    rest = tuple(x for k, x in enumerate(components) if k not in (i, j))
    return [
        (rest + (CNode(root, components[i], components[j]),), root)
        for root in sorted(rs.roots(components[i].color, components[j].color))
    ]


def reachable_by_colored_merge(
    rs: RuleSet, tree: SyntaxTree, constraints: Optional[dict] = None
) -> bool:
    """Whether some leaf coloring lets color-constrained Merge build the bare
    tree as a single component.

    Merging only adds vertices above existing ones, so a build of the tree
    forms subtrees of it alone: a pair of components whose bare merge is not
    one of the tree's subtrees is skipped before any colored merge is built.
    """
    constraints = _checked_constraints(rs, constraints)
    target = tree.key
    subtrees = [t for _, t in positions(tree)]
    subtree_keys = {t.key for t in subtrees}
    leaves = [t for t in subtrees if isinstance(t, Leaf)]
    choice_lists = [
        [CLeaf(l.name, c, trace=l.trace) for c in _leaf_choices(rs, l, constraints)]
        for l in leaves
    ]
    for start in itertools.product(*choice_lists):
        seen = {tuple(sorted(repr(x) for x in start))}
        stack = [start]
        while stack:
            comps = stack.pop()
            bares = [bare(c) for c in comps]
            if len(comps) == 1 and bares[0].key == target:
                ok, _ = accepts(rs, comps[0])
                if ok:
                    return True
                continue
            for i, j in itertools.combinations(range(len(comps)), 2):
                if Node(bares[i], bares[j]).key not in subtree_keys:
                    continue
                for new_comps, _root in _colored_merges(comps, i, j, rs):
                    sig = tuple(sorted((repr(x) for x in new_comps)))
                    if sig not in seen:
                        seen.add(sig)
                        stack.append(new_comps)
    return False


# ---------------------------------------------------------------------------
# JSON

def generator_to_json(g: Generator) -> dict:
    return {"root": g.root, "children": list(g.children), "tag": g.tag}


def pattern_to_json(p: Pattern) -> dict:
    if p.is_leaf:
        return {"color": p.color}
    return {"color": p.color, "children": [pattern_to_json(c) for c in p.children]}


def ruleset_to_json(rs: RuleSet) -> dict:
    return {
        "name": rs.name,
        "colors": sorted(rs.colors),
        "generators": [generator_to_json(g) for g in rs.generators],
        "composite": rs.composite,
        "composites": [pattern_to_json(p) for p in rs.composites],
        "global_checks": list(rs.global_checks),
        "role_inject": {k: list(v) for k, v in rs.role_inject.items()},
        "role_discharge": dict(rs.role_discharge),
    }


def colored_tree_to_json(t: ColoredTree) -> dict:
    if isinstance(t, CLeaf):
        out = {"label": t.label, "color": t.color}
        if t.trace:
            out["trace"] = True
        return out
    return {
        "color": t.color,
        "children": [colored_tree_to_json(t.left), colored_tree_to_json(t.right)],
    }


def colored_tree_from_json(obj) -> ColoredTree:
    """Decodes `colored_tree_to_json`; a bad vertex raises ColoringError
    naming the field."""
    if not isinstance(obj, dict):
        raise ColoringError(f"colored tree: a vertex must be an object, got {_short(obj)}")
    if not isinstance(obj.get("color"), str):
        raise ColoringError(f"colored tree: vertex without a string 'color': {_short(obj)}")
    if "children" in obj:
        kids = obj["children"]
        if not isinstance(kids, list) or len(kids) != 2:
            raise ColoringError(f"colored tree: 'children' must list two vertices: {_short(obj)}")
        return CNode(obj["color"], colored_tree_from_json(kids[0]), colored_tree_from_json(kids[1]))
    if not isinstance(obj.get("label"), str):
        raise ColoringError(f"colored tree: leaf without a string 'label': {_short(obj)}")
    return CLeaf(obj["label"], obj["color"], trace=bool(obj.get("trace")))
