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
    generator is filed under its child pair, in both orders, wildcards
    included, and a lookup unions the buckets ``{c1, *} x {c2, *}``.  The
    internal vertices of the composite bodies are filed the same way, a body
    leaf keyed by its color or ``*``, a body vertex by (color, True) for "a
    vertex of this color".  Generators and composites are stored as tuples,
    so neither can go stale.
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
        self._index = _filed((g.children, g.root) for g in self.generators)
        self._bodies = _filed(
            ([q.color if q.is_leaf else (q.color, True) for q in p.children], p.color)
            for body in self.composites
            for p in _internal(body)
        )

    @property
    def composite(self) -> bool:
        return bool(self.composites)

    def known(self, color: str) -> bool:
        return color in self.colors

    def roots(self, c1: str, c2: str) -> frozenset:
        """Root colors of every generator whose children match (c1, c2) in
        either order."""
        return _lookup(self._index, (c1, WILDCARD), (c2, WILDCARD))

    def candidate_roots(self, t: Node, c1: str, c2: str) -> list:
        """Candidate colors, sorted, of the vertex ``t`` over children colored
        (c1, c2): the generator roots, plus the colors of the body vertices
        whose children match.  A color that only a body offers is justified
        by a body match at or above ``t``; any other color can never be
        covered."""
        roots = self.roots(c1, c2)
        if self._bodies:
            keys = [(c, WILDCARD, (c, isinstance(x, Node))) for c, x in ((c1, t.left), (c2, t.right))]
            roots = roots | _lookup(self._bodies, *keys)
        return sorted(roots)

    def extended(self, name: str, extra_generators) -> "RuleSet":
        return RuleSet(
            name=name,
            colors=set(self.colors),
            generators=self.generators + tuple(extra_generators),
            composites=self.composites,
            global_checks=list(self.global_checks),
            role_inject=dict(self.role_inject),
            role_discharge=dict(self.role_discharge),
        )


_NONE = frozenset()


def _filed(entries) -> dict:
    """Root colors by child key pair; both orders of a pair share a bucket."""
    index: dict = {}
    for (a, b), root in entries:
        bucket = index[b, a] = index.setdefault((a, b), set())
        bucket.add(root)
    return index


def _lookup(index: dict, keys1, keys2) -> frozenset:
    out = _NONE
    for a in keys1:
        for b in keys2:
            out = out | index.get((a, b), _NONE)
    return out


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


def _uncovered(rs: RuleSet, t: ColoredTree, memo: dict) -> Optional[tuple]:
    """None when the subtree ``t`` is accepted, else the path below ``t`` of
    its first vertex, in pre-order, that neither a generator over covered
    children nor a composite body covers: a vertex that is a generator root
    over its children's colors passes the blame to its first uncovered
    child.  ``memo`` is keyed by vertex identity."""
    if isinstance(t, CLeaf):
        return None
    key = id(t)
    if key in memo:
        return memo[key]
    bad = ()
    if t.color in rs.roots(t.left.color, t.right.color):
        below = ((k, _uncovered(rs, x, memo)) for k, x in enumerate((t.left, t.right)))
        bad = next(((k,) + b for k, b in below if b is not None), None)
    if bad is not None and any(_match_pattern(rs, pat, t, memo) for pat in rs.composites):
        bad = None
    memo[key] = bad
    return bad


def _match_pattern(rs: RuleSet, pat: Pattern, t: ColoredTree, memo: dict) -> bool:
    """Pattern internal vertices must coincide with tree vertices (colors
    fixed, no further generator needed there); pattern leaves require the
    plugged-in subtree to be accepted with the stated root color."""
    if pat.is_leaf:
        return pat.color in (WILDCARD, t.color) and _uncovered(rs, t, memo) is None
    if isinstance(t, CLeaf) or t.color != pat.color:
        return False
    p1, p2 = pat.children
    return (
        _match_pattern(rs, p1, t.left, memo) and _match_pattern(rs, p2, t.right, memo)
    ) or (
        _match_pattern(rs, p1, t.right, memo) and _match_pattern(rs, p2, t.left, memo)
    )


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


def _failed_check(rs: RuleSet, t: ColoredTree) -> Optional[str]:
    return next((check for check in rs.global_checks if not GLOBAL_CHECKS[check](rs, t)), None)


def accepts(rs: RuleSet, t: ColoredTree):
    """(accepted, first failing vertex path or check name)."""
    _check_colors_known(rs, t)
    bad = _uncovered(rs, t, {})
    if bad is None:
        bad = _failed_check(rs, t)
    return bad is None, bad


# ---------------------------------------------------------------------------
# coloring search over bare trees

# `color_search` refuses to build more candidate colored trees than this
# (leaves and subtrees included; see `candidate_table`).  Measured on one
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


def candidate_table(rs: RuleSet, tree: SyntaxTree, constraints: Optional[dict] = None) -> tuple:
    """How many colored trees `color_search` builds on ``tree``, counting
    every vertex's candidates (leaves included), without building any:
    exact counts per root color, bottom-up.  With the count comes each
    internal vertex's candidate roots by pair of child colors, keyed by the
    vertex's id: every pair that occurs at a vertex is looked up once there.
    """
    constraints = _checked_constraints(rs, constraints)
    total = 0
    roots_at: dict = {}

    def count(t: SyntaxTree) -> Counter:
        nonlocal total
        if isinstance(t, Leaf):
            out = Counter(_leaf_choices(rs, t, constraints))
        else:
            left, right = count(t.left), count(t.right)
            table = roots_at[id(t)] = {}
            out = Counter()
            for cl, nl in left.items():
                for cr, nr in right.items():
                    roots = table[cl, cr] = rs.candidate_roots(t, cl, cr)
                    for root in roots:
                        out[root] += nl * nr
        total += sum(out.values())
        return out

    count(tree)
    return total, roots_at


def color_search(rs: RuleSet, tree: SyntaxTree, constraints: Optional[dict] = None) -> list:
    """All accepted colorings of a bare tree, leaf colors drawn from the
    constraint map (label -> allowed colors; unconstrained leaves range over
    the whole palette).  An empty result means the structure is filtered out.
    Searches that would build more than ``MAX_CANDIDATES`` candidates are
    refused before building any.
    """
    total, roots_at = candidate_table(rs, tree, constraints)
    constraints = constraints or {}
    if total > MAX_CANDIDATES:
        raise ColoringError(
            f"the search would build {total} candidate colorings, over the bound {MAX_CANDIDATES}"
        )

    def colorings(t: SyntaxTree) -> list:
        if isinstance(t, Leaf):
            return [CLeaf(t.name, c, trace=t.trace) for c in _leaf_choices(rs, t, constraints)]
        lefts, rights, table = colorings(t.left), colorings(t.right), roots_at[id(t)]
        return [CNode(root, lt, rt) for lt in lefts for rt in rights for root in table[lt.color, rt.color]]

    # candidates hold known colors only, and each vertex is a generator root
    # over its children unless a body offered its color
    out = []
    memo: dict = {}
    for colored in colorings(tree):
        if rs.composite and _uncovered(rs, colored, memo) is not None:
            continue
        if _failed_check(rs, colored) is None:
            out.append(colored)
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
