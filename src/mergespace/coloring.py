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
from dataclasses import dataclass, field
from typing import Optional

from mergespace.forest import Leaf, Node, SyntaxTree, leaf, trace_leaf, tree_from_json

WILDCARD = "*"


class ColoringError(ValueError):
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


def color_of(t: ColoredTree) -> str:
    return t.color


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

    def matches(self, root: str, c1: str, c2: str) -> bool:
        if self.root != root:
            return False
        g1, g2 = self.children
        return (_cm(g1, c1) and _cm(g2, c2)) or (_cm(g1, c2) and _cm(g2, c1))

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
    name: str
    colors: set
    generators: list
    composites: list = field(default_factory=list)  # (root) carried by Pattern.color
    global_checks: list = field(default_factory=list)
    role_inject: dict = field(default_factory=dict)  # color -> iterable of role names
    role_discharge: dict = field(default_factory=dict)  # color -> role name

    @property
    def composite(self) -> bool:
        return bool(self.composites)

    def known(self, color: str) -> bool:
        return color in self.colors

    def extended(self, name: str, extra_generators, extra_colors=()) -> "RuleSet":
        return RuleSet(
            name=name,
            colors=set(self.colors) | set(extra_colors),
            generators=list(self.generators) + list(extra_generators),
            composites=list(self.composites),
            global_checks=list(self.global_checks),
            role_inject=dict(self.role_inject),
            role_discharge=dict(self.role_discharge),
        )


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


def _single_vertex_ok(rs: RuleSet, v: CNode) -> bool:
    c1, c2 = color_of(v.left), color_of(v.right)
    return any(g.matches(v.color, c1, c2) for g in rs.generators)


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
        if _single_vertex_ok(rs, t):
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
            if not _single_vertex_ok(rs, x):
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

MAX_SEARCH_LEAVES = 14


def _leaf_choices(rs: RuleSet, t: SyntaxTree, constraints: dict) -> list:
    key = t.key  # traces use their ~name~ form, so they constrain separately
    if key in constraints:
        allowed = constraints[key]
    else:
        allowed = sorted(rs.colors)
    for c in allowed:
        if not rs.known(c):
            raise ColoringError(f"constraint color {c!r} not in rule set {rs.name}")
    return list(allowed)


def color_search(
    rs: RuleSet,
    tree: SyntaxTree,
    constraints: Optional[dict] = None,
    limit: Optional[int] = None,
) -> list:
    """All accepted colorings of a bare tree, leaf colors drawn from the
    constraint map (label -> allowed colors; unconstrained leaves range over
    the whole palette).  An empty result means the structure is filtered out.
    """
    if tree.leaves > MAX_SEARCH_LEAVES:
        raise ColoringError(f"search bounded at {MAX_SEARCH_LEAVES} leaves")
    constraints = constraints or {}
    # vertices consumed inside a composite body are justified top-down; allow
    # their colors as candidates, but only where the children shallowly match
    # some fragment of a composite body (anything else can never be covered)
    fragments: list = []
    for pat in rs.composites:
        stack = [pat]
        while stack:
            p = stack.pop()
            if not p.is_leaf:
                fragments.append(p)
                stack.extend(p.children)

    def _shallow(p: Pattern, child: ColoredTree) -> bool:
        if p.is_leaf:
            return p.color == WILDCARD or p.color == child.color
        return isinstance(child, CNode) and child.color == p.color

    def fragment_roots(lt: ColoredTree, rt: ColoredTree) -> set:
        roots = set()
        for p in fragments:
            p1, p2 = p.children
            if (_shallow(p1, lt) and _shallow(p2, rt)) or (
                _shallow(p1, rt) and _shallow(p2, lt)
            ):
                roots.add(p.color)
        return roots

    memo: dict = {}

    def colorings(t: SyntaxTree, path: tuple) -> list:
        if path in memo:
            return memo[path]
        if isinstance(t, Leaf):
            out = [CLeaf(t.name, c, trace=t.trace) for c in _leaf_choices(rs, t, constraints)]
        else:
            out = []
            for lt in colorings(t.left, path + (0,)):
                for rt in colorings(t.right, path + (1,)):
                    cl, cr = color_of(lt), color_of(rt)
                    roots = {g.root for g in rs.generators if g.child_pairs(cl, cr)}
                    if fragments:
                        roots |= fragment_roots(lt, rt)
                    for root in sorted(roots):
                        out.append(CNode(root, lt, rt))
        memo[path] = out
        return out

    out = []
    shared_memo: dict = {}
    for colored in colorings(tree, ()):
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
    ``expect``, ``min_colorings`` and ``max_colorings`` all hold."""
    from mergespace.rulesets import get_ruleset  # rulesets imports this module

    tree = tree_from_json(blob["tree"])
    rows = []
    for case in blob["cases"]:
        found = color_search(get_ruleset(case["ruleset"]), tree, blob.get("constraints"))
        verdict = "accept" if found else "reject"
        ok = verdict == case["expect"]
        if ok and case.get("min_colorings"):
            ok = len(found) >= case["min_colorings"]
        if ok and case.get("max_colorings") is not None:
            ok = len(found) <= case["max_colorings"]
        rows.append({"ruleset": case["ruleset"], "verdict": verdict, "colorings": len(found), "ok": ok})
    return rows


# ---------------------------------------------------------------------------
# color-constrained Merge (External Merge over colored components)

def colored_merge_successors(components: tuple, rs: RuleSet, cfg=None) -> list:
    """One-step color-constrained merges of whole components.

    A pair of components with root colors (c1, c2) merges iff some generator
    has those child colors; the new vertex takes that generator's root color.
    Movement bookkeeping is already materialized as slot-colored leaves, so
    this single move type generates exactly the accepted trees bottom-up.
    Returns (new components tuple, generator, (i, j)) triples.
    """
    out = []
    n = len(components)
    for i in range(n):
        for j in range(i + 1, n):
            c1, c2 = color_of(components[i]), color_of(components[j])
            roots = set()
            for g in rs.generators:
                if g.child_pairs(c1, c2) and g.root not in roots:
                    roots.add(g.root)
                    merged = CNode(g.root, components[i], components[j])
                    rest = tuple(
                        x for k, x in enumerate(components) if k not in (i, j)
                    )
                    out.append((rest + (merged,), g, (i, j)))
    return out


def reachable_by_colored_merge(
    rs: RuleSet, tree: SyntaxTree, constraints: Optional[dict] = None
) -> bool:
    """Whether some leaf coloring lets color-constrained Merge build the bare
    tree as a single component."""
    constraints = constraints or {}
    target = tree.key
    leaves = []

    def collect(t):
        if isinstance(t, Leaf):
            leaves.append(t)
        else:
            collect(t.left)
            collect(t.right)

    collect(tree)
    choice_lists = [
        [CLeaf(l.name, c, trace=l.trace) for c in _leaf_choices(rs, l, constraints)]
        for l in leaves
    ]
    for start in itertools.product(*choice_lists):
        seen = {tuple(sorted(repr(x) for x in start))}
        stack = [start]
        while stack:
            comps = stack.pop()
            if len(comps) == 1 and bare(comps[0]).key == target:
                ok, _ = accepts(rs, comps[0])
                if ok:
                    return True
                continue
            for new_comps, _g, _ij in colored_merge_successors(tuple(comps), rs):
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


def pattern_from_json(obj) -> Pattern:
    kids = tuple(pattern_from_json(c) for c in obj.get("children", ()))
    return Pattern(obj["color"], kids)


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


def ruleset_from_json(obj) -> RuleSet:
    return RuleSet(
        name=obj["name"],
        colors=set(obj["colors"]),
        generators=[
            Generator(g["root"], tuple(g["children"]), g.get("tag", "base"))
            for g in obj["generators"]
        ],
        composites=[pattern_from_json(p) for p in obj.get("composites", ())],
        global_checks=list(obj.get("global_checks", ())),
        role_inject={k: tuple(v) for k, v in obj.get("role_inject", {}).items()},
        role_discharge=dict(obj.get("role_discharge", {})),
    )


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
    if "children" in obj:
        l, r = obj["children"]
        return CNode(obj["color"], colored_tree_from_json(l), colored_tree_from_json(r))
    return CLeaf(obj["label"], obj["color"], trace=bool(obj.get("trace")))
