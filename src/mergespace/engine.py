"""The Merge action on workspaces.

A single application picks a pair (S, S') out of a coproduct term, grafts
M(S, S'), and reassembles the workspace.  Depending on where S and S' come
from this is External Merge, Internal Merge, one of the three Sideward
Merge forms, or the identity reassembly.  Growth happens only at roots;
nothing in this module can insert material at an interior edge.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterator

from mergespace.forest import (
    DomainError,
    ForestError,
    Leaf,
    Node,
    SyntaxTree,
    Workspace,
    _by_key,
    _Frozen,
    _new,
    _setters,
    accessible_terms,
    contract_up,
    nested,
    ordered_workspace,
    path_vertices,
    positions,
    subtree_at,
    trace_leaf,
    tree_from_json,
    workspace_from_json,
)

EM, IM, SM1, SM2, SM3, ID_SM = "EM", "IM", "SM1", "SM2", "SM3", "ID"


class MergeError(DomainError):
    pass


class ECViolation(MergeError):
    """Raised for any request that would grow structure at a non-root vertex."""


@dataclass(frozen=True)
class MergeConfig:
    mode: str = "d"  # coproduct flavor: "c" traces, "d" deletion
    allow_im: bool = True
    allow_sm: bool = True
    allow_identity_sm: bool = False
    allow_sibling_cut: bool = False  # non-root cuts of both edges below one vertex
    atomic_sm_only: bool = False  # SM extractions restricted to single leaves; no SM2

    def __post_init__(self):
        _checked_mode(self.mode)


def _checked_mode(mode) -> str:
    if mode not in ("c", "d"):
        raise MergeError(f"unknown coproduct mode {mode!r}")
    return mode


class MergeStep(_Frozen):
    """One application of a Merge operator.

    ``sources`` is the source pair (a, b) the step was built from;
    ``extractions`` holds (subtree, host component) for each accessible term
    pulled out; ``pair`` is the merged (S, S'); the tag is fixed by the
    provenance of S and S'.  Equal when every field is.
    """

    __slots__ = ("input_ws", "output_ws", "tag", "mode", "pair", "extractions", "sources")

    def __new__(cls, input_ws, output_ws, tag, mode, pair, extractions=(), sources=()):
        self = _new(cls)
        _step_input(self, input_ws)
        _step_output(self, output_ws)
        _step_tag(self, tag)
        _step_mode(self, mode)
        _step_pair(self, pair)
        _step_extractions(self, extractions)
        _step_sources(self, sources)
        return self

    def _fields(self) -> tuple:
        return self.input_ws, self.output_ws, self.tag, self.mode, self.pair, self.extractions, self.sources

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"<{self.tag} {self.input_ws!r} -> {self.output_ws!r}>"


_step_input, _step_output, _step_tag, _step_mode, _step_pair, _step_extractions, _step_sources = _setters(MergeStep)


# A source is (component index, path), as forest.accessible_terms names a
# term; the empty path is the whole component.  For IM the second source is
# the host itself, after the cut.


def _tag(a: tuple, b: tuple) -> str:
    """The Merge form of a source pair, read off where S and S' come from."""
    if not a[1]:
        a, b = b, a
    (ci, p), (cj, q) = a, b
    if not p:
        return EM
    if not q:
        return IM if ci == cj else SM1
    if ci != cj:
        return SM2
    return ID_SM if {p, q} == {(0,), (1,)} else SM3


def merge_pairs(ws: Workspace, cfg: MergeConfig = MergeConfig()) -> Iterator[tuple]:
    """Every legal source pair under the flags, EM, IM, SM1, SM2, SM3, ID.

    EM pairs two whole components; IM an accessible term with its own host
    (skipped in mode "d" when the term is a root child, where it is just the
    identity); SM1 a term with another whole component; SM2 terms of two
    components; SM3 two disjoint terms of one component, never the two root
    children (that is ID) and other sibling pairs only with
    allow_sibling_cut.  atomic_sm_only keeps only single-leaf SM extractions
    and drops SM2, the edge set of the atomic subgraph.

    The terms come in component order and pre-order, and a term's subtree
    holds the sub.alpha terms right after it.  So the SM2 partners of a term
    are the terms of later components, and its SM3 partners the terms after
    its subtree up to the end of its component; when the term is a left
    child, the first of those is its right sibling if that holds a live
    leaf.  No pair is tested for nesting.
    """
    if ws.b0 < 1:
        raise MergeError("workspace has no components")
    n = ws.b0
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, ()), (j, ())
    terms = accessible_terms(ws)
    if cfg.allow_im:
        for (c, p), _ in terms:
            if cfg.mode == "c" or len(p) > 1:
                yield (c, p), (c, ())
    if cfg.allow_sm:
        atomic = cfg.atomic_sm_only
        if atomic:
            terms = [term for term in terms if isinstance(term[1], Leaf)]
        sources = [src for src, _ in terms]
        for c, p in sources:
            for other in range(n):
                if other != c:
                    yield (c, p), (other, ())
        end = {c: k + 1 for k, (c, _) in enumerate(sources)}  # past c's last source
        if not atomic:
            for a in sources:
                for b in sources[end[a[0]] :]:
                    yield a, b
        sibling_cut = cfg.allow_sibling_cut
        for k, (a, sub) in enumerate(terms):
            p, start, stop = a[1], k + 1 + sub.alpha, end[a[0]]
            if start < stop and p[-1] == 0 and (len(p) == 1 or not sibling_cut):
                if sources[start][1] == p[:-1] + (1,):
                    start += 1  # siblings; the root pair is the identity reassembly
            for b in sources[start:stop]:
                yield a, b
    if cfg.allow_identity_sm:
        for ci, comp in enumerate(ws.components):
            if isinstance(comp, Node):
                yield (ci, (0,)), (ci, (1,))


def apply(ws: Workspace, a: tuple, b: tuple, mode: str = "d") -> MergeStep:
    """M_{S,S'} for a source pair that merge_pairs yields in either order
    under every form of the mode, sibling cuts included: cut each host
    once, graft Node(S, S') at a new root and reassemble the workspace.
    Any other pair is a MergeError naming it."""
    if not any(pair == (a, b) or pair == (b, a) for pair in merge_pairs(ws, _every_form(mode, True))):
        raise MergeError(f"source pair {a!r}, {b!r} is not a Merge application in {ws!r}")
    return _apply(ws, a, b, mode, {})


def _cut(ws: Workspace, src: tuple, mode: str, memo: dict) -> tuple:
    """(vertices, levels) of the cut at the source (c, p), p non-empty,
    kept in memo under the source: the vertices on p from the root of
    component c down to the term, and levels[j] the subtree at p[:j] with
    the term traced (mode "c") or removed and contracted (mode "d").
    levels[0] is the host's quotient."""
    hit = memo.get(src)
    if hit is None:
        c, p = src
        vertices = path_vertices(ws.components[c], p)
        cut = trace_leaf(vertices[-1].key) if mode == "c" else None
        hit = memo[src] = vertices, contract_up(cut, vertices, p, len(p))
    return hit


def _apply(ws: Workspace, a: tuple, b: tuple, mode: str, memo: dict) -> MergeStep:
    """The step of a legal source pair, its cuts shared through memo.  The
    form is read off the pair as _tag reads it; each host's quotient is the
    top cut level of its source, and an SM3 or ID pair joins its sources'
    levels below the vertex where their paths part and rebuilds only the
    vertices above it.  The input's other components stay in their sorted
    order, and the new ones are inserted among them, each after those with
    its key."""
    comps = ws.components
    (ca, pa), (cb, pb) = a, b
    rest = list(comps)
    del rest[cb]
    if ca != cb:
        del rest[ca - (ca > cb)]  # one down if it came after cb
    if pa and pb:
        (va, la), (vb, lb) = _cut(ws, a, mode, memo), _cut(ws, b, mode, memo)
        s, t = va[-1], vb[-1]
        extractions = ((s, comps[ca]), (t, comps[cb]))
        if ca != cb:
            tag, quots = SM2, (la[0], lb[0])
        else:
            k = 0
            while pa[k] == pb[k]:
                k += 1
            # the vertex where the paths part takes each child's cut from
            # the source whose path goes down that child
            l, r = (la[k + 1], lb[k + 1]) if pb[k] else (lb[k + 1], la[k + 1])
            joined = r if l is None else l if r is None else Node(l, r)
            quots = (contract_up(joined, va, pa, k)[0],)
            tag = ID_SM if len(pa) == len(pb) == 1 else SM3
    elif pa or pb:
        c, p, other = (ca, pa, cb) if pa else (cb, pb, ca)
        vertices, levels = _cut(ws, (c, p), mode, memo)
        term = vertices[-1]
        extractions = ((term, comps[c]),)
        if other == c:  # the host itself, after the cut
            tag, whole, quots = IM, levels[0], ()
        else:
            tag, whole, quots = SM1, comps[other], (levels[0],)
        s, t = (term, whole) if pa else (whole, term)
    else:
        tag, s, t, extractions, quots = EM, comps[ca], comps[cb], (), ()
    for q in quots:
        if q is not None:
            insort(rest, q, key=_by_key)
    insort(rest, Node(s, t), key=_by_key)
    return MergeStep(ws, ordered_workspace(rest), tag, mode, (s, t), extractions, (a, b))


def all_merge_successors(ws: Workspace, cfg: MergeConfig = MergeConfig()) -> list:
    """Every one-step Merge application under the flags, in merge_pairs
    order.  The quotient W/S depends on S alone, so the steps share one
    memo of cut levels keyed by source: each term is cut once for all its
    partners, and an SM3 pair reuses both cuts below where its two paths
    part and rebuilds only the spine above.  The memo dies with the call."""
    memo: dict = {}
    return [_apply(ws, a, b, cfg.mode, memo) for a, b in merge_pairs(ws, cfg)]


# ---------------------------------------------------------------------------
# derivations

@dataclass
class Derivation:
    initial: Workspace
    mode: str
    steps: list = field(default_factory=list)

    @property
    def final(self) -> Workspace:
        return self.steps[-1].output_ws if self.steps else self.initial

    def __len__(self):
        return len(self.steps)


_ARITY = {EM: 2, IM: 1, SM1: 2, SM2: 2, SM3: 2, ID_SM: 1}


def _key_and_n(ref) -> tuple:
    if not isinstance(ref, dict) or not isinstance(ref.get("key"), str):
        raise MergeError(f"reference {ref!r} needs a string 'key'")
    n = ref.get("n", 0)
    if type(n) is not int or n < 0:
        raise MergeError(f"occurrence index {n!r} is not a non-negative integer")
    return ref["key"], n


def _resolve_occurrence(ws: Workspace, ref) -> tuple:
    key, n = _key_and_n(ref)
    hits = [src for src, sub in accessible_terms(ws) if sub.key == key]
    if not hits:
        raise MergeError(f"no accessible term with key {key!r}")
    if n >= len(hits):
        raise MergeError(f"occurrence {n} of {key!r} out of range ({len(hits)} found)")
    return hits[n]


def _resolve_component(ws: Workspace, ref) -> int:
    if isinstance(ref, dict) and "component" in ref:
        i = ref["component"]
        if type(i) is not int or not 0 <= i < ws.b0:
            raise MergeError(f"component index {i!r} out of range")
        return i
    key, n = _key_and_n(ref)
    hits = [i for i, t in enumerate(ws.components) if t.key == key]
    if not hits:
        raise MergeError(f"no component with key {key!r}")
    if n >= len(hits):
        raise MergeError(f"occurrence {n} of component {key!r} out of range ({len(hits)} found)")
    return hits[n]


def _resolve(ws: Workspace, op, args) -> tuple:
    """The source pair a script step names, in merge_pairs order."""
    if op not in _ARITY:
        raise MergeError("unknown op")
    if not isinstance(args, list) or len(args) != _ARITY[op]:
        raise MergeError(f"takes {_ARITY[op]} argument(s), got {args!r}")
    if op == EM:
        i, j = (_resolve_component(ws, r) for r in args)
        if i == j:
            raise MergeError("needs two distinct components")
        return (min(i, j), ()), (max(i, j), ())
    if op == ID_SM:
        c = _resolve_component(ws, args[0])
        if isinstance(ws.components[c], Leaf):
            raise MergeError(f"component {c} is a leaf and has no root children")
        return (c, (0,)), (c, (1,))
    a = _resolve_occurrence(ws, args[0])
    if op == IM:
        return a, (a[0], ())
    if op == SM1:
        return a, (_resolve_component(ws, args[1]), ())
    return tuple(sorted((a, _resolve_occurrence(ws, args[1]))))


def _every_form(mode: str, allow_sibling_cut: bool) -> MergeConfig:
    """The flags that admit every Merge form of the mode, IM, SM and ID
    included and SM not limited to leaves; sibling cuts as given."""
    return MergeConfig(mode=mode, allow_identity_sm=True, allow_sibling_cut=allow_sibling_cut)


def replay(initial: Workspace, script: list, mode: str = "d", allow_sibling_cut: bool = False) -> Derivation:
    """Execute a derivation script, verifying each step is a legal Merge
    application in the mode under every form of it, sibling cuts only with
    allow_sibling_cut.  Steps name extraction targets by canonical key
    plus occurrence index; any step requesting interior-edge growth raises
    ECViolation.  Errors read ``step {k}: {op}: {reason}``."""
    if not isinstance(script, list):
        raise MergeError("a script's steps must be a list")
    cfg = _every_form(mode, allow_sibling_cut)
    deriv = Derivation(initial, mode)
    ws = initial
    for k, raw in enumerate(script):
        op = raw.get("op") if isinstance(raw, dict) else None
        if op in ("INSERT", "LATE_MERGE", "M_MERGE"):
            raise ECViolation(f"step {k}: {op}: grows structure below a root")
        try:
            if not isinstance(raw, dict):
                raise MergeError(f"a step must be an object, got {raw!r}")
            a, b = _resolve(ws, op, raw.get("args", []))
            tag = _tag(a, b)
            if tag != op:
                raise MergeError(f"the named terms make {tag}, not {op}")
            if (a, b) not in merge_pairs(ws, cfg):
                raise MergeError(f"not a legal Merge application here: {_why_illegal(ws, a, b, mode)}")
        except MergeError as exc:
            raise MergeError(f"step {k}: {op}: {exc}") from exc
        step = _apply(ws, a, b, mode, {})  # legal, as checked above
        deriv.steps.append(step)
        ws = step.output_ws
    return deriv


# the one MergeConfig flag a script may set: replay admits every other form
SCRIPT_FLAGS = ("allow_sibling_cut",)


def load_script(blob) -> tuple:
    """The (initial workspace, steps, mode, allow_sibling_cut) of a
    derivation script, the arguments of `replay`, checked field by field:
    a bad field raises MergeError naming it.  The steps themselves are
    checked one by one by `replay`."""
    if not isinstance(blob, dict):
        raise MergeError("a script must be a JSON object")
    for name in ("initial", "steps"):
        if name not in blob:
            raise MergeError(f"script has no {name!r} field")
    flags = blob.get("flags", {})
    if not isinstance(flags, dict):
        raise MergeError(f"'flags' must be an object, got {flags!r}")
    for name, value in flags.items():
        if name not in SCRIPT_FLAGS:
            raise MergeError(f"flags: unknown flag {name!r}; known: {', '.join(SCRIPT_FLAGS)}")
        if not isinstance(value, bool):
            raise MergeError(f"flags: {name} must be true or false, got {value!r}")
    mode = _checked_mode(blob.get("mode", "d"))
    try:
        initial = workspace_from_json(blob["initial"])
    except ForestError as exc:
        raise MergeError(f"initial: {exc}") from None
    return initial, blob["steps"], mode, flags.get("allow_sibling_cut", False)


def _why_illegal(ws: Workspace, a: tuple, b: tuple, mode: str) -> str:
    """The rule by which replay's merge_pairs leaves out the resolved
    source pair (a, b).  Under every form of the mode each EM, SM1, SM2
    and ID pair is legal, so only IM and SM3 pairs get here."""
    if (a, b) in merge_pairs(ws, _every_form(mode, True)):
        return "the terms are siblings below a non-root vertex, a cut that needs the flag allow_sibling_cut"
    if not b[1]:
        return "IM of a root child is the identity in mode d"
    return "the terms are nested: one contains the other"


# ---------------------------------------------------------------------------
# FormCopy as a graph quotient

@dataclass
class QuotientGraph:
    """Tree vertices merged under FormCopy identifications; may have cycles."""

    leaf_count: int  # distinct non-trace leaf classes after identification
    initial_leaf_count: int
    history: list  # vertex count after each identification, starting value first


def load_form_copy(fc) -> tuple:
    """The (tree, pairs, n_em) of a FormCopy script's ``fc`` object, checked
    field by field: a bad field raises MergeError naming it."""
    if not isinstance(fc, dict):
        raise MergeError(f"fc: must be an object, got {fc!r:.80}")
    for name in ("tree", "pairs"):
        if name not in fc:
            raise MergeError(f"fc: no {name!r} field")
    try:
        tree = tree_from_json(fc["tree"])
    except ForestError as exc:
        raise MergeError(f"fc: tree: {exc}") from None
    pairs = fc["pairs"]
    if not isinstance(pairs, list):
        raise MergeError(f"fc: pairs must be a list, got {pairs!r:.80}")
    for k, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 3 and isinstance(p[0], str)
                and _is_count(p[1]) and _is_count(p[2])):
            raise MergeError(f"fc: pairs[{k}]: want [key, occurrence, occurrence], got {p!r:.80}")
    n_em = fc.get("n_em", 0)
    if not _is_count(n_em):
        raise MergeError(f"fc: n_em must be a non-negative integer, got {n_em!r:.80}")
    return tree, [tuple(p) for p in pairs], n_em


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def form_copy_quotient(tree: SyntaxTree, pairs: list) -> QuotientGraph:
    """Identify designated isomorphic subtree occurrences vertexwise.

    Each pair is (canonical key, occurrence index, occurrence index), indices
    into the pre-order list of positions carrying that key.  Identified
    occurrences must be distinct and disjoint.
    """
    vertices = list(positions(tree))
    parent: dict = {p: p for p, _ in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def count():
        return len({find(p) for p, _ in vertices})

    history = [count()]
    for key, na, nb in pairs:
        occ = [p for p, t in vertices if t.key == key]
        if na == nb:
            raise MergeError("identity pair: the two occurrences must differ")
        try:
            pa, pb = occ[na], occ[nb]
        except IndexError:
            raise MergeError(f"occurrence out of range for key {key!r}")
        if nested(pa, pb):
            raise MergeError("occurrences must be disjoint")
        # same canonical key -> identical canonical shape -> positionwise map
        for rel, _ in positions(subtree_at(tree, pa)):
            union(pa + rel, pb + rel)
        history.append(count())
    leaf_positions = [p for p, t in vertices if isinstance(t, Leaf) and not t.trace]
    return QuotientGraph(
        leaf_count=len({find(p) for p in leaf_positions}),
        initial_leaf_count=len(leaf_positions),
        history=history,
    )
