"""Optimality accounting for Merge steps.

Three regimes: a bottom-up search cost (extraction of an accessible term
costs its share of the host's leaves, whole components cost 1, and a merge
costs the component count of its sources minus its arguments' costs), the
resource deltas (changes to component count b0, accessible-term count alpha,
and sigma = alpha + b0, per coproduct mode), and complexity loss (degree
stripped from a component's root).

External and Internal Merge are the zero-cost operations of the search
regime; type (1) Sideward Merge is resource-neutral under the deletion
quotient; only EM and IM avoid complexity loss.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from mergespace.engine import (
    EM,
    ID_SM,
    IM,
    SM1,
    SM2,
    SM3,
    Derivation,
    MergeStep,
)
from mergespace.forest import DomainError, Node

# (db0, dalpha, dsigma) per tag and coproduct mode
RR_TABLE = {
    (EM, "c"): (-1, 2, 1),
    (EM, "d"): (-1, 2, 1),
    (IM, "c"): (0, 1, 1),
    (IM, "d"): (0, 0, 0),
    (SM1, "c"): (0, 1, 1),
    (SM1, "d"): (0, 0, 0),
    (SM2, "c"): (1, 0, 1),
    (SM2, "d"): (1, -2, -1),
    (SM3, "c"): (1, 0, 1),
    (SM3, "d"): (1, -2, -1),
}

# composite EM after SM, by the SM's tag
EM_AFTER_SM_TABLE = {
    (SM1, "c"): (-1, 3, 2),
    (SM1, "d"): (-1, 2, 1),
    (SM2, "c"): (0, 2, 2),
    (SM2, "d"): (0, 0, 0),
    (SM3, "c"): (0, 2, 2),
    (SM3, "d"): (0, 0, 0),
}

# the cost regimes of a weighted Merge chain, in the order of cost_ratios
REGIMES = ("ms", "my", "cl", "total")

_B_COMPONENTS = {EM: 2, IM: 1, SM1: 2, SM2: 2, SM3: 1, ID_SM: 1}


class CostError(DomainError):
    pass


def _is_sibling_cut(step: MergeStep) -> bool:
    (_, p), (_, q) = step.sources
    return step.tag == SM3 and p[:-1] == q[:-1]


def _ms_ratio(step: MergeStep, grading: int = 0) -> tuple:
    """Search cost of one Merge application as a reduced (numerator,
    denominator) int pair; (0, 1) exactly for EM, IM and identity
    reassembly (for IM, b = 1 and the extraction and quotient costs are
    complementary).  Each extraction costs its share of the grading, its
    host's leaves unless a grading is given, and SM1's whole-component
    argument costs 1."""
    tag = step.tag
    if tag in (EM, IM, ID_SM):
        return 0, 1
    num, den = _B_COMPONENTS[tag] - (1 if tag == SM1 else 0), 1
    for sub, host in step.extractions:
        whole = grading or host.leaves
        num, den = num * whole - sub.leaves * den, den * whole
    g = math.gcd(num, den)
    return num // g, den // g


def ms_cost(step: MergeStep) -> Fraction:
    """Search cost of one Merge application; 0 exactly for EM and IM."""
    return Fraction(*_ms_ratio(step))


def cost_ratios(step: MergeStep) -> tuple:
    """The cost of one step under each of REGIMES, in that order, as reduced
    (numerator, denominator) int pairs: search, the sigma delta, complexity
    loss and their sum.  ms_cost is the search cost's Fraction view."""
    num, den = _ms_ratio(step)
    my = rr_delta(step)[2]
    cl = cl_cost(step)
    return (num, den), (my, 1), (cl, 1), (num + (my + cl) * den, den)


def rr_delta(step: MergeStep) -> tuple:
    """(db0, dalpha, dsigma) from the actual workspaces; asserted against the
    table row for the tag and mode (a mismatch means an engine bug)."""
    before, after = step.input_ws, step.output_ws
    db0, dalpha = after.b0 - before.b0, after.alpha - before.alpha
    got = (db0, dalpha, db0 + dalpha)  # sigma = alpha + b0
    key = (step.tag, step.mode)
    if key in RR_TABLE and not (step.mode == "c" and _is_sibling_cut(step)):
        if got != RR_TABLE[key]:
            raise CostError(f"{step.tag}/{step.mode}: computed {got}, table {RR_TABLE[key]}")
    return got


def cl_cost(step: MergeStep) -> int:
    """Complexity loss: total extracted degree landing a host's root in a
    smaller component; 0 for EM, IM and identity reassembly."""
    if step.tag in (EM, IM, ID_SM):
        return 0
    return sum(sub.leaves for sub, _ in step.extractions)


def cl_cost_by_type(step: MergeStep) -> int:
    """Flat per-operation variant: 1 for SM1, 2 for SM2/SM3, else 0."""
    return {SM1: 1, SM2: 2, SM3: 2}.get(step.tag, 0)


class HierarchyClass(enum.Enum):
    HEAD_TO_HEAD = "head-to-head"
    HEAD_TO_PHRASE = "head-to-phrase"
    PHRASE_TO_HEAD = "phrase-to-head"
    PHRASE_TO_PHRASE = "phrase-to-phrase"


def classify_hierarchy(sm_step: MergeStep, em_step: MergeStep):
    """Class and violation profile of an EM-after-SM1 composite.

    The SM1 extracts T_v and merges it with a whole component T'; the EM must
    merge that result with the SM1 host's own quotient.  Profile is
    (complexity-loss violation deg(T_v), degree gap to a pure movement
    deg(T')).
    """
    if sm_step.tag != SM1 or em_step.tag != EM:
        raise CostError("composite must be an SM1 followed by an EM")
    if sm_step.output_ws != em_step.input_ws:
        raise CostError("EM input does not match SM1 output")
    t_v, t_prime = sm_step.pair
    merged = {t.key for t in em_step.pair}
    built_key = Node(t_v, t_prime).key
    if built_key not in merged:
        raise CostError("EM does not merge the SM1 output")
    quotient_keys = merged - {built_key}
    if not quotient_keys:
        raise CostError("EM must merge the SM1 output with the host quotient")
    deg_v, deg_p = t_v.leaves, t_prime.leaves
    cls = {
        (True, True): HierarchyClass.HEAD_TO_HEAD,
        (True, False): HierarchyClass.HEAD_TO_PHRASE,
        (False, True): HierarchyClass.PHRASE_TO_HEAD,
        (False, False): HierarchyClass.PHRASE_TO_PHRASE,
    }[(deg_v == 1, deg_p == 1)]
    return cls, (deg_v, deg_p)


@dataclass
class CostVector:
    tag: str
    ms: Fraction
    ms_ws: Fraction
    db0: int
    dalpha: int
    dsigma: int
    dsigma_hat: int
    cl: int
    cl_type: int


def step_costs(step: MergeStep) -> CostVector:
    db0, dalpha, dsigma = rr_delta(step)
    return CostVector(
        tag=step.tag,
        ms=ms_cost(step),
        ms_ws=Fraction(*_ms_ratio(step, step.input_ws.degree)),
        db0=db0,
        dalpha=dalpha,
        dsigma=dsigma,
        dsigma_hat=2 * db0 + dalpha,  # sigma_hat = b0 + sigma
        cl=cl_cost(step),
        cl_type=cl_cost_by_type(step),
    )


def _table_my(tag: str, mode: str, fallback: int) -> int:
    row = RR_TABLE.get((tag, mode))
    return row[2] if row else fallback


def derivation_cost(deriv: Derivation) -> dict:
    """Per-step and total costs of a replayed derivation.

    Reports the search total under both the per-component and the
    workspace-grading accounting, the resource total under both coproduct
    modes (the off-mode value read from the tag table), and complexity loss
    both by extracted degree and by operation type.
    """
    steps = [step_costs(s) for s in deriv.steps]
    mode = deriv.mode
    my_actual = sum(v.dsigma for v in steps)
    my_d = sum(
        v.dsigma if mode == "d" else _table_my(v.tag, "d", v.dsigma) for v in steps
    )
    my_c = sum(
        v.dsigma if mode == "c" else _table_my(v.tag, "c", v.dsigma) for v in steps
    )
    totals = {
        "ms": sum((v.ms for v in steps), Fraction(0)),
        "ms_ws": sum((v.ms_ws for v in steps), Fraction(0)),
        "my": my_actual,
        "my_d": my_d,
        "my_c": my_c,
        "cl": sum(v.cl for v in steps),
        "cl_type": sum(v.cl_type for v in steps),
        "n_sm": sum(1 for v in steps if v.tag in (SM1, SM2, SM3)),
        "n_em": sum(1 for v in steps if v.tag == EM),
        "n_im": sum(1 for v in steps if v.tag == IM),
    }
    return {"mode": mode, "steps": steps, "totals": totals}


# ---------------------------------------------------------------------------
# quotient-graph costs (FormCopy with cancellation of copies)

def quotient_cost(v_before: int, v_after: int) -> Fraction:
    """Vertex-ratio cost of one graph identification; chained identifications
    sum their costs."""
    if v_before <= 0 or v_after <= 0:
        raise CostError("vertex counts must be positive")
    if v_after > v_before:
        raise CostError("a quotient cannot grow the vertex count")
    return Fraction(v_after, v_before)


def fc_cost_report(graph, n_em_steps: int = 0) -> dict:
    """Costs of a FormCopy quotient sequence.

    ``my_quotient`` is the accessible-term loss of the identifications
    (vertex classes removed); ``my_em`` charges +1 per structure-building EM
    that formed the tree.  The two are reported separately because summaries
    that mix them do not agree; downstream consumers pick explicitly.
    """
    history = graph.history
    ms = sum(
        (quotient_cost(history[i], history[i + 1]) for i in range(len(history) - 1)),
        Fraction(0),
    )
    return {
        "vertex_history": list(history),
        "ms": ms,
        "my_quotient": history[0] - history[-1],
        "my_em": n_em_steps,
        "cl": graph.initial_leaf_count - graph.leaf_count,
    }
