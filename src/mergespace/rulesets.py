"""Built-in rule sets: argument-role coloring and phase coloring.

The role system tracks who injects and who discharges the external (E) and
internal (I) roles, with a global conservation check.  The phase system
tracks edge-of-phase positions, head projections along the extended
projection spine, and movement landings; the split variants add the
edge-splitting generators that let sideward-formed clusters (multiple wh,
clitics, double accusatives) occupy a single edge position.

HEAD_CLASSES and SPINE are fixed module constants, not settings; the spine
runs TOP > C > INFL > v > V with D > N on the nominal side.
"""

from __future__ import annotations

from mergespace.coloring import ColoringError, Generator, Pattern, RuleSet, WILDCARD
from mergespace.forest import RULESET_NAMES

HEAD_CLASSES = ("C", "INFL", "v", "V", "D", "P", "N")
SPINE = (("TOP", "C"), ("C", "INFL"), ("INFL", "v"), ("v", "V"), ("D", "N"))

# ---------------------------------------------------------------------------
# role coloring


def theta_ruleset() -> RuleSet:
    colors = {
        "th_E",  # external-argument position / carrier
        "th_I",  # internal-argument position / carrier
        "head:EI",  # transitive head, injects E and I
        "head:E",  # unergative head
        "head:I",  # unaccusative head
        "pred:E",  # predicate still owing its external argument
        "clause",  # saturated clause
        "th0",  # clausal non-role position (movement landings)
        "th0'",  # adjunct non-role position (still propositional)
        "slot:th0",  # unit-slot marker left by a merge-with-unit move
    }
    gens = [
        Generator("pred:E", ("head:EI", "th_I")),
        Generator("clause", ("th_E", "pred:E")),
        Generator("clause", ("th_E", "head:E")),
        Generator("clause", ("th_I", "head:I")),
        Generator("pred:E", ("pred:E", "th0'")),
        Generator("clause", ("clause", "th0'")),
        # movement landing: the moved item was re-rooted to the non-role color
        Generator("th0", (WILDCARD, "slot:th0"), tag="IM"),
        Generator("clause", ("th0", "clause"), tag="IM"),
    ]
    return RuleSet(
        name="theta",
        colors=colors,
        generators=gens,
        global_checks=["theta"],
        role_inject={"head:EI": ("E", "I"), "head:E": ("E",), "head:I": ("I",)},
        role_discharge={"th_E": "E", "th_I": "I"},
    )


def theta_sm_nontheta_ruleset() -> RuleSet:
    """Adds the one-shot non-role generator usable by a sideward pairing;
    the conservation check still rejects it when no traces keep the counts
    balanced."""
    return theta_ruleset().extended(
        "theta+sm1", [Generator("th0", (WILDCARD, WILDCARD), tag="SM-split")]
    )


def theta_sm_split_ruleset() -> RuleSet:
    """The composition-of-unit-moves option: both extracted roots are
    re-rooted to the non-role color, then paired."""
    return theta_ruleset().extended(
        "theta+smsplit", [Generator("th0", ("th0", "th0"), tag="SM-split")]
    )


def theta_clitic_ruleset() -> RuleSet:
    """Clitic-on-subject pairing: a non-role element docks onto the
    external-argument carrier."""
    return theta_sm_split_ruleset().extended(
        "theta+clitic", [Generator("th_E", ("th_E", "th0"), tag="clitic-split")]
    )


# ---------------------------------------------------------------------------
# phase coloring


def _phase_tokens():
    colors = {"m", "slot:m", "mhat"}
    for w in HEAD_CLASSES + ("TOP",):
        colors |= {f"s({w})", f"shat({w})", f"z({w})", f"c({w})"}
        colors |= {f"h_z({w})", f"h_s({w})", f"h_zs({w})"}
    return colors


def phase_ruleset() -> RuleSet:
    colors = _phase_tokens()
    gens = []
    for hi, lo in SPINE:
        # spec position of the higher phase over head projection + spec below
        gens.append(Generator(f"s({hi})", (f"h_s({lo})", f"s({lo})")))
        gens.append(Generator(f"z({hi})", (f"h_z({lo})", f"z({lo})")))
    for w in HEAD_CLASSES:
        # head takes its complement zone, projecting a spec-expecting phrase
        gens.append(Generator(f"h_s({w})", (f"h_zs({w})", f"z({w})")))
        gens.append(Generator(f"h_z({w})", (f"h_zs({w})", f"z({w})")))
        # interior modifier attachment
        gens.append(Generator(f"z({w})", (f"z({w})", "m")))
        gens.append(Generator(f"s({w})", (f"s({w})", "m")))
        # movement landing at the phase edge
        for lo in HEAD_CLASSES:
            gens.append(Generator(f"s({w})", (f"c({lo})", "slot:m"), tag="IM"))
        # interior argument placement
        gens.append(Generator(f"z({w})", (f"c({w})", f"h_z({w})")))
    return RuleSet(name="phase", colors=colors, generators=gens)


def phase_split_ruleset() -> RuleSet:
    """Edge-splitting inventory: split landings, cluster building and
    termination, the clitic-on-subject split, and the head-movement helper
    colors."""
    extra = []
    for w in HEAD_CLASSES:
        for lo in HEAD_CLASSES:
            extra.append(Generator(f"shat({w})", (f"c({lo})", "slot:m"), tag="SM-split"))
        extra.append(Generator(f"shat({w})", (f"shat({w})", f"shat({w})"), tag="SM-cluster"))
        extra.append(Generator(f"s({w})", (f"shat({w})", f"shat({w})"), tag="SM-cluster"))
        extra.append(Generator(f"s({w})", (f"s({w})", f"shat({w})"), tag="clitic-split"))
    # head-to-head: extracted head rides a helper color through the projection
    extra.append(Generator("mhat", (WILDCARD, "slot:m"), tag="H2H"))
    for w in HEAD_CLASSES:
        for kind in ("h_z", "h_s", "h_zs"):
            extra.append(Generator(f"{kind}({w})", ("mhat", f"{kind}({w})"), tag="H2H"))
    return phase_ruleset().extended("phase+split", extra)


def phase_composite_ruleset() -> RuleSet:
    """Variant that keeps the base single-vertex inventory but expresses the
    cluster landing as one composite body (paired unit-move wrappers under a
    shared edge position).  No hat colors are needed here."""
    base = phase_ruleset()
    composites = []
    for w in HEAD_CLASSES:
        wrap = Pattern(f"s({w})", (Pattern(WILDCARD), Pattern("slot:m")))
        composites.append(Pattern(f"s({w})", (wrap, wrap)))
    return RuleSet(
        name="phase+composite", colors=base.colors, generators=base.generators, composites=composites
    )


def korean_pac_ruleset() -> RuleSet:
    """Combined role+phase tokens for the double-accusative construction:
    the possessor pair admits two symmetric colorings, either member taking
    the argument role while the other modifies."""
    colors = {
        "(z,th_I)",
        "(th0',m)",
        "(th_I,z)",
        "(th0,s)",
        "(th0,shat)",
        "slot:(th0,m)",
        "h",
        "clause",
    }
    gens = [
        Generator("(z,th_I)", (("(th0',m)"), "(th_I,z)")),
        Generator("(th0,shat)", ("(th0',m)", "slot:(th0,m)"), tag="SM-split"),
        Generator("(th0,shat)", ("(th_I,z)", "slot:(th0,m)"), tag="SM-split"),
        Generator("(th0,s)", ("(th0,shat)", "(th0,shat)"), tag="SM-cluster"),
        Generator("(th0,s)", ("(th_I,z)", "slot:(th0,m)"), tag="IM"),
        Generator("clause", ("(th0,s)", "h")),
        Generator("clause", (("(z,th_I)"), "h")),
    ]
    return RuleSet(name="korean-pac", colors=colors, generators=gens)


# one factory per name of forest.RULESET_NAMES, in that order
BUILTIN_RULESETS = dict(
    zip(
        RULESET_NAMES,
        (
            theta_ruleset, theta_sm_nontheta_ruleset, theta_sm_split_ruleset, theta_clitic_ruleset,
            phase_ruleset, phase_split_ruleset, phase_composite_ruleset, korean_pac_ruleset,
        ),
        strict=True,
    )
)


def get_ruleset(name: str) -> RuleSet:
    if not isinstance(name, str) or name not in BUILTIN_RULESETS:
        raise ColoringError(f"unknown rule set {name!r}; built-ins: {', '.join(sorted(BUILTIN_RULESETS))}")
    return BUILTIN_RULESETS[name]()
