"""Traced runs: spans and counters recorded around calls into each module.

Wrappers are installed from here, not in the program: each public function
is replaced in every ``mergespace`` module namespace that holds it, which
covers names bound with ``from ... import``, and ``Generator.child_pairs``
is patched on the class.  Spans carry a request id and their parent span
and stay in memory; self time is a span's duration minus its children's.
Functions called millions of times are counted without a span, and only
in a round of their own, so that the counting does not inflate self times.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import mergespace.cli as cli_mod
import mergespace.coloring as coloring_mod
import mergespace.costs as costs_mod
import mergespace.engine as engine_mod
import mergespace.forest as forest_mod
import mergespace.hopf as hopf_mod
import mergespace.markov as markov_mod

import reference as ref

COSTS_FUNCTIONS = ("ms_cost", "rr_delta", "cl_cost", "step_costs", "derivation_cost", "classify_hierarchy")

# span name -> (module, function)
SPANNED = {
    "forest.enumerate_forests": (forest_mod, "enumerate_forests"),
    "forest.accessible_terms": (forest_mod, "accessible_terms"),
    "forest.quotient": (forest_mod, "quotient"),
    "engine.successors": (engine_mod, "all_merge_successors"),
    "engine.replay": (engine_mod, "replay"),
    **{f"costs.{f}": (costs_mod, f) for f in COSTS_FUNCTIONS},
    "markov.build_graph": (markov_mod, "build_graph"),
    "markov.perron_frobenius": (markov_mod, "perron_frobenius"),
    "markov.strong_components": (markov_mod, "strong_components"),
    "coloring.color_search": (coloring_mod, "color_search"),
    "hopf.verify_cocycle": (hopf_mod, "verify_cocycle"),
    "cli": (cli_mod, "main"),
}
# hot functions, counted in the counting round only
COUNTED = {
    "coloring.accepts": (coloring_mod, "accepts"),
    "hopf.ck_coproduct": (hopf_mod, "ck_coproduct"),
}
STEP_TAGS = ("EM", "IM", "SM1", "SM2", "SM3", "ID")
COUNTED_METRICS = (
    "coloring.child_pairs.calls",
    "coloring.accepts.calls", "coloring.accept_ratio", "hopf.ck_coproduct.calls",
)

# count-valued per-layer metrics: they must repeat exactly on repeated input
EXACT = (
    "forest.quotient.calls", "forest.forests", "engine.successors.calls", "engine.steps",
    *(f"engine.steps.{t}" for t in STEP_TAGS), "engine.replay.successors_per_step",
    "costs.calls", "markov.pf.iterations", "markov.edges", "markov.K_bytes",
    *COUNTED_METRICS,
)


class Tracer:
    """Spans as parallel arrays, one round at a time."""

    def __init__(self):
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._open: Counter = Counter()
        self.current_request = -1
        self.counts: Counter = Counter()
        self.pf_calls: list = []  # (K, lambda) for the accuracy figure
        self._saved: list = []

    # -- spans -----------------------------------------------------------
    def name_id(self, name: str) -> int:
        return self._name_ids.setdefault(name, len(self._name_ids))

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open[self.name[idx]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open[self._name_ids.get(name, -1)] > 0

    def reset(self) -> None:
        """Drops recorded spans and counts before the next round."""
        for arr in (self.name, self.parent, self.request, self.start, self.end):
            del arr[:]
        self.counts = Counter()
        self.pf_calls = []

    # -- installation ----------------------------------------------------
    def _rebind(self, original, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("mergespace") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _spanned(self, name: str, fn, after=None):
        nid = self.name_id(name)

        def wrapped(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, args)
            return out

        return wrapped

    def _counted(self, name: str, fn, after=None):
        key = name + ".calls"

        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        return wrapped

    def install(self, counted: bool = False) -> None:
        hooks = {
            "forest.enumerate_forests": self._after_forests,
            "engine.successors": self._after_successors,
            "markov.build_graph": self._after_graph,
            "markov.perron_frobenius": self._after_pf,
        }
        for name, (mod, attr) in SPANNED.items():
            original = getattr(mod, attr)
            self._rebind(original, self._spanned(name, original, hooks.get(name)))
        if not counted:
            return
        for name, (mod, attr) in COUNTED.items():
            original = getattr(mod, attr)
            after = self._after_accepts if name == "coloring.accepts" else None
            self._rebind(original, self._counted(name, original, after))
        original = coloring_mod.Generator.child_pairs
        self._saved.append((coloring_mod.Generator, "child_pairs", original))
        coloring_mod.Generator.child_pairs = self._counted("coloring.child_pairs", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- result hooks (run after the span closes) --------------------------
    def _after_forests(self, out, args):
        self.counts["forest.forests"] += len(out)

    def _after_successors(self, out, args):
        self.counts["engine.steps"] += len(out)
        for step in out:
            self.counts["engine.steps." + step.tag] += 1
        if self.is_open("engine.replay"):
            self.counts["replay.checks"] += 1
            self.counts["replay.successors"] += len(out)

    def _after_graph(self, out, args):
        self.counts["markov.edges"] += int(np.count_nonzero(out.K))
        self.counts["markov.K_bytes"] = max(self.counts["markov.K_bytes"], out.K.nbytes)

    def _after_pf(self, out, args):
        self.counts["markov.pf.iterations"] += out.iterations
        self.pf_calls.append((args[0], out.lam))

    def _after_accepts(self, out, args):
        self.counts["coloring.accepts.ok"] += bool(out[0])

    # -- per-round figures ------------------------------------------------
    def pass_metrics(self, eig: ref.EigenReference) -> dict:
        """Per-layer figures of the spans and counts recorded since reset()."""
        n = len(self.name)
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        def by_name(name, values):
            nid = self._name_ids.get(name)
            return float(values[names == nid].sum()) if nid is not None else 0.0

        def calls(name):
            nid = self._name_ids.get(name)
            return int((names == nid).sum()) if nid is not None else 0

        c = self.counts
        steps = c["engine.steps"]
        accepts = c["coloring.accepts.calls"]
        return {
            "forest.enumerate_forests.self_s": by_name("forest.enumerate_forests", self_time),
            "forest.accessible_terms.self_s": by_name("forest.accessible_terms", self_time),
            "forest.quotient.self_s": by_name("forest.quotient", self_time),
            "forest.quotient.calls": calls("forest.quotient"),
            "forest.forests": c["forest.forests"],
            "engine.successors.self_s": by_name("engine.successors", self_time),
            "engine.successors.calls": calls("engine.successors"),
            "engine.steps": steps,
            **{f"engine.steps.{t}": c["engine.steps." + t] for t in STEP_TAGS},
            "engine.us_per_step": 1e6 * by_name("engine.successors", dur) / steps if steps else 0.0,
            "engine.replay.self_s": by_name("engine.replay", self_time),
            "engine.replay.successors_per_step": (
                c["replay.successors"] / c["replay.checks"] if c["replay.checks"] else 0.0
            ),
            "costs.self_s": sum(by_name(f"costs.{f}", self_time) for f in COSTS_FUNCTIONS),
            "costs.calls": sum(calls(f"costs.{f}") for f in COSTS_FUNCTIONS),
            "markov.build_graph.self_s": by_name("markov.build_graph", self_time),
            "markov.perron_frobenius.self_s": by_name("markov.perron_frobenius", self_time),
            "markov.pf.iterations": c["markov.pf.iterations"],
            "markov.pf.lam_relerr": max(
                (abs(lam - eig.lam(K)) / abs(eig.lam(K)) for K, lam in self.pf_calls), default=0.0
            ),
            "markov.edges": c["markov.edges"],
            "markov.K_bytes": c["markov.K_bytes"],
            "markov.strong_components.self_s": by_name("markov.strong_components", self_time),
            "coloring.color_search.self_s": by_name("coloring.color_search", self_time),
            "coloring.child_pairs.calls": c["coloring.child_pairs.calls"],
            "coloring.accepts.calls": accepts,
            "coloring.accept_ratio": c["coloring.accepts.ok"] / accepts if accepts else 0.0,
            "hopf.verify_cocycle.self_s": by_name("hopf.verify_cocycle", self_time),
            "hopf.ck_coproduct.calls": c["hopf.ck_coproduct.calls"],
            "cli.self_s": by_name("cli", self_time),
        }
