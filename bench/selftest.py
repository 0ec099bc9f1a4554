"""Tests of the benchmark itself.

    python3 bench/selftest.py                    # all, about three minutes
    python3 bench/selftest.py SeededInputs       # one group, by class name

Seeded inputs repeat; rounds repeat the same request slots; corrupted
outputs are caught by the checks; exact per-layer counters repeat between
traced runs, and on ``chain6`` across seeds, where the seed only reorders
and relabels.  Run from
the root of a source checkout.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


def inputs(workload, round_index=0):
    return [(r.kind, json.dumps(r.inputs)) for r in workload.requests(round_index)]


def make(name, seed):
    return workloads.WORKLOADS[name](seed, run.ROOT)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            for k in (0, 3):
                self.assertEqual(inputs(make(name, 7), k), inputs(make(name, 7), k), name)

    def test_other_seed_changes_order(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(inputs(make(name, 7)), inputs(make(name, 8)), name)
            self.assertNotEqual(sorted(inputs(make(name, 7))), sorted(inputs(make(name, 8))), name)

    def test_other_seed_changes_labels(self):
        a, b = make("chain6", 7), make("chain6", 8)
        self.assertNotEqual(a.labels6, b.labels6)
        self.assertNotEqual(a.labels5, b.labels5)
        self.assertEqual(len(set(a.labels6)), 6)

    def test_other_seed_changes_workspaces(self):
        def workspaces(seed):
            return {tuple(r.inputs) for r in make("corpus", seed).requests(0) if r.kind.startswith("successors")}

        self.assertTrue(workspaces(7).isdisjoint(workspaces(8)))


class Rounds(unittest.TestCase):
    def test_rounds_repeat_the_slots(self):
        for name in workloads.WORKLOADS:
            w = make(name, 7)
            a, b = w.requests(0), w.requests(1)
            self.assertEqual(sorted(r.key for r in a), sorted(r.key for r in b), name)
            self.assertNotEqual([r.key for r in a], [r.key for r in b], name)

    def test_corpus_relabels_each_round(self):
        w = make("corpus", 7)
        a = {r.key: r.inputs for r in w.requests(0) if r.kind.startswith("successors")}
        b = {r.key: r.inputs for r in w.requests(1) if r.kind.startswith("successors")}
        self.assertEqual(len(a), 12 * 2 * len(workloads.SUCCESSOR_FLAGS))
        for key, argv in a.items():
            self.assertNotEqual(argv, b[key])
            shape = [re.sub(r'"[a-z]+"', '"x"', x[2]) for x in (argv, b[key])]
            self.assertEqual(shape[0], shape[1])
            self.assertEqual(argv[3:], b[key][3:])

    def test_best_times_and_tail(self):
        rounds = [{"times": [("a", "k", 2.0), ("b", "k", 1.0)]}, {"times": [("a", "k", 1.5), ("b", "k", 3.0)]}]
        self.assertEqual(run.best_times(rounds), {"a": 1.5, "b": 1.0})
        self.assertEqual(run.tail(list(range(9))), (8, 100.0, 0))
        value, pct, beyond = run.tail(list(range(133)))
        self.assertEqual((value, beyond), (122, 10))
        self.assertAlmostEqual(pct, 100.0 * 122 / 132)


def _corrupt_cli(kind, out):
    code, stdout, stderr = out
    if kind == "derive-illegal":
        return 0, stdout, ""
    if kind == "verify-cocycles":
        return code, stdout.replace("PASS", "FAIL", 1), stderr
    blob = json.loads(stdout)
    if kind.startswith("successors"):
        blob.pop()
    elif kind == "color-check":
        case = blob["cases"][0]
        case["verdict"] = "reject" if case["verdict"] == "accept" else "accept"
    elif kind == "markov":
        blob["lambda"] *= 1 + 1e-6
    else:  # derive, costs: totals of a derivation or of a quotient
        totals = blob.get("totals", blob)
        totals["n_em" if "n_em" in totals else "cl"] += 1
    return code, json.dumps(blob), stderr


def _corrupt_chain(kind, out):
    if kind.endswith("no-im"):
        g, sc = out
        return g, dict(sc, scc_count=2)
    g, pf = out[0], out[1]
    return (g, dataclasses.replace(pf, lam=pf.lam * (1 + 1e-6)), *out[2:])


class NegativeControl(unittest.TestCase):
    """Every corrupted output must count as failed; the intact ones pass."""

    def run_corrupted(self, workload, corrupt, keep=lambda r: True):
        original = workload.requests

        def requests(round_index):
            out = []
            for r in original(round_index):
                if keep(r):
                    run_fn = r.run
                    out.append(dataclasses.replace(r, run=lambda f=run_fn, k=r.kind: corrupt(k, f())))
            return out

        workload.requests = requests
        runner = run.Runner(workload)
        runner.run_round(0)
        return runner

    def test_corpus(self):
        w = make("corpus", 3)
        w.prepare()
        intact = run.Runner(w)
        intact.run_round(0)
        self.assertEqual(intact.failed, 0, intact.errors)
        runner = self.run_corrupted(w, _corrupt_cli)
        self.assertEqual(runner.failed, runner.attempted, "a corrupted output passed its check")
        self.assertGreater(runner.failed / runner.attempted, 0)

    def test_chain6_five_leaves(self):
        runner = self.run_corrupted(make("chain6", 3), _corrupt_chain, lambda r: r.kind.startswith("5-"))
        self.assertEqual(runner.attempted, 5 * workloads.Chain6.repeat5)
        self.assertEqual(runner.failed, runner.attempted)



def traced_counters(name, seed):
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    return {k: result["metrics"][k]["value"] for k in tracing.EXACT}


class ExactCounters(unittest.TestCase):
    def test_repeat_across_runs(self):
        self.assertEqual(traced_counters("corpus", 5), traced_counters("corpus", 5))

    def test_chain6_relabeling_invariant(self):
        a, b = traced_counters("chain6", 5), traced_counters("chain6", 6)
        self.assertEqual(a, b)
        self.assertEqual(a["forest.forests"], 2 * 2430 + 5 * workloads.Chain6.repeat5 * 265)


if __name__ == "__main__":
    unittest.main()
