"""Seeded workloads: request lists, the calls they make, and their checks.

Each workload turns a seed into a fixed set of request slots and a round
index into one list of requests that fills every slot (some more than
once), in a seeded order.  A request's ``key`` names its slot: rounds repeat
the same slots, so that each slot's best time in a run can be taken.  A
request's ``run`` is the timed call into the program; its ``check`` runs
outside the timed region and compares the output with an independent
reference, returning an error string or None.  The program only ever sees
the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import mergespace.cli as cli_mod
import mergespace.markov as markov_mod
from mergespace.engine import MergeConfig
from mergespace.forest import workspace_to_json

import reference as ref

LETTERS = "abcdefghijklmnopqrstuvwxyz"
LABEL_POOL = [x + y for x in LETTERS for y in LETTERS]

TOL_LAM = 1e-9  # relative, against numpy.linalg.eigvals
TOL_XI = 1e-9  # absolute, on the stationary vector and row sums


@dataclass
class Request:
    kind: str
    inputs: object  # what the program receives, for logs and tests
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    key: str = ""  # the request's slot in the workload; its kind when empty

    def __post_init__(self):
        self.key = self.key or self.kind


def _labels(rng: random.Random, n: int) -> list:
    return rng.sample(LABEL_POOL, n)


def _random_tree(rng: random.Random, items: list):
    items = list(items)
    while len(items) > 1:
        a = items.pop(rng.randrange(len(items)))
        b = items.pop(rng.randrange(len(items)))
        items.append(["M", a, b])
    return items[0]


def _leaves(tree) -> list:
    return [tree] if isinstance(tree, str) else _leaves(tree[1]) + _leaves(tree[2])


def _relabel(ws: list, rng: random.Random) -> list:
    """The same workspace shape with fresh distinct labels."""
    old = [leaf for tree in ws for leaf in _leaves(tree)]
    new = dict(zip(old, _labels(rng, len(old))))

    def sub(t):
        return new[t] if isinstance(t, str) else ["M", sub(t[1]), sub(t[2])]

    return [sub(tree) for tree in ws]


def _random_workspace(rng: random.Random, n_leaves: int) -> list:
    labels = _labels(rng, n_leaves)
    b0 = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, n_leaves), b0 - 1))
    bounds = [0] + cuts + [n_leaves]
    return [_random_tree(rng, labels[a:b]) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# shared checks


def _check_pf(K: np.ndarray, pf, eig: ref.EigenReference) -> Optional[str]:
    """lambda against LAPACK; eta makes K-hat stochastic; xi is stationary."""
    lam_ref = eig.lam(K)
    if abs(pf.lam - lam_ref) > TOL_LAM * abs(lam_ref):
        return f"lambda {pf.lam!r} vs eigvals {lam_ref!r}"
    if (pf.eta <= 0).any():
        return "eta not positive"
    K_hat = K * pf.eta[None, :] / pf.eta[:, None] / pf.lam
    if np.abs(K_hat.sum(axis=1) - 1).max() > TOL_XI:
        return "K-hat rows do not sum to 1"
    xi = pf.xi
    if (xi < -TOL_XI).any() or abs(xi.sum() - 1) > TOL_XI:
        return "xi is not a distribution"
    if np.abs(xi @ K_hat - xi).max() > TOL_XI:
        return "xi K-hat != xi"
    return None


def _strongly_connected(K: np.ndarray) -> bool:
    A = K > 0
    for M in (A, A.T):
        seen = np.zeros(len(A), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            nxt = M[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = nxt
        if not seen.all():
            return False
    return True


# ---------------------------------------------------------------------------
# chain6: Merge-chain requests at 5 and 6 leaves

T_WEIGHT = 0.5


def _chain_checks(g, n_leaves: int, steps: int) -> Optional[str]:
    want = ref.forest_count(n_leaves)
    if g.n != want or len({w.key for w in g.vertices}) != want:
        return f"{g.n} states, want {want}"
    got = sum(len(v) for v in g.weights.values()) if g.weights else int(g.K.sum())
    if got != steps:
        return f"{got} steps, want {steps}"
    return None


def _chain_unweighted(labels, eig) -> Request:
    def run():
        g = markov_mod.build_graph(labels)
        return g, markov_mod.perron_frobenius(g.K), markov_mod.strong_connectivity(g)

    def check(out):
        g, pf, sc = out
        err = _chain_checks(g, len(labels), ref.CHAIN_STEPS[len(labels)])
        if err is None and (sc["scc_count"] != 1 or not _strongly_connected(g.K)):
            err = "not strongly connected"
        return err or _check_pf(g.K, pf, eig)

    return Request(f"{len(labels)}-unweighted", labels, run, check)


def _chain_weighted(labels, regime: str, eig) -> Request:
    def run():
        g = markov_mod.weighted_matrix(labels, regime, T_WEIGHT)
        return g, markov_mod.perron_frobenius(g.K)

    def check(out):
        g, pf = out
        return _chain_checks(g, len(labels), ref.CHAIN_STEPS[len(labels)]) or _check_pf(g.K, pf, eig)

    return Request(f"{len(labels)}-{regime}", (labels, regime), run, check)


def _chain_no_im(labels) -> Request:
    cfg = MergeConfig(mode="d", allow_im=False)

    def run():
        g = markov_mod.build_graph(labels, cfg)
        return g, markov_mod.strong_connectivity(g)

    def check(out):
        g, sc = out
        steps = ref.chain_step_count([workspace_to_json(w) for w in g.vertices], im=False)
        err = _chain_checks(g, len(labels), steps)
        if err is None and (sc["scc_count"] != 1 or not _strongly_connected(g.K)):
            err = "not strongly connected"
        return err

    return Request(f"{len(labels)}-no-im", (labels, "no-im"), run, check)


# ---------------------------------------------------------------------------
# corpus: CLI requests through cli.main, stdout captured

SUCCESSOR_FLAGS = (
    (),
    ("--no-im",),
    ("--identity-sm", "--sibling-cut"),
    ("--atomic-sm",),
)
MARKOV_REGIMES = ("ms", "my", "cl", "total")

# published derivation totals (Fractions as the CLI prints them)
PUBLISHED = {
    "sixleaf_single": {"ms": Fraction(1, 3)},
    "sixleaf_triple": {"ms_ws": Fraction(4, 3)},
    "amalgam_sm": {"ms": Fraction(19, 15), "my_d": 5, "my_c": 7, "cl_type": 2},
    "amalgam_fc": {"ms": Fraction(14, 17) + Fraction(13, 14), "cl": 3,
                   "my_quotient": 4, "my_em": 8, "vertex_history": [17, 14, 13]},
}
CL_TYPE = {"SM1": 1, "SM2": 2, "SM3": 2}
ILLEGAL_STEP = re.compile(r"^error: step \d+: ")
COCYCLE_ROWS = 3
COCYCLE_ROW = re.compile(r"^PASS \[cocycles\] ")


def _cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_request(kind: str, argv: list, check) -> Request:
    return Request(kind, argv, lambda: _cli(argv), check)


def _successors_request(ws, mode: str, flags: tuple) -> Request:
    argv = ["successors", "--workspace", json.dumps(ws), "--format", "json", "--mode", mode, *flags]
    want = ref.successor_counts(
        ws, mode,
        im="--no-im" not in flags,
        identity="--identity-sm" in flags,
        sibling_cut="--sibling-cut" in flags,
        atomic="--atomic-sm" in flags,
    )
    siblings = want.pop("SM3-sibling", 0)
    leaves = ref.leaf_multiset(ws)
    before = ref.resource_profile(ws)

    def check(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        rows = json.loads(stdout)
        got: dict = {}
        sibling_rows = 0
        for r in rows:
            got[r["tag"]] = got.get(r["tag"], 0) + 1
            if ref.leaf_multiset(r["output"]) != leaves:
                return f"{r['tag']} changed the leaf multiset"
            delta = tuple(a - b for a, b in zip(ref.resource_profile(r["output"]), before))
            if delta == ref.RR_ROWS[(r["tag"], mode)]:
                continue
            if r["tag"] == "SM3" and mode == "c" and delta == ref.SIBLING_CUT_ROW_C:
                sibling_rows += 1
                continue
            return f"{r['tag']}/{mode}: delta {delta}, table {ref.RR_ROWS[(r['tag'], mode)]}"
        if got != dict(want):
            return f"successors by tag {got}, want {dict(want)}"
        if mode == "c" and sibling_rows != siblings:
            return f"{sibling_rows} sibling cuts, want {siblings}"
        return None

    return _cli_request(f"successors-{mode}", argv, check)


def _derivation_expect(blob: dict) -> dict:
    """Totals that follow from the script's own ops and the resource table."""
    ops = [s["op"] for s in blob["steps"]]
    mode = blob["mode"]
    out = {
        "n_sm": sum(op.startswith("SM") for op in ops),
        "n_em": ops.count("EM"),
        "n_im": ops.count("IM"),
        "cl_type": sum(CL_TYPE.get(op, 0) for op in ops),
        "my_d": sum(ref.RR_ROWS[(op, "d")][2] for op in ops),
        "my_c": sum(ref.RR_ROWS[(op, "c")][2] for op in ops),
    }
    out["my"] = out["my_" + mode]
    if "expect" in blob:
        out["n_sm"] = blob["expect"]["sm_steps"]
    return out


def _totals_error(totals: dict, want: dict) -> Optional[str]:
    for key, value in want.items():
        got = totals.get(key)
        if isinstance(value, Fraction):
            got = Fraction(got) if isinstance(got, str) else None
        if got != value:
            return f"{key} = {totals.get(key)!r}, want {value}"
    return None


def _script_requests(path: Path) -> list:
    blob = json.loads(path.read_text())
    want = dict(PUBLISHED.get(path.stem, {}))
    derivation = "fc" not in blob
    if derivation:
        want.update(_derivation_expect(blob))
        ops = [s["op"] for s in blob["steps"]]

    def check_derive(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        report = json.loads(stdout)
        if not derivation:
            return _totals_error(report, want)
        if [s["tag"] for s in report["steps"]] != ops:
            return "step tags differ from the script"
        for s in report["steps"]:
            if (s["db0"], s["dalpha"], s["dsigma"]) != ref.RR_ROWS[(s["tag"], blob["mode"])]:
                return f"{s['tag']} step off its resource row"
            if s["tag"] in ("EM", "IM") and (Fraction(s["ms"]) != 0 or s["cl"] != 0):
                return f"{s['tag']} step has nonzero search cost or loss"
        return _totals_error(report["totals"], want)

    def check_costs(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        return _totals_error(json.loads(stdout), want)

    return [
        _cli_request("derive", ["derive", "--script", str(path)], check_derive),
        _cli_request("costs", ["costs", "--script", str(path)], check_costs),
    ]


def _scenario_request(path: Path) -> Request:
    blob = json.loads(path.read_text())

    def check(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        rows = json.loads(stdout)["cases"]
        if len(rows) != len(blob["cases"]):
            return "case count differs"
        for row, case in zip(rows, blob["cases"]):
            n = row["colorings"]
            if row["ruleset"] != case["ruleset"] or row["verdict"] != case["expect"]:
                return f"{case['ruleset']}: {row['verdict']}, want {case['expect']}"
            if n < case.get("min_colorings", 0) or n > case.get("max_colorings", n):
                return f"{case['ruleset']}: {n} colorings out of range"
        return None

    return _cli_request("color-check", ["color-check", "--scenario", str(path)], check)


def _markov_request(labels: list, extra: tuple, eig: ref.EigenReference) -> Request:
    argv = ["markov", "--leaves", ",".join(labels), *extra]

    def check(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        blob = json.loads(stdout)
        if "--regime" in extra:
            g = markov_mod.weighted_matrix(labels, extra[1], float(extra[3]))
        else:
            g = markov_mod.build_graph(labels, MergeConfig(mode="d", allow_im="--no-im" not in extra))
        if len(blob["vertices"]) != ref.forest_count(len(labels)):
            return f"{len(blob['vertices'])} states"
        if blob["vertices"] != [w.key for w in g.vertices]:
            return "vertex order differs from the graph"
        pf = SimpleNamespace(lam=blob["lambda"], eta=np.array(blob["eta"]), xi=np.array(blob["xi"]))
        return _check_pf(g.K, pf, eig)

    return _cli_request("markov", argv, check)


def _illegal_replay_request(path: Path) -> Request:
    def check(out):
        code, stdout, stderr = out
        if code != 1 or stdout or not ILLEGAL_STEP.match(stderr):
            return f"exit {code}, stderr {stderr[:60]!r}"
        return None

    return _cli_request("derive-illegal", ["derive", "--script", str(path)], check)


def _verify_cocycles_request() -> Request:
    """The acceptance group that exercises ``hopf``, about 0.25 s."""

    def check(out):
        code, stdout, _ = out
        lines = stdout.splitlines()
        if code != 0 or lines[-1:] != [f"{COCYCLE_ROWS}/{COCYCLE_ROWS} checks passed"]:
            return f"exit {code}, last line {lines[-1:]}"
        if len(lines) != COCYCLE_ROWS + 1 or not all(COCYCLE_ROW.match(x) for x in lines[:-1]):
            return f"rows {lines[:-1]}"
        return None

    return _cli_request("verify-cocycles", ["verify", "--only", "cocycles"], check)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    min_rounds = 1  # rounds a run makes however long they take
    warmup = False  # run one untimed round first

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.eig = ref.EigenReference()

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{round_index}")

    def prepare(self) -> None:
        """Writes any input files the requests read."""

    def requests(self, round_index: int) -> list:
        raise NotImplementedError


class Chain6(Workload):
    name = "chain6"
    # The 6-leaf requests take seconds each, so a run makes two rounds; the
    # 5-leaf requests run several times in each, for their best time.
    min_rounds = 2
    repeat5 = 6

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(f"{self.name}/{seed}")
        self.labels6 = _labels(rng, 6)
        self.labels5 = _labels(rng, 5)

    def requests(self, round_index):
        reqs = [_chain_unweighted(self.labels6, self.eig), _chain_weighted(self.labels6, "total", self.eig)]
        for _ in range(self.repeat5):
            reqs.extend(_chain_weighted(self.labels5, r, self.eig) for r in MARKOV_REGIMES)
            reqs.append(_chain_no_im(self.labels5))
        self.rng(round_index).shuffle(reqs)
        return reqs


class Corpus(Workload):
    name = "corpus"
    min_rounds = 5
    warmup = True
    workspaces_per_size = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        data = root / "src" / "mergespace" / "data"
        self.scripts = sorted((data / "scripts").glob("*.json"))
        self.scenarios = sorted((data / "scenarios").glob("*.json"))
        self.korean = data / "scripts" / "korean_pac.json"
        self.illegal = root / "bench" / ".work" / "korean_pac_no_sibling_cut.json"
        rng = random.Random(f"{self.name}/{seed}")
        self.workspaces = [
            _random_workspace(rng, n) for n in range(5, 11) for _ in range(self.workspaces_per_size)
        ]
        self.regime = rng.choice(MARKOV_REGIMES)

    def prepare(self):
        """Writes the korean_pac script without its sibling-cut flag."""
        blob = json.loads(self.korean.read_text())
        blob["flags"] = {k: v for k, v in blob.get("flags", {}).items() if k != "allow_sibling_cut"}
        self.illegal.parent.mkdir(parents=True, exist_ok=True)
        self.illegal.write_text(json.dumps(blob))

    def requests(self, round_index):
        """The run's workspaces and 4-leaf chains get fresh labels each
        round: the same work, but never an input the program saw before."""
        rng = self.rng(round_index)
        reqs = []
        for i, ws in enumerate(self.workspaces):
            ws = _relabel(ws, rng)
            for mode in ("c", "d"):
                for flags in SUCCESSOR_FLAGS:
                    req = _successors_request(ws, mode, flags)
                    req.key = f"{req.kind}/{i}/{' '.join(flags)}"
                    reqs.append(req)
        for path in self.scripts:
            for req in _script_requests(path):
                req.key = f"{req.kind}/{path.stem}"
                reqs.append(req)
        for path in self.scenarios:
            req = _scenario_request(path)
            req.key = f"{req.kind}/{path.stem}"
            reqs.append(req)
        labels = _labels(rng, 4)
        for extra in ((), ("--no-im",), ("--regime", self.regime, "-t", str(T_WEIGHT))):
            req = _markov_request(labels, extra, self.eig)
            req.key = f"markov/{' '.join(extra)}"
            reqs.append(req)
        reqs.append(_illegal_replay_request(self.illegal))
        reqs.append(_verify_cocycles_request())
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (Chain6, Corpus)}
