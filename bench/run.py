"""Benchmark of the mergespace reproduction.

    python3 bench/run.py --workload {chain6,corpus} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client: requests run one
after another in this process, with BLAS held to one thread.  A run fixes
the workload's request slots from the seed and repeats them in rounds until
the next round would end after ``--seconds`` (at least the workload's
minimum).  A slot's latency is its best time over the run: the host is
shared, and its speed drifts by tens of percent over seconds, which the
best of several repeats spread over the run filters out and a median of
them does not.  Every output is checked against an independent reference
outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests untraced and then traced, and prints the per-layer metrics with
the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Optional

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 6  # before the rounds, and again after them
# What a CLI invocation pays before its first request: importing the
# program (numpy included), building every rule set and reading the data.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from importlib import resources
import mergespace.cli
from mergespace.rulesets import BUILTIN_RULESETS, get_ruleset
for name in BUILTIN_RULESETS:
    get_ruleset(name)
data = resources.files("mergespace").joinpath("data")
for kind in ("scripts", "scenarios"):
    for f in data.joinpath(kind).iterdir():
        if f.name.endswith(".json"):
            json.loads(f.read_text())
print(time.perf_counter() - t0)
"""


def measure_setup(repeats: int, warm: bool = False) -> list:
    """Set-up times of fresh interpreters.  With ``warm`` one more runs
    first, uncounted, so that bytecode caches exist."""
    times = []
    for _ in range(repeats + warm):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times[warm:]


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the machine ran
    just then, for reading one result next to another."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def tail(values: list) -> tuple:
    """The value at the highest percentile with ten values beyond it, the
    percentile, and the count beyond; the maximum when there are too few."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * k / max(len(xs) - 1, 1), len(xs) - 1 - k


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # a tracing.Tracer during traced rounds
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run_round(self, round_index: int, timed: bool = True) -> dict:
        """One round; returns (key, kind, seconds) per request and per-layer figures."""
        gc.collect()
        if self.tracer is not None:
            self.tracer.reset()
        times = []
        for req in self.workload.requests(round_index):
            if self.tracer is not None:
                self.tracer.current_request = self.attempted
                span = self.tracer.open(self.tracer.name_id("request"))
            t0 = perf_counter()
            try:
                out = req.run()
                err = None
            except Exception:  # a request that raises is a failed request
                out, err = None, "raised:\n" + traceback.format_exc()
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.close(span)
            if err is None:
                try:
                    err = req.check(out)
                except Exception:  # malformed output fails its check
                    err = "check raised:\n" + traceback.format_exc()
            del out
            if timed:
                self.attempted += 1
                times.append((req.key, req.kind, dt))
                if err is not None:
                    self.failed += 1
                    self.errors.append(f"{req.kind}: {err}")
        layers = self.tracer.pass_metrics(self.workload.eig) if self.tracer is not None else None
        return {"times": times, "layers": layers}

    def run_rounds(self, seconds: float, min_rounds: int, same_input: bool = False) -> list:
        """Whole rounds until the next one would end after ``seconds``."""
        rounds = []
        t0 = perf_counter()
        while True:
            rounds.append(self.run_round(0 if same_input else len(rounds)))
            elapsed = perf_counter() - t0
            if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds


def best_times(rounds: list, kind: Optional[str] = None) -> dict:
    """Each slot's best time over the rounds (of one kind, if given)."""
    best: dict = {}
    for r in rounds:
        for key, k, t in r["times"]:
            if kind is None or k == kind:
                best[key] = min(t, best.get(key, t))
    return best


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_loop_ms_before": reference_loop_ms(),
    }


def end_to_end(runner: Runner, setup: list, rounds: list, rss_mb: float) -> dict:
    best = best_times(rounds)
    req_ms = [1000.0 * t for t in best.values()]
    tail_ms, pct, beyond = tail(req_ms)
    n = runner.attempted
    print(
        f"# requests {n} in {len(rounds)} rounds over {len(best)} slots; latencies are each "
        f"slot's best; p50 over {len(best)} slots; tail p{pct:.4g} with {beyond} beyond it; "
        f"failed_ratio {runner.failed / max(n, 1):.6f}"
    )
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(best.values()),
        "req_p50_ms": statistics.median(req_ms),
        "req_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Untraced, traced and one counting round over the same input (round 0)."""
    import tracing

    half = seconds / 2.0
    plain = runner.run_rounds(half, 1, same_input=True)
    runner.tracer = tracing.Tracer()
    try:
        runner.tracer.install()
        traced = runner.run_rounds(half, 1, same_input=True)
        runner.tracer.uninstall()
        runner.tracer.install(counted=True)
        counted = runner.run_round(0)["layers"]
    finally:
        runner.tracer.uninstall()
        runner.tracer = None
    layers = [r["layers"] for r in traced]
    for name in tracing.EXACT:
        values = {lay[name] for lay in layers}
        if len(values) > 1:
            runner.failed += 1
            runner.errors.append(f"counter {name} differs between identical rounds: {values}")
    metrics = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    metrics.update({name: counted[name] for name in tracing.COUNTED_METRICS})
    metrics["verify.cocycles.s"] = sum(best_times(plain, "verify-cocycles").values())
    overhead = sum(best_times(traced).values()) - sum(best_times(plain).values())
    metrics["trace.overhead_s"] = overhead
    print(f"# traced {len(traced)} rounds, untraced {len(plain)}; overhead {overhead:.4f} s a pass")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("chain6", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mergespace" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    env = environment(args)
    setup = [] if args.trace else measure_setup(SETUP_REPEATS, warm=True)
    workload.prepare()
    runner = Runner(workload)
    if workload.warmup:
        runner.run_round(-1, timed=False)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        rounds = runner.run_rounds(args.seconds, workload.min_rounds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(SETUP_REPEATS)  # a later stretch of machine time
        metrics = end_to_end(runner, setup, rounds, rss_mb)
    env["ref_loop_ms_after"] = reference_loop_ms()
    print("# env " + json.dumps(env))
    if set(metrics) != set(declared):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 1
    for err in runner.errors[:20]:
        print(f"# FAILED {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"# {name:42s} {value:.6g} {declared[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": declared[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
