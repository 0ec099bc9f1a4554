"""The benchmark's tracer (bench/tracing.py) patches program functions by
module and name.  A renamed or moved function would leave its span or
counter empty without any error, so every name it lists must resolve.  The
benchmark's requests (bench/workloads.py) read the program's graphs,
matrices and CLI output; each kind runs here on small inputs and must pass
its own check."""

import contextlib
import importlib
import io
import random
import sys
from pathlib import Path

import pytest

from mergespace import markov

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module(name)
    finally:
        for mod in (name, "reference"):
            sys.modules.pop(mod, None)


@pytest.fixture
def tracing(monkeypatch):
    yield from _bench_module(monkeypatch, "tracing")


@pytest.fixture
def workloads(monkeypatch):
    yield from _bench_module(monkeypatch, "workloads")


def test_spanned_and_counted_functions_resolve(tracing):
    hooks = {**tracing.SPANNED, **tracing.COUNTED}
    missing = [
        f"{label}: {mod.__name__}.{attr}"
        for label, (mod, attr) in hooks.items()
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing, missing
    assert "markov.strong_components" in hooks


def test_traced_cli_calls_the_patched_markov_functions(tracing):
    # cli imports markov inside the commands that need it, so it calls
    # whatever markov holds at call time: the tracer's wrappers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracing.cli_mod.main(["markov", "--leaves", "a,b,c"]) == 0
    finally:
        tracer.uninstall()
    recorded = {name for name, nid in tracer._name_ids.items() if nid in tracer.name}
    assert {"cli", "markov.build_graph", "markov.perron_frobenius"} <= recorded


def test_counted_coproduct_calls_on_the_cocycle_group(tracing):
    # two ck_coproduct calls for each of the 286 cases, and six for the
    # three cases the perturbed grafting runs before it fails
    tracer = tracing.Tracer()
    tracer.install(counted=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracing.cli_mod.main(["verify", "--only", "cocycles"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["hopf.ck_coproduct.calls"] == 2 * 286 + 6 == 578


def test_patched_method_resolves(tracing):
    assert callable(getattr(tracing.coloring_mod.Generator, "child_pairs", None))


def test_workload_requests_pass_their_checks(workloads):
    rng = random.Random(0)
    eig = workloads.ref.EigenReference()
    labels5, labels4 = workloads._labels(rng, 5), workloads._labels(rng, 4)
    ws = workloads._random_workspace(rng, 6)
    reqs = [workloads._chain_unweighted(labels5, eig), workloads._chain_no_im(labels5)]
    reqs += [workloads._chain_weighted(labels5, r, eig) for r in workloads.MARKOV_REGIMES]
    for extra in ((), ("--no-im",), ("--regime", "total", "-t", "0.5")):
        reqs.append(workloads._markov_request(labels4, extra, eig))
    for mode in ("c", "d"):
        reqs += [workloads._successors_request(ws, mode, flags) for flags in workloads.SUCCESSOR_FLAGS]
    assert len(reqs) == 17
    failed = [(req.key, req.inputs, err) for req in reqs if (err := req.check(req.run())) is not None]
    assert not failed, failed


def test_eigen_reference_reads_a_graph_as_its_matrix(workloads):
    g = markov.build_graph("abcd")
    Ref = workloads.ref.EigenReference
    assert Ref().lam(g) == Ref().lam(g.K)
