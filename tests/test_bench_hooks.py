"""The benchmark's tracer (bench/tracing.py) patches program functions by
module and name.  A renamed or moved function would leave its span or
counter empty without any error, so every name it lists must resolve."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        for name in ("tracing", "reference"):
            sys.modules.pop(name, None)


def test_spanned_and_counted_functions_resolve(tracing):
    hooks = {**tracing.SPANNED, **tracing.COUNTED}
    missing = [
        f"{label}: {mod.__name__}.{attr}"
        for label, (mod, attr) in hooks.items()
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing, missing
    assert "markov.strong_components" in hooks


def test_patched_method_resolves(tracing):
    assert callable(getattr(tracing.coloring_mod.Generator, "child_pairs", None))
