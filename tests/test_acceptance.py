"""Acceptance suite: every published quantity reproduced at its stated
tolerance, one printed line per check."""

import time

import pytest

from mergespace.verify import ITEMS, run_verify

GROUPS = [name for name, _ in ITEMS]


@pytest.fixture(scope="module")
def timed_report():
    t0 = time.perf_counter()
    report = run_verify()
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def report(timed_report):
    return timed_report[0]


def _rows(report, group):
    return [r for r in report["items"] if r["group"] == group]


@pytest.mark.parametrize("group", GROUPS)
def test_criterion_group(report, group, capsys):
    rows = _rows(report, group)
    assert rows, f"no checks ran for {group}"
    with capsys.disabled():
        print()
        for r in rows:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"  {mark} [{group}] {r['name']}: {r['observed']}")
    bad = [r for r in rows if not r["ok"]]
    assert not bad, "\n".join(
        f"{r['name']}: observed {r['observed']}, expected {r['expected']}" for r in bad
    )


def test_everything_passed(report):
    assert report["ok"], f"{report['total'] - report['passed']} checks failed"


def test_clitic_cluster_row_counts_the_scripts(report):
    # the row counts the shipped scripts' sideward steps and claims no
    # minimum: with IM on, clusters 3 and 4 have 1-SM derivations too
    rows = [r for r in _rows(report, "coloring") if r["name"].startswith("clitic")]
    assert [(r["name"], r["observed"], r["ok"]) for r in rows] == [
        ("clitic-cluster scripts 2-4 use 1, 2 and 3 sideward steps", "[1, 2, 3]", True)
    ]


def test_hierarchy_row_reports_what_it_compared(report):
    rows = [r for r in _rows(report, "hierarchy") if r["name"].startswith("head-to-head")]
    assert [(r["observed"], r["ok"]) for r in rows] == [("343 profile pairs on 15 of 60 hosts", True)]


def test_hierarchy_row_cannot_pass_vacuously(monkeypatch):
    # the four fixed cases classify; every random host's step raises, so
    # the pointwise row compares nothing and must fail, or the error escapes
    import mergespace.verify as V
    from mergespace.costs import CostError

    real = V.classify_hierarchy
    calls = []

    def failing_after_four(sm, em):
        calls.append(sm)
        if len(calls) > 4:
            raise CostError("EM must merge the SM1 output with the host quotient")
        return real(sm, em)

    monkeypatch.setattr(V, "classify_hierarchy", failing_after_four)
    try:
        rows = run_verify(only="hierarchy")["items"]
    except CostError:
        return
    assert not any(r["ok"] for r in rows if r["name"].startswith("head-to-head"))


def test_runtime_budget(timed_report):
    # the full suite must stay desk-scale; timed on the fixture's own cold run
    assert timed_report[1] < 120


def test_mutation_negative_control(monkeypatch):
    # corrupting a reference constant must surface as a named failing item
    import mergespace.verify as V

    monkeypatch.setattr(V, "SQRT2", 1.5)
    rep = run_verify(only="perron")
    bad = [r for r in rep["items"] if not r["ok"]]
    assert bad and any("lambda" in r["name"] for r in bad)


def test_cocycle_row_needs_its_negative_control(monkeypatch):
    # a perturbed grafting that is in fact the correct one passes the
    # identity, so the grafting row must fail
    import mergespace.verify as V
    from mergespace.hopf import graft_B

    monkeypatch.setattr(V, "perturbed_grafter", lambda label: lambda f: graft_B(f, label))
    rows = run_verify(only="cocycles")["items"]
    assert len(rows) == 3
    assert not rows[0]["ok"] and rows[0]["name"].startswith("grafting cocycle identity")
    assert all(r["ok"] for r in rows[1:])


def test_weighted_rows_fail_as_rows(monkeypatch):
    # a wrong ms sector exponent fails the ms rows that read it and leaves
    # the report, and every other regime's rows, intact
    from fractions import Fraction

    from mergespace import markov

    monkeypatch.setitem(markov.REGIME_EXPONENTS, "ms", (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    rows = run_verify(only="weighted")["items"]
    failed = {r["name"] for r in rows if not r["ok"]}
    assert failed == {
        "ms weighting matches the sector exponents symbolically",
        "ms closed form matches power iteration on a 20-point grid",
        "ms small-t disconnected exponent fits 5/6 (series form)",
    }
    others = [r for r in rows if r["name"].split()[0] in ("my", "cl", "total", "resource-weighted")]
    assert len(others) == 13 and all(r["ok"] for r in others)
