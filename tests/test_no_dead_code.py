"""Every module-level function and class in the package has a caller.

A definition counts as used when `src/` names it outside its own body (an
`ast.Name` or `ast.Attribute`), or when anything in `bench/*.py` names it:
there a string constant counts too, because the benchmark's tracer names
the functions it wraps as strings.  Tests do not count: a helper that only
tests call is not part of the program."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(paths) -> list:
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _names(tree, with_strings: bool = False) -> Counter:
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif with_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def unreferenced() -> list:
    src = _parse(sorted((ROOT / "src" / "mergespace").glob("*.py")))
    bench = Counter()
    for tree in _parse(sorted((ROOT / "bench").glob("*.py"))):
        bench += _names(tree, with_strings=True)
    in_src = sum(map(_names, src), Counter())
    return sorted(
        d.name
        for tree in src
        for d in tree.body
        if isinstance(d, DEFINITIONS)
        and in_src[d.name] == _names(d)[d.name]
        and not bench[d.name]
    )


def test_every_module_level_definition_has_a_caller():
    assert unreferenced() == []
