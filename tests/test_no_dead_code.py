"""Every module-level function and class in the package has a caller, and so
does every method and property of a module-level class.

A module-level definition counts as used when `src/` reads its name outside
its own body (an `ast.Name` or `ast.Attribute` in Load context: a field
declaration or an assignment of the same name is no use).  A method or
property counts as used only when `src/` reads it as an attribute
(`x.name`) outside every function of that name: a local variable of the
same name, or a same-named method of another class reading it, is no use.
Either kind also counts as used when anything in `bench/*.py` names it:
there a string constant counts too, because the benchmark's tracer names
the functions it wraps as strings.  Dunder methods are exempt, since the
interpreter calls them.  Tests do not count: a helper that only tests call
is not part of the program."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(paths) -> list:
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _names(tree, with_strings: bool = False) -> Counter:
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
        elif with_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def _attribute_reads(tree) -> Counter:
    """name -> reads of `x.name` in Load context outside every function
    called name."""
    found = Counter()

    def walk(node, enclosing):
        if isinstance(node, FUNCTIONS):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in enclosing:
            found[node.attr] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return found


def _definitions(tree):
    """(definition, is_method) for every module-level function and class
    and every non-dunder method of such a class."""
    for d in tree.body:
        if isinstance(d, FUNCTIONS + (ast.ClassDef,)):
            yield d, False
        if isinstance(d, ast.ClassDef):
            for m in d.body:
                if isinstance(m, FUNCTIONS) and not (m.name.startswith("__") and m.name.endswith("__")):
                    yield m, True


def unreferenced() -> list:
    src = _parse(sorted((ROOT / "src" / "mergespace").glob("*.py")))
    bench = Counter()
    for tree in _parse(sorted((ROOT / "bench").glob("*.py"))):
        bench += _names(tree, with_strings=True)
    in_src = sum(map(_names, src), Counter())
    as_attribute = sum(map(_attribute_reads, src), Counter())
    return sorted(
        d.name
        for tree in src
        for d, is_method in _definitions(tree)
        if not bench[d.name]
        and (not as_attribute[d.name] if is_method else in_src[d.name] == _names(d)[d.name])
    )


def test_every_module_level_definition_has_a_caller():
    assert unreferenced() == []
