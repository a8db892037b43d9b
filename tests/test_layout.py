"""Every function, method and class in the package is named somewhere in
the package: code that only the tests reach belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heisenkit"

# Wrapped by name by the benchmark's tracer (bench/tracing.py), which has
# no production caller to reach them through.
TRACED_ONLY = {("rotation", "pi_x"), ("rotation", "almost_mathieu"),
               ("sweeps", "two_site_operator"),
               ("sweeps", "three_site_operator")}


def names(node) -> Counter:
    """How often each identifier is named in ``node``, as a variable
    (``ast.Name``) or as an attribute (``ast.Attribute``)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def unnamed_definitions() -> set:
    """(module, name) of every definition named nowhere in the package
    outside its own body; dunders are exempt."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    named = sum((names(t) for t in trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if named[node.name] == names(node)[node.name]:
                out.add((module, node.name))
    return out


def test_every_definition_is_named_in_the_package():
    assert unnamed_definitions() == TRACED_ONLY


def test_the_exceptions_are_still_traced():
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    for _, name in TRACED_ONLY:
        assert f'"{name}"' in tracing, name
