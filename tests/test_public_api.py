"""Every name the package exports has a caller outside the tests.

The package, the demos and the benchmark are parsed as text, so nothing
is imported from or written under ``demos/`` or ``perfbench/``. A name
that only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import mtunlearn

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/mtunlearn", "demos", "perfbench")

# Exported without a caller, on purpose.
UNCALLED = {
    "flattened_hessian": "the exact Hessian oracle that the finite-difference "
    "acceptance checks compare against, documented as public API",
}


def references(tree: ast.AST) -> set[str]:
    """Names read in ``tree`` as a variable or an attribute, leaving out a
    name's uses inside its own definition (recursion is not a caller)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = set()
    for source in SOURCES:
        for path in sorted((ROOT / source).glob("*.py")):
            if path.name != "__init__.py":
                used |= references(ast.parse(path.read_text(), str(path)))
    exported = set(mtunlearn.__all__)
    assert UNCALLED.keys() <= exported
    assert sorted(exported - used - UNCALLED.keys()) == []
