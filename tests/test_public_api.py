"""Every public name of the package has a caller outside the tests.

A public name is one that ``mtunlearn`` exports, a module-level function
or class of ``src/mtunlearn`` whose name has no leading underscore, or a
method or property of such a class whose name has none. A method or
property counts as called only when it is read as an attribute.

The package, the demos and the benchmark are parsed as text, so nothing
is imported from or written under ``demos/`` or ``perfbench/``. A name
that only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import mtunlearn

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/mtunlearn", "demos", "perfbench")

# Public without a caller, on purpose.
UNCALLED = {
    "flattened_hessian": "the exact Hessian oracle that the finite-difference "
    "acceptance checks compare against, documented as public API",
    "project_pair": "the benchmark's tracer wraps surgery.project_pair by name, "
    "so it goes with the next change to the benchmark",
}


def references(tree: ast.AST) -> set[str]:
    """Names read in ``tree`` as a variable or an attribute, and as ``.name``
    those read as an attribute, leaving out a name's uses inside its own
    definition (recursion is not a caller)."""
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
            if isinstance(node, ast.Attribute):
                found.add(f".{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def public_names() -> set[str]:
    """The names ``mtunlearn`` exports, the functions and classes defined at
    the top of its modules without a leading underscore, and as ``.name`` the
    methods and properties of those classes without one."""
    names = set(mtunlearn.__all__)
    for path in sorted((ROOT / "src/mtunlearn").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {
                    f".{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                }
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = set()
    for source in SOURCES:
        for path in sorted((ROOT / source).glob("*.py")):
            if path.name != "__init__.py":
                used |= references(ast.parse(path.read_text(), str(path)))
    public = public_names()
    assert UNCALLED.keys() <= public
    assert sorted(public - used - UNCALLED.keys()) == []
