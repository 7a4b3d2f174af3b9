"""Every public name of hermk is used somewhere.

The check parses src/hermk with ast: each public top-level function
and each public method of a top-level class must be referenced, by
name, somewhere in src/, tests/ or verifybench/ outside its own
definition. A doctored module with an uncalled function is the
control.

Limit: names are matched, not resolved. A member whose name collides
with another one that is used (sub, add and arrow were such) passes
unseen; those were found with grep.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "hermk"


def _public_definitions(tree) -> set[str]:
    """Names of the public top-level functions of tree and, as
    Class.method, of the public methods of its top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            out.add(node.name)
        elif isinstance(node, ast.ClassDef):
            out.update(
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, functions) and not m.name.startswith("_")
            )
    return out


def _references(tree) -> set[str]:
    """Every name tree reads as a variable, an attribute or an import,
    leaving out reads inside a function of that name."""
    seen = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.add(node.name.split(".")[-1])
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return seen


def uncalled_public_names(modules: dict, others: list) -> set[str]:
    """module.name for each public definition in modules (module name ->
    source text) that no text of modules or others references."""
    used = set()
    for text in [*modules.values(), *others]:
        used |= _references(ast.parse(text))
    return {
        f"{name}.{d}"
        for name, text in modules.items()
        for d in _public_definitions(ast.parse(text))
        if d.split(".")[-1] not in used
    }


def test_every_public_name_is_referenced():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [
        p.read_text() for d in ("tests", "verifybench") for p in sorted((REPO / d).glob("*.py"))
    ]
    assert {"linalg", "core", "cubes"} <= set(modules) and len(others) > 10
    assert uncalled_public_names(modules, others) == set()
    # control: an uncalled function and method, one calling itself
    doctored = modules["core"] + (
        "\n\ndef never_called(n):\n    return never_called(n - 1) if n else 0\n"
        "\n\nclass Spare:\n    def never_used(self):\n        return 0\n"
    )
    assert uncalled_public_names({**modules, "core": doctored}, others) == {
        "core.never_called",
        "core.Spare.never_used",
    }
