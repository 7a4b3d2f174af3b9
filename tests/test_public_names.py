"""Every public name of hermk is used somewhere, and each one that only
the tests use is listed with its reason.

The check parses src/hermk with ast: each public top-level function
and each public method of a top-level class must be referenced, by
name, somewhere in src/, tests/, verifybench/ or tools/ outside its
own definition. A public name that no text of src/, verifybench/ or
tools/ references, and tests/ does, is test-only: it must sit in
TEST_ONLY with its reason, and every name there must be test-only. A
doctored module with an uncalled function, and one with a function
only a test calls, are the controls.

Limit: names are matched, not resolved. A member whose name collides
with another one that is used (sub, add and arrow were such) passes
unseen; those were found with grep. A per-layer metric names its
function in a string, which the ast walk does not read, so such a
function counts as test-only.
"""

from __future__ import annotations

import ast
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "hermk"

# module.name -> (reason, note) for every public name only tests/ use.
# The reasons:
# - "oracle": tests compare a construction of the program against it;
# - "claim": a paper identity that ROADMAP item 2 may make a verify
#   claim, or move into tests/;
# - "metric": a BENCHMARK.json per-layer metric traces it, so deleting
#   it is a stated benchmark change (ROADMAP item 4).
TEST_ONLY = {
    "core.quotient_metric": ("metric", "core.quotient_metric.*; reads 0 on every workload"),
    "core.subspace_object": ("oracle", "the kernel object built from a given basis"),
    "cubes.canonical_kernel_rebuild": ("claim", "the canonical-kernel rebuild of a cube"),
    "cubes.is_normalized": ("claim", "the vanishing 0- and 1-faces of a cube"),
    "koszul.koszul_iterated": ("claim", "the two-iterated transform complex"),
    "koszul.norm_ratio": ("claim", "inclusion norm over quotient norm is k"),
    "koszul.norm_ratio_all": ("claim", "the norm ratio on every basis vector"),
    "koszul.psicomp_tree": ("claim", "the recursion trace of the transform"),
    "koszul.secondary_euler_pair_identity": ("claim", "the secondary Euler refinement"),
    "koszul.ses_boundary": ("claim", "the K0 face sum of a kernel sequence vanishes"),
    "koszul.transposed_koszul": ("claim", "the transform complex with exterior factors first"),
    "linalg.add_vec": ("oracle", "vector sums of the Fraction oracles of homology"),
    "linalg.in_span": ("metric", "linalg.in_span.*; reads 0 on every workload"),
    "linalg.scale_vec": ("oracle", "vector scalings of the Fraction oracles of homology"),
    "linalg.solve_vec": ("oracle", "the solve-based span test behind oracle_in_span"),
    "multilinear.iota_map": ("metric", "busy_s metric; with j, pi, rho the phi/psi oracle"),
    "multilinear.j_map": ("metric", "busy_s metric; with iota, pi, rho the phi/psi oracle"),
    "multilinear.pi_map": ("metric", "busy_s metric; with iota, j, rho the phi/psi oracle"),
    "multilinear.rho_map": ("metric", "busy_s metric; with iota, j, pi the phi/psi oracle"),
}
REASONS = ("oracle", "claim", "metric")


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


def _used(texts) -> set[str]:
    out = set()
    for text in texts:
        out |= _references(ast.parse(text))
    return out


def _public_names(modules: dict) -> dict[str, str]:
    """module.name -> the name matched against references, for each
    public definition in modules (module name -> source text)."""
    return {
        f"{name}.{d}": d.split(".")[-1]
        for name, text in modules.items()
        for d in _public_definitions(ast.parse(text))
    }


def uncalled_public_names(modules: dict, others: list) -> set[str]:
    """module.name for each public definition in modules that no text
    of modules or others references."""
    used = _used([*modules.values(), *others])
    return {name for name, leaf in _public_names(modules).items() if leaf not in used}


def names_only_tests_use(modules: dict, program: list, tests: list) -> set[str]:
    """module.name for each public definition in modules that a text of
    tests references and no text of modules or program does."""
    in_program, in_tests = _used([*modules.values(), *program]), _used(tests)
    return {
        name
        for name, leaf in _public_names(modules).items()
        if leaf not in in_program and leaf in in_tests
    }


def _texts(*dirs: str) -> list[str]:
    return [p.read_text() for d in dirs for p in sorted((REPO / d).glob("*.py"))]


def _modules() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_public_name_is_referenced():
    modules = _modules()
    others = _texts("tests", "verifybench", "tools")
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


def test_names_only_tests_reference_are_listed_with_a_reason():
    modules, program, tests = _modules(), _texts("verifybench", "tools"), _texts("tests")
    assert names_only_tests_use(modules, program, tests) == set(TEST_ONLY)
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    traced = {m["name"].rsplit(".", 1)[0] for m in metrics}
    for name, (reason, note) in TEST_ONLY.items():
        assert reason in REASONS and note, name
        assert (reason == "metric") == (name in traced), name
    # control: a new public function that only a test calls is not listed
    doctored = modules["core"] + "\n\ndef only_tested():\n    return 0\n"
    caller = "from hermk.core import only_tested\n\nassert only_tested() == 0\n"
    found = names_only_tests_use({**modules, "core": doctored}, program, [*tests, caller])
    assert found - set(TEST_ONLY) == {"core.only_tested"}
