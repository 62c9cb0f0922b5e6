"""Every name a module imports is used in it.

No linter ships with the test dependencies, so this parses each module with
``ast``.  The package's ``__init__.py`` is skipped: its imports are
re-exports.  A name counts as used when it is loaded anywhere in the module,
string annotations included.
"""

import ast
from pathlib import Path

import pytest

import qdecoupling

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "qdecoupling").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, plus those inside string annotations such as ``"State"``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def _eigensolver_uses(tree: ast.Module) -> list[str]:
    """Lines that reach an eigensolver of ``numpy.linalg`` or ``scipy.linalg`` directly.

    That is an attribute ``linalg.<solver>`` (``np.linalg.eigh``,
    ``scipy.linalg.eigvals``, ...) or an import of a solver from a ``linalg``
    module.  ``Spectrum.eigh`` and ``Spectrum.eigvalsh`` do not match.
    """
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if name == "linalg":
                uses.append(f"linalg.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            uses += [f"import of {a.name} (line {node.lineno})"
                     for a in node.names if a.name in EIGENSOLVERS]
    return uses


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name == "qdecoupling"
                                  and p.name != "linalg.py"], ids=lambda p: p.name)
def test_eigensolvers_only_in_linalg(path):
    """Only ``linalg`` calls numpy's eigensolvers; every other module goes through ``Spectrum``."""
    uses = _eigensolver_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} calls an eigensolver outside linalg.Spectrum: {', '.join(uses)}"


def test_eigensolver_check_sees_direct_calls():
    src = ("import numpy as np\nfrom scipy.linalg import eigvals\n"
           "w = np.linalg.eigvalsh(m)\nv = Spectrum.eigh(m)\n")
    assert _eigensolver_uses(ast.parse(src)) == ["import of eigvals (line 2)",
                                                 "linalg.eigvalsh (line 3)"]


def _brentq_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``brentq``: an attribute, a bare name or an import of it."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute) and node.attr == "brentq")
                   or (isinstance(node, ast.Name) and node.id == "brentq")
                   or (isinstance(node, ast.alias) and node.name == "brentq")})


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name == "qdecoupling"],
                         ids=lambda p: p.name)
def test_no_brentq_in_src(path):
    """Root searches go through ``exponents._brent``: scipy's ``brentq`` wraps its
    callable in a closure that refers to itself, so each call left a reference
    cycle that kept the objects it reached alive until a cyclic collection."""
    lines = _brentq_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} uses brentq on lines {lines}"


def test_brentq_check_sees_every_form():
    src = ("from scipy.optimize import brentq\nimport scipy.optimize as so\n"
           "so.brentq(f, 0, 1)\nbrentq(f, 0, 1)\nbrent(f)\n")
    assert _brentq_uses(ast.parse(src)) == [1, 3, 4]


# Definitions kept although no other code in ``src/`` refers to them.
REACHED_FROM_OUTSIDE = {
    "mat_pow",  # perfbench's tracer looks it up by name
    "decoupling_error_sample",  # perfbench's tracer wraps it; the batched estimator's reference
    "comparator_exponent",  # acceptance criterion 10
    # fixture constructors of the tests and the acceptance criteria
    "max_entangled",
    "maximally_correlated",
    "identity_channel",
    "full_trace_channel",
}


def _names(node: ast.AST):
    """Every name ``node`` refers to: loaded names, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _unreferenced(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Top-level functions and classes of ``trees`` that ``exported`` lacks and that
    no top-level statement but their own definition refers to."""
    tops = [(name, top, set(_names(top))) for name, tree in trees.items() for top in tree.body]
    return [f"{name}:{top.name}" for name, top, _ in tops
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in exported
            and not any(top.name in refs for _, other, refs in tops if other is not top)]


def test_no_library_code_that_only_tests_reach():
    """Every top-level function and class of ``src/`` is used by other library code,
    exported by ``__all__`` or named in REACHED_FROM_OUTSIDE with its reason."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES if p.parent.name == "qdecoupling"}
    dead = _unreferenced(trees, set(qdecoupling.__all__) | REACHED_FROM_OUTSIDE)
    assert not dead, f"only tests reach these definitions: {', '.join(dead)}"


def test_unreferenced_check_sees_recursion_and_exports():
    trees = {"m.py": ast.parse("def f():\n    return f()\n\ndef g():\n    return h\n\n"
                               "def h():\n    pass\n\nclass C:\n    pass\n")}
    assert _unreferenced(trees, set()) == ["m.py:f", "m.py:g", "m.py:C"]
    assert _unreferenced(trees, {"g", "C"}) == ["m.py:f"]
