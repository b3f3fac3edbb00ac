"""Layering: gate matrices are built in `gates` and applied in `simulator`
and nowhere else, and the circuit alone decides how its input is encoded.

`gates` sits at the bottom of the package and imports nothing from it but
`errors`, so no module it could call back into can own a second builder.
`np.einsum` is used only in `simulator`, so every gate application, the
noise path's included, goes through `apply_matrix` and no module can grow a
second kernel.  `Circuit.amplitude_input` is set by the file parser and read
only by the circuit and by `training.input_states`, and `zero_state` is
named only in `simulator` and `training`, so no other module can grow a
second encoding path or its own |0...0> fallback.  Every function, class and
method the package defines is named somewhere in the package outside its
own definition, so `src/` holds only what the pipeline runs, not an API that
only tests call.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import vqcompress

PACKAGE = Path(vqcompress.__file__).parent
BUILDERS = {"gate_matrix", "gate_mats_batch", "controlled_mats", "_rotation_mats", "_u3_mats"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _package_imports(tree: ast.Module) -> set[str]:
    """Package modules a module imports, by their name inside the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif (node.module or "").startswith("vqcompress"):
                found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] for a in node.names
                      if a.name.split(".")[0] == "vqcompress"}
    return found


def test_gates_imports_only_errors_from_the_package():
    assert _package_imports(_tree("gates")) == {"errors"}


def test_the_import_scan_sees_package_imports():
    # guards the scan itself: simulator's imports are known
    assert {"circuit", "errors", "gates"} <= _package_imports(_tree("simulator"))


def test_only_gates_defines_matrix_builders():
    for path in sorted(PACKAGE.glob("*.py")):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)}
        if path.stem != "gates":
            assert not defined & BUILDERS, (path.name, defined & BUILDERS)
        else:
            assert BUILDERS <= defined


def _uses_einsum(tree: ast.Module) -> bool:
    """An `x.einsum` attribute, a bare `einsum` name or an import of it."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                or isinstance(node, ast.Name) and node.id == "einsum"
                or isinstance(node, ast.alias) and node.name.endswith("einsum")):
            return True
    return False


def test_only_simulator_uses_einsum():
    users = {path.stem for path in sorted(PACKAGE.glob("*.py"))
             if _uses_einsum(ast.parse(path.read_text()))}
    assert users == {"simulator"}


@pytest.mark.parametrize("source, found", [
    ("np.einsum('ab,rb->ra', m, s)", True),
    ("from numpy import einsum as e", True),
    ("import numpy as xp\nk = xp.einsum", True),
    ("np.linalg.norm(s)", False),
])
def test_the_einsum_scan_sees_every_spelling(source, found):
    assert _uses_einsum(ast.parse(source)) is found


def test_only_circuit_and_training_read_the_input_mode():
    readers, passers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "amplitude_input"
                    or isinstance(node, ast.Constant) and node.value == "amplitude_input"):
                readers.add(path.stem)
            elif isinstance(node, ast.keyword) and node.arg == "amplitude_input":
                passers.add(path.stem)
    assert readers == {"circuit", "training"}
    assert passers == {"circfile"}


# Defined for callers outside the package, each with its reason.
UNCALLED_ALLOWED = {
    "run_circuit",       # acceptance criterion 5 runs the transpiled circuit with it
    "apply_gate_batch",  # the benchmark's tracer wraps it by name (perfbench/layers.py)
    # perfbench's check_gradient and criterion 4 call it with features
    "batch_loss_and_gradient",
    # perfbench's check_unitary and check_tcd, and its tracer, call it by name
    "transpile_circuit",
    # the one-row rho pass: perfbench's tracer wraps it by name, and criterion
    # 9b and the noise tests call it
    "noisy_outputs",
}


def _named(node: ast.AST) -> Counter:
    """How often each name appears under `node` as a name, an attribute or an import."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def test_only_simulator_and_training_name_zero_state():
    users = {path.stem for path in sorted(PACKAGE.glob("*.py"))
             if _named(ast.parse(path.read_text()))["zero_state"]}
    assert users == {"simulator", "training"}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and every method but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _unreferenced(sources: list[str]) -> set[str]:
    """Definitions that no source names outside the definition itself."""
    trees = [ast.parse(s) for s in sources]
    named = sum((_named(tree) for tree in trees), Counter())
    return {d.name for tree in trees for d in _definitions(tree)
            if named[d.name] == _named(d)[d.name]}


def test_every_definition_is_named_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    assert _unreferenced(sources) == UNCALLED_ALLOWED


@pytest.mark.parametrize("source, unreferenced", [
    ("def f():\n    return g()\n\ndef g():\n    return 1", {"f"}),
    ("class A:\n    def m(self):\n        return self\n\nA()", {"m"}),
    ("class A:\n    def m(self):\n        return self.m()\n\nA()", {"m"}),
    ('def f():\n    """Calls g."""\n\ndef g():\n    pass\n\nf()', {"g"}),
    ("class A:\n    def __len__(self):\n        return 0\n\nx = [A]", set()),
    ("from m import f as h\n\ndef f():\n    pass", set()),
], ids=["function", "method", "recursive-method", "docstring-only", "dunder", "import"])
def test_the_definition_scan_sees_unreferenced_names(source, unreferenced):
    assert _unreferenced([source]) == unreferenced
