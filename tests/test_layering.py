"""Layering: gate matrices are built in `gates` and applied in `simulator`
and nowhere else, and the circuit alone decides how its input is encoded.

`gates` sits at the bottom of the package and imports nothing from it but
`errors`, so no module it could call back into can own a second builder.
`np.einsum` is used only in `simulator`, so every gate application, the
noise path's included, goes through `apply_matrix` and no module can grow a
second kernel.  `Circuit.amplitude_input` is set by the file parser and read
only by the circuit and by `training.input_states`, and `zero_state` is
named only in `simulator` and `training`, so no other module can grow a
second encoding path or its own |0...0> fallback.  Only `transpile` builds
a keep-mode `DepthScan`, so the peephole rule's gate list has one source,
`transpile.kept_gates`.  Only `experiment` and `cli` name `reconstruct_lut`
(and `__init__` exports it), so no compression method can sweep ReCL again
for itself.  `circfile` names neither `ARITY` nor `N_QUBITS_OF_KIND`, so
`Gate` alone decides a kind's qubit and angle counts and the parser reports
its errors at their line.  Only `training` names `softmax`, and no module
names `argmax`, so `training.hits` alone decides a correct prediction and no
path can score a tie by roundoff.  Every function, class and
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
    assert _package_imports(_tree("simulator")) == {"circuit", "gates"}


def _bindings_readers(tree: ast.Module) -> set[str]:
    """Dotted names of the definitions that name `bindings`, as a name, an
    attribute or a string; "" stands for module level."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Name) and child.id == "bindings"
                    or isinstance(child, ast.Attribute) and child.attr == "bindings"
                    or isinstance(child, ast.Constant) and child.value == "bindings"):
                found.add(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_gate_plan_resolves_bindings():
    # one angle resolver: outside the circuit and its file parser, only
    # GatePlan turns bindings into angles; the transpiler and the noise
    # evaluator lower the angles its plans yield
    readers = {path.stem: _bindings_readers(ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem not in ("circuit", "circfile")}
    assert {stem: found for stem, found in readers.items() if found} == {
        "simulator": {"GatePlan.__init__"}}


@pytest.mark.parametrize("source, found", [
    ("def f(g):\n    return g.bindings", {"f"}),
    ("class P:\n    def __init__(self, g):\n        self.b = [b for b in g.bindings]",
     {"P.__init__"}),
    ("def f(g):\n    return getattr(g, 'bindings')", {"f"}),
    ("bindings = ()", {""}),
    ("def f(g):\n    return g.theta_slots", set()),
])
def test_the_bindings_scan_sees_every_reader(source, found):
    assert _bindings_readers(ast.parse(source)) == found


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


def _keep_scans(tree: ast.Module) -> bool:
    """A `DepthScan(...)` call, bare or as an attribute, whose `keep` is
    passed by position or as anything but a literal False."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "DepthScan":
            continue
        keep = [k.value for k in node.keywords if k.arg == "keep"] + node.args[1:2]
        if any(not (isinstance(v, ast.Constant) and v.value is False) for v in keep):
            return True
    return False


def test_only_transpile_builds_a_keep_mode_scan():
    users = {path.stem for path in sorted(PACKAGE.glob("*.py"))
             if _keep_scans(ast.parse(path.read_text()))}
    assert users == {"transpile"}


@pytest.mark.parametrize("source, found", [
    ("DepthScan(n, keep=True)", True),
    ("transpile.DepthScan(n, True)", True),
    ("DepthScan(n, keep=flag)", True),
    ("DepthScan(n)", False),
    ("DepthScan(n, keep=False)", False),
])
def test_the_keep_scan_scan_sees_every_spelling(source, found):
    assert _keep_scans(ast.parse(source)) is found


# Defined for callers outside the package, each with its reason.
UNCALLED_ALLOWED = {
    "run_circuit",       # acceptance criterion 5 runs the transpiled circuit with it
    "apply_gate_batch",  # the benchmark's tracer wraps it by name (perfbench/layers.py)
    # perfbench's check_gradient and criterion 4 call it with features
    "batch_loss_and_gradient",
    # perfbench's check_unitary reads its global_phase; check_tcd and the
    # tracer call it by name
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


def test_only_training_scores_a_prediction():
    # one scoring rule: `training.hits` decides a correct prediction, and
    # softmax is left to the loss
    named = {path.stem: _named(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, found in named.items() if found["softmax"]} == {"training"}
    assert {stem for stem, found in named.items() if found["argmax"]} == set()


@pytest.mark.parametrize("source, name", [
    ("probs.argmax(axis=1)", "argmax"),
    ("from numpy import argmax as top", "argmax"),
    ("import numpy as xp\nk = xp.argmax(o)", "argmax"),
    ("from .training import softmax", "softmax"),
])
def test_the_scoring_scan_sees_every_spelling(source, name):
    assert _named(ast.parse(source))[name]


def test_only_experiment_and_cli_sweep_recl():
    users = {path.stem for path in sorted(PACKAGE.glob("*.py"))
             if _named(ast.parse(path.read_text()))["reconstruct_lut"]}
    assert users == {"__init__", "cli", "experiment"}


GATE_RULES = ("ARITY", "N_QUBITS_OF_KIND")


def _names_gate_rules(tree: ast.Module) -> bool:
    named = _named(tree)
    return any(named[rule] for rule in GATE_RULES)


def test_the_parser_restates_no_gate_rule():
    assert not _names_gate_rules(_tree("circfile"))
    assert _names_gate_rules(_tree("circuit"))


@pytest.mark.parametrize("source, found", [
    ("from .gates import ARITY", True),
    ("from .gates import N_QUBITS_OF_KIND as nq", True),
    ("from . import gates\nn = gates.ARITY[kind]", True),
    ("import vqcompress.gates\nq = vqcompress.gates.N_QUBITS_OF_KIND", True),
    ("from .gates import GateKind", False),
])
def test_the_gate_rule_scan_sees_every_spelling(source, found):
    assert _names_gate_rules(ast.parse(source)) is found


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
