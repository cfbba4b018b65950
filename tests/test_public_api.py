"""A public name stays public only while something outside the tests uses it,
and coin plans are built in one module.

A name in a ``dtqw`` module's ``__all__`` counts as used when code names it
(an identifier, an attribute or an import; docstrings and comments do not
count) in another ``dtqw`` module, in its own module outside its own
definition, in a demo, in the acceptance suite, or in the benchmark's
workloads.  The package ``__init__`` only re-exports, so it uses nothing.
A name that only tests use belongs in the tests (``tests/oracles.py`` for
references); the few kept public for the paper's sake are listed below.

Which walk a policy, a seed or a packed sequence stands for is decided in
``walk.py`` alone: no other ``dtqw`` module calls ``CoinPlan(...)`` or the
random policies' coin draw, ``_random_alphabet`` and ``_random_bits``, or
imports the last two.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dtqw"
CALLERS = (
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "bench" / "workloads.py",
    ROOT / "bench" / "worker.py",
)

# Public although only tests call them.
KEPT = {
    "SIGMA_X": "Pauli matrix, public beside SIGMA_Z for the coin algebra",
    "SIGMA_Y": "Pauli matrix; the wave plates rotate by exp(-i x sigma_y)",
    "hwp_coin": "the paper's half-wave-plate realization of H",
    "qwp_coin": "the paper's quarter-wave-plate realization of F",
    "phase_invariant_distance": "compares a wave-plate coin with H or F up to global phase",
    "interval_weighted_mean": "the paper's interval-weighted average of measured entropies",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _used_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Identifiers that the code of `tree` refers to, outside the top-level definition of `skip`."""
    found = set()
    for stmt in tree.body:
        if skip is not None and _defines(stmt, skip):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
    return found


def _public(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _defines(stmt, "__all__"):
            return list(ast.literal_eval(stmt.value))
    return []


def unused_public_names() -> set[str]:
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set().union(*(_used_names(_parse(p)) for p in CALLERS))
    unused = set()
    for path, tree in modules.items():
        elsewhere = outside.union(*(_used_names(t) for p, t in modules.items() if p != path))
        for name in _public(tree):
            if name not in elsewhere and name not in _used_names(tree, skip=name):
                unused.add(name)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert not unused - KEPT.keys(), (
        f"public names used only by tests: {sorted(unused - KEPT.keys())}; "
        "move them to the tests or give them a caller"
    )
    assert not KEPT.keys() - unused, (
        f"kept names that now have a caller: {sorted(KEPT.keys() - unused)}; drop them from KEPT"
    )


PLAN_BUILDERS = {"CoinPlan", "_random_alphabet", "_random_bits", "_sequence_alphabet"}


def plan_builders_outside_walk() -> list[str]:
    """``module:line name`` of each plan builder called, or coin alphabet or draw imported, outside ``walk.py``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "walk.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
                if name == "CoinPlan":  # the type, named in annotations
                    continue
            else:
                continue
            if name in PLAN_BUILDERS:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_walk_builds_coin_plans():
    found = plan_builders_outside_walk()
    assert not found, f"coin plans built outside walk.py: {found}; add a plan builder to walk.py"


# The kernel's number format (its rows, the frame q, the scale s_t) is read
# in walk.py, which hands other modules finished reductions and states.  The
# exhaustive sweep's prefix tree drives the kernel's step itself.
KERNEL_NAMES = {"_propagate", "_phase_shift", "_destination", "_dense", "_second_moment", "_moment_rows", "_coin_dots"}
KERNEL_ATTRIBUTES = {"scales", "phases"}
PREFIX_TREE = {"sequences.py": {"_tree_entropies", "_suffix_map"}}


def kernel_readers_outside_walk() -> list[str]:
    """``module:line name`` of each kernel name or plan attribute read outside ``walk.py`` and the prefix tree.

    The module that holds the prefix tree may import the kernel names it uses.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "walk.py":
            continue
        allowed = PREFIX_TREE.get(path.name, set())
        tree = _parse(path)
        inside = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name in allowed
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            kernel = KERNEL_NAMES
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name, kernel = node.attr, KERNEL_NAMES | KERNEL_ATTRIBUTES
            elif isinstance(node, ast.alias) and not allowed:
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in kernel and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_walk_and_the_prefix_tree_read_the_kernel():
    found = kernel_readers_outside_walk()
    assert not found, f"kernel rows, frames or scales read outside walk.py: {found}; add a reduction to walk.py"
