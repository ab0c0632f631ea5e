"""Every module of the package has a caller, or is a named oracle.

The command line is the package's one entry point, so a module that no
chain of imports from `cli` reaches (imports inside functions count) is
code that no command runs.  Only the fixtures and the oracles that the
tests run may be such modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgdescent"

# instances: fixtures for the tests and the benchmark;
# simplicial: the limit oracle of acceptance criterion 6
NOT_CALLED = {"instances", "simplicial"}


def _imported_modules(name, modules):
    """The package modules that module `name` imports, anywhere in it.
    The package imports its own modules only relatively."""
    path = SRC / f"{name}.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:     # from . import a, b
                out.update(a.name for a in node.names)
            else:
                out.add(node.module)
    return out & modules


def test_every_module_has_a_caller_or_is_an_oracle():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    reached = {"cli"}
    todo = ["cli"]
    while todo:
        for dep in _imported_modules(todo.pop(), modules) - reached:
            reached.add(dep)
            todo.append(dep)
    assert not modules - reached - NOT_CALLED, \
        f"no caller: {sorted(modules - reached - NOT_CALLED)}"
    assert NOT_CALLED <= modules
