"""Every module, function, class and method has a caller, or is a named
oracle.

The command line is the package's one entry point, and the benchmark
reaches the rest of what the package runs, so code that no chain of
imports or names from those callers reaches is code that nothing runs.
Only the fixtures and the oracles that the tests run may be such code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dgdescent"
BENCH = ROOT / "perfbench"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# instances: fixtures for the tests and the benchmark;
# simplicial: the limit oracle of acceptance criterion 6
NOT_CALLED = {"instances", "simplicial"}

# definitions that no caller reaches, with the reason each one stays;
# every name instances defines stays as a fixture, and simplicial's
# definitions are reached from the names criterion 6 imports.  An entry
# that a caller reaches goes: see test_no_oracle_is_reached_by_a_caller
ORACLES = {
    "mcgauge.FormLieContext.vertex": "vertex evaluation of criterion 3",
    "mcgauge.mc_lift": "MC lifting of criterion 4",
    "dgla.is_acyclic_fibration": "the fibrations of criterion 4",
    "cech.lift_tot_gauge": "the fullness lift of Tot gauges, kept for the "
                           "fullness check the descent check still lacks",
    "cochain.GradedSpace.labels": "the basis labels of a degree, read by "
                                  "criterion 5's hand-built Cech oracle and "
                                  "the tests' mapping cone",
}


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


# ---------------------------------------------------------------------------
# names


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _instance_attributes():
    """The names that the package assigns as self.<name>."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                out.add(node.attr)
    return out


def _names_in(nodes, attributes=frozenset()):
    """Every name and attribute name that the nodes mention, an
    attribute name as "." + name: a bare name reaches module-level
    definitions only, since a method is only ever named as an
    attribute.  A read of an attribute named in `attributes` (an
    instance attribute of the package) counts only where it is called:
    reading MaximalIdeal.labels, an instance attribute, reaches no
    method labels."""
    out = set()
    for node in nodes:
        called = {id(sub.func) for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and (
                    sub.attr not in attributes or id(sub) in called):
                out.add("." + sub.attr)
    return out


def _definitions():
    """{"module.name" or "module.Class.method": (short name, nodes whose
    names a reached definition reaches)}, and the module-level
    statements that are not definitions.  A class reaches its bases,
    decorators, class-level statements and special methods."""
    defs = {}
    toplevel = []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (node.name, [node])
            elif isinstance(node, ast.ClassDef):
                own = node.bases + node.decorator_list
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or \
                            item.name.startswith("__"):
                        own.append(item)
                    else:
                        defs[f"{mod}.{node.name}.{item.name}"] = \
                            (item.name, [item])
                defs[f"{mod}.{node.name}"] = (node.name, own)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                toplevel.append(node)
    return defs, toplevel


def _bench_roots(attributes):
    """The names perfbench reaches: the (module, path) pairs of
    spans.TARGETS, read without importing it, and every name and
    attribute that workloads.py reads (`_names_in`)."""
    names = set()
    for node in ast.walk(_parse(BENCH / "spans.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            for entry in node.value.elts:
                names.update("." + part for part in
                             entry.elts[1].value.split("."))
    return names | _names_in([_parse(BENCH / "workloads.py")], attributes)


def _criterion6_roots():
    """The names that criterion 6 imports from dgdescent.simplicial."""
    return {f"simplicial.{alias.name}"
            for node in ast.walk(_parse(ACCEPTANCE))
            if isinstance(node, ast.ImportFrom)
            and node.module == "dgdescent.simplicial"
            for alias in node.names}


def _unreached(oracles=ORACLES):
    """(the definitions that no root reaches, every definition); the
    roots are the command line, the fixtures, the benchmark, criterion
    6 and the given oracles."""
    defs, toplevel = _definitions()
    # an attribute name reaches every definition of its name, a bare
    # name the module-level ones (`_names_in`)
    by_name = {}
    for key, (short, _) in defs.items():
        by_name.setdefault("." + short, []).append(key)
        if key.count(".") == 1:
            by_name.setdefault(short, []).append(key)
    criterion6 = _criterion6_roots()
    roots = [k for k in defs if k.split(".")[0] in {"instances", "cli"}
             or k in oracles or k in criterion6]
    attributes = _instance_attributes()
    names = _bench_roots(attributes) | _names_in(toplevel, attributes)
    reached = set()
    todo = list(roots) + [k for n in names for k in by_name.get(n, [])]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for n in _names_in(defs[key][1], attributes):
            todo.extend(by_name.get(n, []))
    return sorted(set(defs) - reached), defs


def test_every_definition_has_a_caller_or_is_an_oracle():
    unreached, defs = _unreached()
    assert not unreached, f"no caller and no oracle: {unreached}"
    roots = set(ORACLES) | _criterion6_roots()
    assert roots <= set(defs), sorted(roots - set(defs))


def test_no_oracle_is_reached_by_a_caller():
    """An oracle that the command line, the benchmark or criterion 6
    reaches has a caller, and its ORACLES entry goes."""
    unreached, _ = _unreached(oracles={})
    stale = sorted(set(ORACLES) - set(unreached))
    assert not stale, f"reached without an oracle entry: {stale}"


def test_an_instance_attribute_read_reaches_no_method():
    """Reading an instance attribute reaches no method of its name, and
    calling it does; a bare name reaches no method at all."""
    nodes = [ast.parse("n = len(a.labels)\nb.degree_of(k)\nlabels = c.dim")]
    assert _names_in(nodes, {"labels", "degree_of"}) == \
        {"n", "len", "a", "b", ".degree_of", "k", "labels", "c", ".dim"}
    assert ".labels" in _names_in(nodes)
    assert "labels" in _instance_attributes()
