"""The spinspec modules form an acyclic import graph, every import of one
spinspec module by another at module level: geometry -> identities ->
{bounds, dirac_core} -> cli, read from the source with `ast`."""

import ast
import os

import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "spinspec")
MODULES = sorted(name[:-3] for name in os.listdir(PKG) if name.endswith(".py"))


def _imported(node: ast.AST) -> list[str]:
    """The spinspec modules that one import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "spinspec"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "spinspec":
            return []
        base = parts[1:]
    elif node.level == 1:
        base = node.module.split(".") if node.module else []
    else:
        return []
    if base:
        return [base[0]]
    # `from . import x`: a submodule x, or a name of the package itself
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(module: str) -> list[tuple[str, bool]]:
    """(imported spinspec module, at module level) for each import in it."""
    with open(os.path.join(PKG, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    top = set(map(id, tree.body))
    return [(name, id(node) in top) for node in ast.walk(tree)
            for name in _imported(node)]


GRAPH = {m: _imports(m) for m in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_spinspec_imports_sit_at_module_level(module):
    assert [name for name, top in GRAPH[module] if not top] == []


def test_import_graph_has_no_cycle():
    edges = {m: sorted({name for name, _ in GRAPH[m]}) for m in MODULES}
    cycles, state = [], {}

    def visit(m, path):
        state[m] = "open"
        for n in edges[m]:
            if state.get(n) == "open":
                cycles.append(path[path.index(n):] + [n])
            elif n not in state:
                visit(n, path + [n])
        state[m] = "done"

    for m in MODULES:
        if m not in state:
            visit(m, [m])
    assert cycles == []


def test_identities_reads_only_geometry_and_spin_algebra():
    assert {name for name, _ in GRAPH["identities"]} == {"geometry",
                                                          "spin_algebra"}
