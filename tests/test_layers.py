"""Layering, read from the source: no verdict path builds a power table.

The walk table of ``amplify.reachability`` serves the definition-level
oracle and the symbolic lattice only.  These checks parse the modules and
never import them.
"""

import ast
from pathlib import Path

import pytest

import amplify

SRC = Path(amplify.__file__).parent
TABLE_NAMES = {"build_reachability", "exact_reach"}
VERDICT_PATH = (
    "decide_gauge_iso",
    "decide_stable_iso",
    "normalize_lattice_iso",
    "_is_lattice_iso",
    "check_lemma23",
    "_longest_walk",
    "reconstruct",
)


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def imported_modules(tree):
    """Dotted names of every module the tree imports, relative ones resolved
    against the ``amplify`` package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "amplify" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("module", ["graphs", "kernels", "isomorph", "cli"])
def test_module_does_not_import_reachability(module):
    assert "amplify.reachability" not in imported_modules(parse(module))


def test_imported_modules_sees_the_import():
    # the check above is not vacuous: skewlattice does import the table
    assert "amplify.reachability" in imported_modules(parse("skewlattice"))


def test_verdict_path_names_no_table():
    functions = {
        node.name: node
        for node in parse("classification").body
        if isinstance(node, ast.FunctionDef)
    }

    def names(fn):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    # follow calls into the module's own functions as well
    todo, seen = list(VERDICT_PATH), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        used = names(functions[name])
        assert not used & TABLE_NAMES, (name, used & TABLE_NAMES)
        todo.extend(used & functions.keys())
    assert "validate_lattice_iso" not in seen
