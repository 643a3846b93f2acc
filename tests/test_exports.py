"""Every public engine name is reached by the package or the benchmark.

A helper that only its own unit tests call is dead weight: it has to be
kept correct without serving any result.  This test parses ``src/`` and
``bench/`` and asserts that each name in the ``__all__`` of every engine
module is used somewhere outside its own definition, with no exemptions.
A type annotation (of an argument, a return or an annotated assignment)
is no use: a name that only annotations mention serves no result.  Test
references live under ``tests/``.  The package's own ``__all__`` only
re-exports these modules and the error types, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

from umbralint import cli, closedforms, oracle, reference, specfun, transforms, umbral

ROOT = Path(__file__).resolve().parent.parent


class _Uses(ast.NodeVisitor):
    """Names read or attributes taken, outside the definition of that name
    and outside type annotations."""

    def __init__(self):
        self.used = set()
        self._inside = []

    def _visit_definition(self, node):
        self._inside.append(node.name)
        for child in ast.iter_child_nodes(node):
            if child is not getattr(node, "returns", None):
                self.visit(child)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_arg(self, node):
        pass   # an argument's annotation is no use

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _use(self, name):
        if name not in self._inside:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _used_names():
    uses = _Uses()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses.used


@pytest.mark.parametrize("module", [umbral, transforms, reference, specfun, oracle,
                                    closedforms, cli], ids=lambda m: m.__name__)
def test_every_public_name_is_reached(module):
    unreached = sorted(set(module.__all__) - _used_names())
    assert not unreached, f"{module.__name__} exports names nothing uses: {unreached}"


# the oracle side never reaches the series kernel it checks, not even at
# a function-level import
SERIES_KERNEL = {"specfun", "umbral", "summation", "transforms", "closedforms"}


def _imported_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [oracle, reference], ids=lambda m: m.__name__)
def test_oracle_side_imports_no_series_kernel(module):
    reached = _imported_names(Path(module.__file__)) & SERIES_KERNEL
    assert not reached, f"{module.__name__} imports {sorted(reached)}"
