"""Every name a package module imports is used in that module.

The package root re-exports what it imports, so it is left out.  The one
binding kept unused is ``geometry.cycle_product``: the benchmark's tracing
tests rebind it in every module that holds it.
"""

import ast
from pathlib import Path

import pytest

import effpcm

PACKAGE = Path(effpcm.__file__).resolve().parent
KEPT_FOR_TRACING = {("geometry", "cycle_product")}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_the_kept_binding_names_a_module():
    assert {module for module, _ in KEPT_FOR_TRACING} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    kept = {name for kept_module, name in KEPT_FOR_TRACING if kept_module == module}
    assert _unused_imports(tree) == kept
