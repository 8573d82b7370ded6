"""Every name a package module imports is used in that module.

The package root re-exports what it imports, so it is left out.
"""

import ast
from pathlib import Path

import pytest

import effpcm

PACKAGE = Path(effpcm.__file__).resolve().parent


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


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == set()
