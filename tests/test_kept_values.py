"""Records keep derived values as ``functools.cached_property`` slots.

No package module reads another object's ``__dict__``: a record writes its
own, and only a builder seeding a value it already holds, or the one memo
``pcm`` cannot declare, writes another's.
"""

import ast
from pathlib import Path

import pytest

import effpcm

PACKAGE = Path(effpcm.__file__).resolve().parent

# (module, function) pairs allowed to reach into another object's __dict__
ALLOWED = {
    ("pcm", "pcm_from_pairs"),  # seeds Pcm.signs
    ("pcm", "parse_pcm"),  # seeds Pcm.pairs with the grid it has read and checked
    ("geometry", "efficient_set"),  # keeps the EfficientSet on a Pcm
}


class _DictReads(ast.NodeVisitor):
    """(enclosing function, line) of each ``<x>.__dict__`` whose x is not ``self``."""

    def __init__(self):
        self.function, self.found = "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Attribute(self, node):
        if node.attr == "__dict__" and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            self.found.append((self.function, node.lineno))
        self.generic_visit(node)


def _foreign_dict_reads(module: str, source: str) -> list[tuple[str, int]]:
    visitor = _DictReads()
    visitor.visit(ast.parse(source))
    return [(function, line) for function, line in visitor.found if (module, function) not in ALLOWED]


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_records_dict(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _foreign_dict_reads(module, source) == []


def test_the_guard_sees_every_foreign_read():
    source = (
        "def f(w):\n    return w.__dict__.get('x')\n"
        "def g(self):\n    return self.__dict__\n"
        "KEPT = object.__dict__\n"
        "def efficient_set(pcm):\n    return pcm.__dict__\n"
    )
    assert _foreign_dict_reads("geometry", source) == [("f", 2), ("<module>", 5)]
    assert _foreign_dict_reads("pcm", source) == [("f", 2), ("<module>", 5), ("efficient_set", 7)]
