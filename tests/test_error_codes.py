"""``InputError`` writes every error's text: a raise site passes only the
message, and ``str(exc)`` starts with the class's ``code``."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import effpcm
from effpcm import errors
from effpcm.trees import SpanningTree

PACKAGE = Path(effpcm.__file__).resolve().parent

INPUT_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.InputError)),
    key=lambda cls: cls.__name__,
)


def _leading_text(node: ast.expr) -> str | None:
    """The literal text a string or f-string argument starts with."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _raises_repeating_their_code(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)):
            continue
        cls = getattr(errors, node.exc.func.id, None)
        if not (isinstance(cls, type) and issubclass(cls, errors.InputError)):
            continue
        for arg in node.exc.args:
            text = _leading_text(arg)
            if text is not None and text.startswith(cls.code):
                found.append(f"line {node.lineno}: {cls.__name__}({text!r}...)")
    return found


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_raise_site_writes_its_code(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _raises_repeating_their_code(tree) == []


def _instance(cls: type) -> errors.InputError:
    if issubclass(cls, errors.EntryError):
        return cls(1, 2, "message")
    if issubclass(cls, errors.ImpossibleCombinationError):
        return cls(1, 0)
    return cls("message")


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda cls: cls.__name__)
def test_text_starts_with_the_code(cls):
    assert str(_instance(cls)).startswith(cls.code)


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda cls: cls.__name__)
def test_copies_keep_text_and_fields(cls):
    exc = _instance(cls)
    for twin in (copy.copy(exc), pickle.loads(pickle.dumps(exc))):
        assert (type(twin), str(twin), vars(twin)) == (cls, str(exc), vars(exc))


def test_position_and_counts_sit_between_code_and_colon():
    assert str(errors.NonPositiveEntryError(1, 2, "a[1,2]=0")) == "NonPositiveEntry (1,2): a[1,2]=0"
    assert str(errors.ReciprocityViolationError(3, 3)) == "ReciprocityViolation (3,3)"
    assert str(errors.ImpossibleCombinationError(2, 1)).startswith("ImpossibleCombination (2,1): ")
    assert str(errors.BadNumeralError("'x' is not a numeral")) == "BadNumeral: 'x' is not a numeral"


def test_spanning_tree_error_is_coded_and_a_value_error():
    with pytest.raises(errors.NotASpanningTreeError) as raised:
        SpanningTree(3, frozenset({(1, 2)}))
    assert isinstance(raised.value, ValueError)
    assert str(raised.value) == "NotASpanningTree: not a spanning tree of 1..3: [(1, 2)]"
