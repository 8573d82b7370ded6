"""The README's library sketch runs, and each of its statements whose
comment is a Python literal evaluates to that literal."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match is not None, "README has no python block under 'Library sketch'"
    return match.group(1)


def test_library_sketch_runs_and_shows_what_its_comments_state():
    source = _sketch()
    lines = source.splitlines()
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), ast.unparse(node)
        assert eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace) == expected
        checked.append(expected)
    assert checked == [False, "triple"]
    points = eval("[embed(v) for v in es.tetrahedra[0].vertices]", namespace)
    assert len(points) == 4
    assert all(len(p) == 3 and all(isinstance(c, float) for c in p) for p in points)
