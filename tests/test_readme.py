"""The README's library quick start runs as written and states true values."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def literal_comments(source: str) -> dict[int, object]:
    """Line number -> value of that line's trailing comment, for comments
    that parse as a Python literal."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                found[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return found


def test_quick_start_values_match_comments():
    source = quick_start_block()
    expected = literal_comments(source)
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
        if stmt.end_lineno not in expected:
            continue
        if isinstance(stmt, ast.Expr):
            node = stmt.value
        else:
            assert isinstance(stmt, ast.Assign), ast.unparse(stmt)
            node = stmt.targets[0]
        got = eval(compile(ast.Expression(node), "README", "eval"), namespace)
        assert got == expected[stmt.end_lineno], ast.unparse(stmt)
        checked += 1
    assert checked == len(expected) > 0
