"""The README's library quick start and command-line samples run as
written and state true values."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from qcrystal import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def command_lines() -> list[str]:
    """Every `qcrystal ...` line of the README's shell blocks."""
    return [
        line.strip()
        for block in fenced_blocks("sh")
        for line in block.splitlines()
        if line.startswith("qcrystal ")
    ]


def run(argv, capsys) -> str:
    assert cli.main(argv) == 0, argv
    return capsys.readouterr().out


def json_sample(first_key: str) -> str:
    """The README's JSON sample whose first key is `first_key`."""
    (sample,) = [b for b in fenced_blocks("json") if b.startswith(f'{{\n  "n": 3,\n  "{first_key}"')]
    return sample


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


def test_command_samples_cover_every_subcommand():
    assert {line.split()[1] for line in command_lines()} == {"decompose", "bseries", "verify"}


@pytest.mark.parametrize("line", command_lines())
def test_command_sample_exits_0(line, capsys):
    run(shlex.split(line)[1:], capsys)


def test_bseries_json_sample_is_the_output(capsys):
    argv = ["bseries", "--n", "3", "--order", "5", "--method", "both", "--format", "json"]
    assert run(argv, capsys) == json_sample("order")


def test_decompose_json_sample_rows_are_in_the_output(capsys):
    argv = ["decompose", "--n", "3", "--max-k", "7", "--format", "json"]
    entries = json.loads(run(argv, capsys))["entries"]
    shown = [json.loads(line.strip().rstrip(",")) for line in json_sample("max_k").splitlines() if '"i"' in line]
    assert shown and all(row in entries for row in shown)
