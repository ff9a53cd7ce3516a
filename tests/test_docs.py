"""The demos and the README's quick start do what they say."""

import ast
import io
import runpy
import tokenize
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_expected_output(demo, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()


def test_there_are_four_demos():
    assert [path.stem for path in DEMOS] == [
        "01_sixteen_orbits",
        "02_young_diagrams",
        "03_module_quiver_dictionary",
        "04_splitting_direct_sums",
    ]


def readme_python_block() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def test_readme_quick_start_values_hold():
    # each expression statement carries its value in a trailing comment,
    # either alone or followed by ": an explanation"
    source = readme_python_block()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        shown = repr(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
        comment = comments[statement.end_lineno]
        assert comment == shown or comment.startswith(shown + ":"), (comment, shown)
        checked.append(shown)
    assert checked == ["{'-1': 1, '0': 1, '1': 1}", "True", "True", "16", "False", "2", "0"]
