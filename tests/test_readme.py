"""README's library quick start runs as written and shows what it gets."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under README's "Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_as_written():
    """Each statement runs in turn, and each bare expression evaluates to
    the value its comment shows before any colon."""
    src = quick_start()
    lines = src.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(src).body:
        code = ast.get_source_segment(src, stmt)
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.lineno - 1].split("#", 1)[1]
            shown.append((str(eval(code, namespace)),
                          comment.split(":", 1)[0].strip()))
        else:
            exec(code, namespace)
    assert shown == [("x1^-1 + x1^-1*x2",) * 2, ("True",) * 2]
