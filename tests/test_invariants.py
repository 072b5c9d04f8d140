"""Library checks must survive `python -O`, so none of them may be an assert."""

import ast
from pathlib import Path

import equiarea

SOURCES = sorted(Path(equiarea.__file__).parent.glob("*.py"))


def test_library_code_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 9
    assert found == []
