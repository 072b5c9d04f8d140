"""Library checks must survive `python -O`, so none of them may be an assert.
Names the benchmark tracer rebinds must stay module attributes."""

import ast
import importlib
import runpy
from pathlib import Path

import equiarea

SOURCES = sorted(Path(equiarea.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_library_code_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 9
    assert found == []


def test_every_traced_name_is_a_module_attribute():
    # A traced benchmark run rebinds each (module, attr) of bench/tracer.py's TRACED.
    traced = runpy.run_path(str(TRACER))["TRACED"]
    missing = [
        f"equiarea.{module}.{attr}"
        for module, attr, _, _ in traced
        if not callable(getattr(importlib.import_module(f"equiarea.{module}"), attr, None))
    ]
    assert len(traced) >= 26
    assert missing == []
