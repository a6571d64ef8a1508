"""The benchmark tracer wraps library functions by name, so each name it
lists must stay defined; the tracer itself is read as source, not run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _wrapped() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAPPED")


def test_every_traced_name_is_defined():
    pairs = _wrapped()
    assert pairs
    missing = [
        (module, name)
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"loopforge.{module}"), name, None))
    ]
    assert missing == []
