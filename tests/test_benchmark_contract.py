"""Every function the benchmark's traced mode patches still exists.

``benchmark/run.py --trace 1`` wraps each ``module.function`` named in its
``TRACE_TARGETS``; a name that no longer resolves makes every traced round
raise.  The tuple is read with ``ast`` because importing ``run.py`` sets
BLAS environment variables for the whole process.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"


def _trace_targets() -> tuple[str, ...]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no TRACE_TARGETS")


@pytest.mark.parametrize("target", _trace_targets())
def test_trace_target_resolves_to_a_callable(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"mssvar.{module}"), name, None)), target
