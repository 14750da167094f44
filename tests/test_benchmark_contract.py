"""Every package name the benchmark and the digest tool use still exists.

``benchmark/run.py --trace 1`` wraps each ``module.function`` named in its
``TRACE_TARGETS``; a name that no longer resolves makes every traced round
raise.  ``benchmark/workloads.py`` and ``tools/output_digests.py`` import
names from ``mssvar`` and read others as attributes of imported modules;
one that is gone breaks the benchmark or the digest comparison.  All of
them are read with ``ast``, because importing ``run.py`` sets BLAS
environment variables for the whole process, and because a name the
package lost must fail here, not only when those scripts run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "benchmark" / "run.py"
USERS = (ROOT / "benchmark" / "workloads.py", ROOT / "tools" / "output_digests.py")
PACKAGE = ROOT / "src" / "mssvar"


def _trace_targets() -> tuple[str, ...]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no TRACE_TARGETS")


def _package_names() -> list[str]:
    """``module:name`` for every ``mssvar`` name that a file of ``USERS``
    imports or reads as an attribute of an imported ``mssvar`` module, and
    ``module`` alone for each module it imports."""
    found = set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the mssvar module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mssvar":
                for alias in node.names:
                    if node.module == "mssvar" and (PACKAGE / f"{alias.name}.py").exists():
                        modules[alias.asname or alias.name] = f"mssvar.{alias.name}"
                        found.add(f"mssvar.{alias.name}")
                    else:
                        found.add(f"{node.module}:{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    found.add(f"{modules[node.value.id]}:{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("target", _trace_targets())
def test_trace_target_resolves_to_a_callable(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"mssvar.{module}"), name, None)), target


def test_benchmark_and_digest_tool_reach_package_names():
    # the scan itself must see what the two files are known to use
    names = _package_names()
    for used in ("mssvar.engine:run_chain", "mssvar.analytics:summarize",
                 "mssvar.store:load_store", "mssvar.simulate:DgpTruth"):
        assert used in names


@pytest.mark.parametrize("target", _package_names())
def test_package_name_used_by_benchmark_or_digest_tool_resolves(target):
    module, _, name = target.partition(":")
    imported = importlib.import_module(module)
    assert not name or hasattr(imported, name), target
