import ast
import importlib
from pathlib import Path

import rollmia


def test_every_export_resolves_once():
    names = rollmia.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(rollmia, name)]
    assert missing == []


def test_every_rollmia_name_the_benchmark_reaches_resolves():
    """perfbench/workloads.py imports rollmia modules inside its functions
    and calls ``<module>.<name>`` on them; every such name must exist."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rollmia"
        for alias in node.names
    }
    reached = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("whitebox", "run_whitebox"), ("montecarlo", "build_stash")} <= reached
    missing = [
        f"{module}.{name}" for module, name in sorted(reached)
        if not hasattr(importlib.import_module(f"rollmia.{module}"), name)
    ]
    assert missing == []
