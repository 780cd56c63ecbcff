import ast
import importlib
import inspect
from pathlib import Path

import rollmia


def test_every_export_resolves_once():
    names = rollmia.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(rollmia, name)]
    assert missing == []


def _chain(node, modules) -> list[str] | None:
    """The dotted names of ``node`` if it is an attribute chain on one of
    ``modules``, such as ["pianoroll", "StyleParams", "from_dict"]."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return [node.id, *names] if names and isinstance(node, ast.Name) and node.id in modules else None


def test_every_rollmia_name_the_benchmark_reaches_resolves():
    """perfbench/workloads.py imports rollmia modules inside its functions
    and reaches names on them, such as ``pianoroll.StyleParams.from_dict``;
    every such chain must resolve, and every call without ``*`` or ``**``
    arguments, direct or through ``_attempt(ops, name, fn, *args)``, must
    still bind to its callee's signature."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rollmia"
        for alias in node.names
    }

    def resolve(chain):
        obj = importlib.import_module(f"rollmia.{chain[0]}")
        for name in chain[1:]:
            obj = getattr(obj, name)
        return obj

    chains = {
        tuple(chain) for node in ast.walk(tree) if (chain := _chain(node, modules)) is not None
    }
    assert {("whitebox", "run_whitebox"), ("pianoroll", "StyleParams", "from_dict"),
            ("montecarlo", "EpsilonHeuristic", "parse")} <= chains
    missing = []
    for chain in sorted(chains):
        try:
            resolve(chain)
        except AttributeError:
            missing.append(".".join(chain))
    assert missing == []

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "_attempt" and len(args) >= 3:
            func, args = args[2], args[3:]
        chain = _chain(func, modules)
        starred = any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords)
        if chain is not None and not starred:
            keywords = [k.arg for k in node.keywords] if func is node.func else []
            calls.append((node.lineno, chain, len(args), keywords))
    assert any(chain == ["pianoroll", "StyleParams", "from_dict"] for _, chain, _, _ in calls)
    unbound = []
    for lineno, chain, n_args, keywords in calls:
        try:
            inspect.signature(resolve(chain)).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {lineno}: {'.'.join(chain)}: {exc}")
    assert unbound == []
