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


def test_no_test_reference_is_exported():
    """tests/reference.py holds the plain forms the package is checked
    against; none of them may come back into the library's exports."""
    source = Path(__file__).with_name("reference.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert {"mc_score", "confusion_from_predictions", "flatten"} <= defined
    assert sorted(defined & set(rollmia.__all__)) == []


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


def test_every_probe_the_benchmark_installs_names_a_rollmia_function():
    """perfbench/worker.py probes rollmia functions by "module.function"
    name (``ATTACK_CALLS``, ``STAGE_PROBES`` and the keys of ``HOOKS``), and
    each hook reads the probed call's arguments as ``_arg(args, kwargs, i,
    name)``; every name must resolve, and ``name`` must be the function's
    parameter ``i``, or the benchmark only shows the fault as failed ops."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assigned = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def resolve(probe):
        module, _, name = probe.partition(".")
        return getattr(importlib.import_module(f"rollmia.{module}"), name, None)

    probes = {
        node.value
        for name in ("ATTACK_CALLS", "STAGE_PROBES") for node in ast.walk(assigned[name])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    hooks = {key.value: value.id for key, value in zip(assigned["HOOKS"].keys, assigned["HOOKS"].values)}
    assert {"gan.train", "nn.forward"} <= probes | set(hooks)
    assert sorted(p for p in probes | set(hooks) if not inspect.isfunction(resolve(p))) == []

    wrong = []
    for probe, hook in hooks.items():
        params = list(inspect.signature(resolve(probe)).parameters)
        reads = [
            [arg.value for arg in call.args[2:]]
            for call in ast.walk(functions[hook])
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_arg"
        ]
        assert reads, f"hook {hook} reads no argument of {probe}"
        wrong += [f"{probe} parameter {i} is not {name!r}" for i, name in reads if params[i:i + 1] != [name]]
    assert wrong == []


def test_no_rollmia_module_imports_another_ones_private_name():
    """A name with a leading underscore (a dunder such as ``__version__``
    aside) belongs to its own module: no rollmia module imports one from
    another, so what several modules share is public where it is defined,
    as the seeded streams are in ``rollmia.streams``."""
    package = Path(rollmia.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("rollmia")):
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_only_the_config_module_reads_dataclass_field_types():
    """``typing.get_type_hints`` and ``dataclasses.is_dataclass`` turn a
    dataclass into a config reader; only ``rollmia.config`` calls them, so
    what a config key is and how it is read stays in that one module."""
    package = Path(rollmia.__file__).parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if names & {"get_type_hints", "is_dataclass"}:
                readers.add(path.stem)
    assert readers == {"config"}
