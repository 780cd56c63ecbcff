"""The benchmark's workloads run against this package with no failed op,
and its counter hooks read the arguments they name.

``perfbench/workloads.py`` calls rollmia's public functions and reads its
results by name; a renamed or deleted name shows up there as a failed op.
Each workload runs one set-up, one job and its check, as a benchmark cycle
does.  ``perfbench/worker.py`` counts work from the arguments of hooked
calls, each read by position or keyword; a moved parameter would be
counted wrong without failing, so the positions are checked here.  The
checkpoint-audit job drives ``rollmia attack`` by argument lists, which
must still parse to the values of its experiment config.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest


def load_workloads():
    """``perfbench/workloads.py``'s WORKLOADS, imported by path under the
    module name ``perfbench_workloads``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_cycle_has_no_failed_op(name, tmp_path):
    workload = WORKLOADS[name]
    setup_dir, job_dir = tmp_path / "setup", tmp_path / "job"
    setup_dir.mkdir()
    job_dir.mkdir()
    state = workload.setup(workload.make_inputs(1), setup_dir, 0)
    result = workload.run_job(state, job_dir, 0)
    check_ops, counts = workload.check(state, result, {})
    ops = result["ops"] + check_ops
    assert ops
    assert [op for op in ops if not op[1]] == []
    if name == "checkpoint-audit":
        assert counts["cli.mc_rows_matching_experiment"] == counts["checkpoints"] == 5


def hook_arguments() -> dict[str, list[tuple[int, str]]]:
    """Each ``HOOKS`` entry of ``perfbench/worker.py``, as the hooked
    function's "module.name" mapped to the (position, name) of every
    ``_arg(args, kwargs, position, name)`` call in its hook, read from the
    source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets)
    )
    return {
        key.value: [
            (call.args[2].value, call.args[3].value)
            for call in ast.walk(functions[hook.id])
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_arg"
        ]
        for key, hook in zip(hooks.keys, hooks.values)
    }


HOOK_ARGUMENTS = hook_arguments()


@pytest.mark.parametrize("hooked", sorted(HOOK_ARGUMENTS))
def test_benchmark_hook_reads_the_parameter_it_names(hooked):
    module, _, name = hooked.rpartition(".")
    function = getattr(importlib.import_module(f"rollmia.{module}"), name)
    parameters = list(inspect.signature(function).parameters)
    assert HOOK_ARGUMENTS[hooked]
    for position, parameter in HOOK_ARGUMENTS[hooked]:
        assert parameters[position] == parameter


def test_checkpoint_audit_argv_parses_to_its_mc_config(tmp_path, monkeypatch):
    from rollmia import cli

    module = sys.modules["perfbench_workloads"]
    argvs = []
    monkeypatch.setattr(module, "_cli", argvs.append)
    mc = WORKLOADS["checkpoint-audit"].make_inputs(1)["config"]["attacks"]["mc"][0]
    state = {
        "config": {"attacks": {"mc": [mc]}},
        "train": tmp_path / "train.prd",
        "test": tmp_path / "test.prd",
        "checkpoints": [tmp_path / "ckpt_000002.ganc"],
    }
    result = module.audit_job(state, tmp_path, 0)
    assert [op for op in result["ops"] if not op[1]] == []
    parsed = {argv[1]: cli.build_parser().parse_args(argv) for argv in argvs}
    assert sorted(parsed) == ["mc", "wb"]
    for args in parsed.values():
        assert args.checkpoint == str(state["checkpoints"][0])
        assert (args.train, args.test) == (str(state["train"]), str(state["test"]))
    args = parsed["mc"]
    assert (args.verb, parsed["wb"].verb) == ("cmd_attack_mc", "cmd_attack_wb")
    assert (args.stash, args.n, args.subset, args.trials, args.seed) == (
        mc["stash_size"], mc["n_per_query"], mc["subset_size"], mc["trials"], mc["seed"]
    )
    assert (args.heuristic, args.metric) == (mc["heuristic"], mc["metric"])
