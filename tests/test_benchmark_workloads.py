"""The benchmark's workloads run against this package with no failed op,
and its counter hooks read the arguments they name.

``perfbench/workloads.py`` calls rollmia's public functions and reads its
results by name; a renamed or deleted name shows up there as a failed op.
Each workload runs one set-up, one job and its check, as a benchmark cycle
does.  ``perfbench/worker.py`` counts work from the arguments of hooked
calls, each read by position or keyword; a moved parameter would be
counted wrong without failing, so the positions are checked here.  The
workloads' MC plans keep to their sides of the rule that batches stash
draws, so the benchmark goes on measuring both paths.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
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


def workload_mc_configs(name: str) -> list:
    """The McConfigs a workload's jobs plan, read from its inputs at seed 1:
    an experiment config's ``attacks.mc``, or the oracle attacks."""
    from rollmia import harness, montecarlo

    inputs = WORKLOADS[name].make_inputs(1)
    if "config" in inputs:
        return list(harness.parse_experiment_config(inputs["config"]).attacks.mc)
    return [
        montecarlo.McConfig(**inputs["mc"], trials=attack["trials"], seed=attack["seed"])
        for attack in inputs["attacks"]
    ]


@pytest.mark.parametrize(
    "name, batched", [("checkpoint-audit", True), ("desk-train", True), ("oracle-audit", False)]
)
def test_workload_mc_plans_keep_their_side_of_the_batching_rule(name, batched, monkeypatch):
    from rollmia import montecarlo
    from rollmia.pianoroll import Dataset, PianorollShape

    rows = {"_floyd_rows": 0, "_choice_rows": 0}

    def counting(real):
        def count(stash_size, states, out):
            rows[real.__name__] += len(out)
            real(stash_size, states, out)

        return count

    for drawing in rows:
        monkeypatch.setattr(montecarlo, drawing, counting(getattr(montecarlo, drawing)))
    shape = PianorollShape(1, 1, 1, 12)
    candidates = 0
    for config in workload_mc_configs(name):
        m = config.subset_size
        train, test = (
            Dataset(shape, np.zeros((m, *shape.dims()), dtype=np.uint8), np.arange(first, first + m))
            for first in (0, m)
        )
        montecarlo.plan_mc_trials(train, test, config)
        candidates += config.trials * 2 * m
    if batched:
        # a row with a rejected half is drawn again by _choice_rows
        assert rows["_floyd_rows"] == candidates
    else:
        assert rows == {"_floyd_rows": 0, "_choice_rows": candidates}
