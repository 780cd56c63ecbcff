"""The benchmark's workloads run against this package with no failed op.

``perfbench/workloads.py`` calls rollmia's public functions and reads its
results by name; a renamed or deleted name shows up there as a failed op.
Each workload runs one set-up, one job and its check, as a benchmark cycle
does.
"""

import importlib.util
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
