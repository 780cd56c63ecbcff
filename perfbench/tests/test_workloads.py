"""Workload inputs depend on the seed alone, and the spec matches the code."""

import json
from pathlib import Path

import pytest

import worker
from workloads import WORKLOADS, desk_setup

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = WORKLOADS[name].make_inputs
    assert json.dumps(make(7)) == json.dumps(make(7))
    assert json.dumps(make(7)) != json.dumps(make(8))


def test_same_seed_gives_same_dataset_bytes(tmp_path):
    inputs = WORKLOADS["desk-train"].make_inputs(7)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = desk_setup(inputs, tmp_path / "a", 0)["reference"]
    assert first == desk_setup(inputs, tmp_path / "b", 1)["reference"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == worker.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == worker.PER_LAYER
