import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import rollmia
from rollmia import cli, gan, harness
from rollmia.cli import main
from rollmia.config import config_block, flags_block
from rollmia.harness import SyntheticSpec
from rollmia.montecarlo import McConfig
from rollmia.pianoroll import Dataset, PianorollShape, SplitSpec, read_dataset, write_dataset


# the decoder's message for a file that starts with the byte 0xff
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
# JSON nested past Python's recursion limit, which json.loads refuses with
# RecursionError rather than ValueError
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Generated dataset plus a train/test split, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.prd"
    assert run(
        ["dataset", "gen", "--out", data, "--count", 60, "--tracks", 2, "--bars", 1,
         "--steps", 8, "--pitches", 12, "--seed", 5]
    ) == 0
    train, test = root / "train.prd", root / "test.prd"
    assert run(
        ["split", "--in", data, "--fraction", 0.5, "--seed", 9,
         "--train", train, "--test", test]
    ) == 0
    return root, data, train, test


def test_dataset_gen_and_split(cli_workspace):
    root, data, train, test = cli_workspace
    ds = read_dataset(data)
    assert len(ds) == 60
    assert len(read_dataset(train)) == 30
    assert not set(read_dataset(train).ids) & set(read_dataset(test).ids)


def test_attack_wb_oracle(cli_workspace, capsys):
    root, _, train, test = cli_workspace
    out = root / "wb.csv"
    capsys.readouterr()
    assert run(
        ["attack", "wb", "--oracle", "margin=1,tau=0", "--train", train,
         "--test", test, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iterations,success_rate,accuracy,precision,recall,fpr,f1"
    assert lines[1] == "0,1.000,1.000,1.000,1.000,0.000,1.000"
    assert capsys.readouterr().out == f"white-box success rate 1.000 -> {out}\n"


def test_attack_mc_oracle(cli_workspace, capsys):
    root, _, train, test = cli_workspace
    out = root / "mc.csv"
    capsys.readouterr()
    assert run(
        ["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", test,
         "--heuristic", "p:0.0001", "--metric", "euclidean", "--stash", 200,
         "--n", 100, "--subset", 10, "--trials", 5, "--seed", 3, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epochs,single_mi_accuracy,set_mi_accuracy,heuristic,metric,trials"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) >= 0.9
    assert fields[2] == "1.000"
    assert fields[3] == "p:0.0001"
    assert fields[4] == "euclidean"
    # 0.940 when each candidate drew its own 100 stash rows; each trial now
    # draws one set of rows for all its candidates
    assert capsys.readouterr().out == f"mc single 1.000 / set 1.000 -> {out}\n"


def test_train_and_checkpoint_attacks(cli_workspace):
    root, _, train, test = cli_workspace
    config = root / "train.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "dataset": {"path": str(train)},
                "train": {
                    "iterations": 20,
                    "batch_size": 8,
                    "latent_dim": 4,
                    "lr": 0.001,
                    "seed": 1,
                    "checkpoint_every": 10,
                },
            }
        )
    )
    ckpt_dir = root / "ckpts"
    assert run(["train", "--config", config, "--out-dir", ckpt_dir]) == 0
    checkpoints = sorted(ckpt_dir.glob("*.ganc"))
    assert [c.name for c in checkpoints] == [
        "checkpoint_000010.ganc",
        "checkpoint_000020.ganc",
    ]
    wb_out = root / "wb_ckpt.csv"
    assert run(
        ["attack", "wb", "--checkpoint", checkpoints[-1], "--train", train,
         "--test", test, "--out", wb_out]
    ) == 0
    assert wb_out.read_text().splitlines()[1].startswith("20,")
    mc_out = root / "mc_ckpt.csv"
    assert run(
        ["attack", "mc", "--checkpoint", checkpoints[-1], "--train", train,
         "--test", test, "--stash", 32, "--n", 16, "--subset", 10,
         "--trials", 2, "--seed", 8, "--out", mc_out]
    ) == 0
    assert mc_out.read_text().splitlines()[1].startswith("20,")


@pytest.mark.parametrize("kind", ["wb", "mc"])
def test_attack_needs_exactly_one_model(cli_workspace, tmp_path, kind):
    root, _, train, test = cli_workspace
    mc_args = ["--stash", 32, "--n", 16, "--subset", 10, "--trials", 2, "--seed", 8]
    common = ["--train", train, "--test", test, "--out", tmp_path / "o.csv"]
    common += mc_args if kind == "mc" else []
    oracle = "margin=1,tau=0" if kind == "wb" else "p=1,sigma=0"
    for model in ([], ["--checkpoint", root / "any.ganc", "--oracle", oracle]):
        with pytest.raises(SystemExit) as exc:
            run(["attack", kind, *model, *common])
        assert exc.value.code == 2
    assert not (tmp_path / "o.csv").exists()


def test_cli_rows_equal_experiment_rows(tmp_path):
    """``attack wb`` and ``attack mc`` on each checkpoint of a run give the
    very rows the run reported for that checkpoint."""
    out_dir = tmp_path / "run"
    mc_configs = [
        {"stash_size": 32, "n_per_query": 16, "heuristic": "median", "metric": "euclidean",
         "subset_size": 10, "trials": 3, "seed": 44},
        {"stash_size": 32, "n_per_query": 16, "heuristic": "p:0.1", "metric": "tonal",
         "subset_size": 10, "trials": 3, "seed": 45},
    ]
    config = {
        "schema_version": 1,
        "label": "custom",
        "dataset": {
            "synthetic": {
                "count": 60, "tracks": 2, "bars": 1, "steps_per_bar": 8,
                "pitches": 12, "seed": 2,
            }
        },
        "split": {"train_fraction": 0.5, "seed": 3},
        "train": {
            "iterations": 30, "batch_size": 8, "latent_dim": 4, "lr": 0.01,
            "seed": 4, "checkpoint_every": 10,
        },
        "attacks": {"whitebox": True, "mc": mc_configs},
        "output_dir": str(out_dir),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["experiment", "run", "--config", path]) == 0
    wb_rows = (out_dir / "wb_metrics.csv").read_text().splitlines()[1:]
    mc_rows = (out_dir / "mc_metrics.csv").read_text().splitlines()[1:]
    data = ["--train", out_dir / "train.prd", "--test", out_dir / "test.prd"]
    checkpoints = sorted((out_dir / "checkpoints").glob("*.ganc"))
    assert len(checkpoints) == 3
    for ckpt, wb_row in zip(checkpoints, wb_rows):
        wb_out = tmp_path / f"wb_{ckpt.stem}.csv"
        assert run(["attack", "wb", "--checkpoint", ckpt, *data, "--out", wb_out]) == 0
        assert wb_out.read_text().splitlines()[1] == wb_row
    for ckpt in checkpoints:
        for mc in mc_configs:
            mc_out = tmp_path / f"mc_{ckpt.stem}_{mc['metric']}.csv"
            assert run(
                ["attack", "mc", "--checkpoint", ckpt, *data,
                 "--heuristic", mc["heuristic"], "--metric", mc["metric"],
                 "--stash", mc["stash_size"], "--n", mc["n_per_query"],
                 "--subset", mc["subset_size"], "--trials", mc["trials"],
                 "--seed", mc["seed"], "--out", mc_out]
            ) == 0
            cli_row = mc_out.read_text().splitlines()[1]
            iteration, metric = cli_row.split(",")[0], cli_row.split(",")[4]
            expected = [
                r for r in mc_rows
                if r.split(",")[0] == iteration and r.split(",")[4] == metric
            ]
            assert [cli_row] == expected


def test_experiment_run_and_report(tmp_path):
    out_dir = tmp_path / "run"
    config = {
        "schema_version": 1,
        "label": "custom",
        "dataset": {
            "synthetic": {
                "count": 40, "tracks": 1, "bars": 1, "steps_per_bar": 8,
                "pitches": 12, "seed": 2,
            }
        },
        "split": {"train_fraction": 0.5, "seed": 3},
        "train": {
            "iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001,
            "seed": 4, "checkpoint_every": 10,
        },
        "attacks": {"whitebox": True, "mc": []},
        "output_dir": str(out_dir),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["experiment", "run", "--config", path]) == 0
    assert (out_dir / "manifest.json").exists()
    # refuses to clobber without --force
    assert run(["experiment", "run", "--config", path]) == 2
    assert run(["experiment", "run", "--config", path, "--force"]) == 0
    assert run(["report", "--in-dir", out_dir, "--format", "md"]) == 0


# the dests of each verb's flags that are files or a model, not config keys
NOT_KEYS = {"command", "dataset_command", "attack_command", "verb", "out", "input", "train", "test", "oracle",
            "checkpoint"}
MC_FLAGS = ["attack", "mc", "--oracle", "p=1,sigma=0", "--train", "a.prd", "--test", "b.prd", "--out", "o.csv",
            "--stash", "20", "--n", "5", "--subset", "2", "--trials", "3", "--seed", "4"]
MC_KEYS = {"stash_size": 20, "n_per_query": 5, "subset_size": 2, "trials": 3, "seed": 4}
GEN_FLAGS = ["dataset", "gen", "--out", "d.prd", "--count", "10", "--seed", "1", "--steps", "8"]
GEN_KEYS = {"count": 10, "seed": 1, "tracks": 2, "bars": 1, "steps_per_bar": 8, "pitches": 24}


@pytest.mark.parametrize(
    "argv, cls, block, keys",
    [
        (GEN_FLAGS, SyntheticSpec, "dataset gen", GEN_KEYS),
        ([*GEN_FLAGS, "--base-pitch", "30", "--tracks", "3"], SyntheticSpec, "dataset gen",
         {**GEN_KEYS, "base_midi_pitch": 30, "tracks": 3}),
        (["split", "--in", "d.prd", "--fraction", "0.25", "--seed", "3", "--train", "a.prd", "--test", "b.prd"],
         SplitSpec, "split", {"train_fraction": 0.25, "seed": 3}),
        (MC_FLAGS, McConfig, "attack mc", MC_KEYS),
        ([*MC_FLAGS, "--heuristic", "p:0.1", "--metric", "tonal"], McConfig, "attack mc",
         {**MC_KEYS, "heuristic": "p:0.1", "metric": "tonal"}),
    ],
    ids=["gen", "gen-every-flag", "split", "mc", "mc-every-flag"],
)
def test_flags_give_the_block_their_keys_give(argv, cls, block, keys):
    """A verb's parsed flags build the block that a config file holding the
    same keys builds; a flag left out without a default of its own leaves
    its key out.  Every dest the verb reads is a field of its class, so no
    flag is dropped for a dest that names no key."""
    args = cli.build_parser().parse_args(argv)
    assert flags_block(cls, args, block) == config_block(cls, keys, block)
    assert set(vars(args)) - NOT_KEYS == set(keys)
    assert set(keys) <= {f.name for f in fields(cls)}


def test_exit_code_format_error(tmp_path):
    bad = tmp_path / "bad.prd"
    bad.write_bytes(b"XXXX" + b"\x00" * 40)
    code = run(
        ["split", "--in", bad, "--fraction", 0.5, "--seed", 1,
         "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "make_sidecar",
    [
        lambda count: [1, 2],
        lambda count: {"ids": 7},
        lambda count: {"ids": [0] * count},
        lambda count: {"ids": [i + 0.5 for i in range(count)]},
    ],
    ids=["json-list", "ids-not-a-list", "duplicate-ids", "non-integer-ids"],
)
def test_exit_code_bad_sidecar(tmp_path, cli_workspace, make_sidecar):
    root, data, train, test = cli_workspace
    bad = tmp_path / "bad.prd"
    bad.write_bytes(data.read_bytes())
    sidecar = make_sidecar(len(read_dataset(data)))
    (tmp_path / "bad.prd.meta.json").write_text(json.dumps(sidecar))
    code = run(
        ["split", "--in", bad, "--fraction", 0.5, "--seed", 1,
         "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]
    )
    assert code == 3


def test_sidecar_nested_too_deep_exits_3_naming_the_dataset(tmp_path, cli_workspace, capsys):
    _, data, _, _ = cli_workspace
    path = tmp_path / "bad.prd"
    path.write_bytes(data.read_bytes())
    (tmp_path / "bad.prd.meta.json").write_text(TOO_DEEP)
    capsys.readouterr()
    assert run(["split", "--in", path, "--fraction", 0.5, "--seed", 1,
                "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: bad sidecar json for {path}: maximum recursion depth exceeded")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.prd", "bad.prd.meta.json"]


def test_sidecar_that_is_not_utf8_exits_3_naming_the_dataset(tmp_path, cli_workspace, capsys):
    _, data, _, _ = cli_workspace
    path = tmp_path / "bad.prd"
    path.write_bytes(data.read_bytes())
    (tmp_path / "bad.prd.meta.json").write_bytes(b"\xff")
    capsys.readouterr()
    assert run(["split", "--in", path, "--fraction", 0.5, "--seed", 1,
                "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: bad sidecar json for {path}: {NOT_UTF8}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.prd", "bad.prd.meta.json"]


def test_exit_code_config_error(tmp_path, cli_workspace, capsys):
    root, data, train, test = cli_workspace
    code = run(
        ["split", "--in", data, "--fraction", 0.001, "--seed", 1,
         "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]
    )
    assert code == 2  # a split that leaves a side empty
    code = run(
        ["attack", "wb", "--oracle", "margin=1", "--train", train, "--test", test,
         "--out", tmp_path / "o.csv"]
    )
    assert code == 2  # missing tau
    # an output_dir that is, or is below, an existing file
    taken = tmp_path / "taken"
    taken.write_text("kept")
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    for out_dir in (taken, taken / "run"):
        config["output_dir"] = str(out_dir)
        (tmp_path / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert run(["experiment", "run", "--config", tmp_path / "config.json"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output directory {out_dir}: {taken} is an existing file, not a directory"
        ]
    assert taken.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_mc_subset_larger_than_a_split_side_exits_2_before_training(tmp_path, capsys):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["dataset"]["synthetic"]["count"] = 100
    data["train"].update(iterations=40, checkpoint_every=20)
    data["attacks"]["mc"][0]["subset_size"] = 20
    data["attacks"]["mc"].append(dict(data["attacks"]["mc"][0], subset_size=80))
    out = tmp_path / "run"
    data["output_dir"] = str(out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: attacks.mc[1] subset_size 80 needs at least that many records on each side; "
        "got 50 train and 50 test records"
    ]
    assert not (out / "checkpoints").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "split"
    assert manifest["stages"] == {"dataset": "ok", "split": "failed"}


def test_exit_code_divergence(cli_workspace, tmp_path):
    root, _, train, _ = cli_workspace
    config = tmp_path / "t.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "dataset": {"path": str(train)},
                "train": {
                    "iterations": 30, "batch_size": 8, "latent_dim": 4,
                    "lr": 1e280, "seed": 1, "checkpoint_every": 10,
                },
            }
        )
    )
    assert run(["train", "--config", config, "--out-dir", tmp_path / "ck"]) == 4


@pytest.mark.parametrize("lr, iteration", [(1e15, 2), (1e280, 1)])
def test_divergence_prints_its_error_line_and_no_numpy_warning(tmp_path, lr, iteration):
    # in a fresh interpreter, where numpy's RuntimeWarnings would print to stderr
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["train"].update(lr=lr, iterations=200, checkpoint_every=50)
    data["output_dir"] = str(tmp_path / "run")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    src = Path(rollmia.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "rollmia", "experiment", "run", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (
        4, f"error: divergence: non-finite gradient at iteration {iteration}\n"
    )


# sizes no machine can allocate, so the refusals take no real memory
UNALLOCATABLE = 10**15


def test_attack_mc_trials_too_many_to_allocate_exits_2(cli_workspace, tmp_path, capsys):
    _, _, train, test = cli_workspace
    capsys.readouterr()
    assert run(["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", test,
                "--stash", 20, "--n", 5, "--subset", 2, "--trials", UNALLOCATABLE, "--seed", 1,
                "--out", tmp_path / "mc.csv"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: Unable to allocate ")
    assert not (tmp_path / "mc.csv").exists()


def test_dataset_count_too_large_to_allocate_exits_2(tmp_path, capsys):
    capsys.readouterr()
    assert run(["dataset", "gen", "--out", tmp_path / "data.prd", "--count", UNALLOCATABLE,
                "--tracks", 2, "--bars", 1, "--steps", 8, "--pitches", 12, "--seed", 5]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: Unable to allocate ")
    assert list(tmp_path.iterdir()) == []


def test_experiment_mc_trials_too_many_to_allocate_exits_2_in_the_split_stage(tmp_path, capsys):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["dataset"]["synthetic"]["count"] = 100
    data["attacks"]["mc"][0].update(subset_size=20, trials=UNALLOCATABLE)
    out = tmp_path / "run"
    data["output_dir"] = str(out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: Unable to allocate ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "split"
    assert manifest["stages"] == {"dataset": "ok", "split": "failed"}


def test_exit_code_scorer_failure(cli_workspace, tmp_path, monkeypatch, capsys):
    root, _, train, test = cli_workspace
    config = tmp_path / "t.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "dataset": {"path": str(train)},
                "train": {
                    "iterations": 10, "batch_size": 8, "latent_dim": 4,
                    "lr": 0.001, "seed": 1, "checkpoint_every": 10,
                },
            }
        )
    )
    assert run(["train", "--config", config, "--out-dir", tmp_path / "ck"]) == 0

    def failing_d_score(gan, rolls):
        raise FloatingPointError("overflow in d_score")

    # the checkpoint scorer makes one blocked gan.d_score call per set,
    # through the name harness imported
    monkeypatch.setattr(harness, "d_score", failing_d_score)
    out = tmp_path / "wb.csv"
    code = run(
        ["attack", "wb", "--checkpoint", tmp_path / "ck" / "checkpoint_000010.ganc",
         "--train", train, "--test", test, "--out", out]
    )
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: scorer failed on members: overflow in d_score"]
    assert not out.exists()


def test_negative_seeds_exit_2(cli_workspace, tmp_path, capsys):
    root, _, train, test = cli_workspace
    capsys.readouterr()
    assert run(["dataset", "gen", "--out", tmp_path / "d.prd", "--count", 3, "--seed", -1]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: dataset gen seed must be a non-negative integer, got -1"
    ]
    assert not (tmp_path / "d.prd").exists()
    code = run(
        ["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", test,
         "--stash", 20, "--n", 5, "--subset", 2, "--trials", 1, "--seed", -1,
         "--out", tmp_path / "mc.csv"]
    )
    assert code == 2
    # the flags are checked as an MC config block, whose seed is not negative
    assert capsys.readouterr().err.splitlines() == [
        "error: attack mc seed must be a non-negative integer, got -1"
    ]
    assert not (tmp_path / "mc.csv").exists()
    code = run(
        ["attack", "wb", "--oracle", "margin=1,tau=0.1", "--train", train, "--test", test,
         "--seed", -1, "--out", tmp_path / "wb.csv"]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: attack wb seed must be a non-negative integer, got -1"
    ]
    assert not (tmp_path / "wb.csv").exists()


def test_python_m_rollmia_runs_the_cli(cli_workspace, tmp_path, capsys):
    _, _, train, test = cli_workspace
    assert run(["attack", "wb", "--oracle", "margin=2,tau=0.1", "--train", train, "--test", test,
                "--out", tmp_path / "wb_metrics.csv"]) == 0
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path]) == 0
    report = capsys.readouterr().out
    empty = tmp_path / "empty"
    empty.mkdir()
    src = Path(rollmia.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    for argv, code, stdout, stderr in (
        (["--help"], 0, cli.build_parser().format_help(), ""),
        (["report", "--in-dir", tmp_path], 0, report, ""),
        (["report", "--in-dir", empty], 2, "", f"error: no report tables found in {empty}\n"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "rollmia", *map(str, argv)], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


def test_bad_oracle_specs(cli_workspace, tmp_path, capsys):
    root, _, train, test = cli_workspace
    for spec in ("margin=x,tau=0", "bogus=1", "margin=1,tau=1,extra=2", "margin=1,margin=0,tau=0", "margin1"):
        assert run(
            ["attack", "wb", "--oracle", spec, "--train", train, "--test", test,
             "--out", tmp_path / "o.csv"]
        ) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: bad oracle spec 'margin1'"


def test_config_that_is_not_json_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    capsys.readouterr()
    for verb in (["experiment", "run"], ["train", "--out-dir", tmp_path / "ck"]):
        assert run([*verb, "--config", config]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {config} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff{}")
    capsys.readouterr()
    for verb in (["experiment", "run"], ["train", "--out-dir", tmp_path / "ck"]):
        assert run([*verb, "--config", config]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: config {config} is not valid JSON: {NOT_UTF8}"]
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_config_nested_too_deep_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(TOO_DEEP)
    capsys.readouterr()
    for verb in (["experiment", "run"], ["train", "--out-dir", tmp_path / "ck"]):
        assert run([*verb, "--config", config]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: config {config} is not valid JSON: maximum recursion depth exceeded")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("top", [[1, 2], "config", 3.5], ids=["list", "string", "number"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, top):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(top))
    capsys.readouterr()
    for verb in (["experiment", "run"], ["train", "--out-dir", tmp_path / "ck"]):
        assert run([*verb, "--config", config]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: config {config} is not a JSON object"]
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key, value", [("rhythm_period", 2.5), ("transpose", 1.5)])
def test_style_value_that_is_not_an_integer_exits_2_before_any_output(tmp_path, capsys, key, value):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["dataset"]["synthetic"]["style"][key] = value
    data["output_dir"] = str(tmp_path / "run")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: dataset.synthetic.style {key} must be an integer, got {value!r}"
    ]
    assert not (tmp_path / "run").exists()


def _default_config_error(tmp_path, capsys, key_path, value, *more) -> list[str]:
    """Run ``experiment run`` on the packaged default config with the value at
    ``key_path`` set, and each further (key_path, value) pair of ``more``;
    check that it exits 2 before any output exists and return its stderr
    lines."""
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["output_dir"] = str(tmp_path / "run")
    for key_path, value in ((key_path, value), *more):
        block = data
        for key in key_path[:-1]:
            block = block[key]
        block[key_path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    assert not (tmp_path / "run").exists()
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("key", ["schema_version", "dataset", "split", "train", "output_dir"])
def test_config_without_a_required_key_exits_2_before_any_output(tmp_path, capsys, key):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["output_dir"] = str(tmp_path / "run")
    del data[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config is missing {key!r}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_config_with_both_dataset_sources_exits_2_before_any_output(tmp_path, capsys):
    lines = _default_config_error(tmp_path, capsys, ("dataset", "path"), str(tmp_path / "data.prd"))
    assert lines == ["error: config needs exactly one of synthetic params or a dataset path"]


@pytest.mark.parametrize(
    "key_path, message",
    [
        (("attaks",), "unknown config key 'attaks'"),
        (("dataset", "pth"), "unknown dataset key 'pth'"),
        (("dataset", "synthetic", "cout"), "unknown dataset.synthetic key 'cout'"),
        (("split", "sed"), "unknown split key 'sed'"),
        (("train", "d_steps_per_g_stp"), "unknown train key 'd_steps_per_g_stp'"),
        (("attacks", "whitebx"), "unknown attacks key 'whitebx'"),
        (("attacks", "mc", 0, "n_per_qurey"), "unknown attacks.mc[0] key 'n_per_qurey'"),
    ],
)
def test_unknown_config_key_exits_2_before_any_output(tmp_path, capsys, key_path, message):
    assert _default_config_error(tmp_path, capsys, key_path, 5) == [f"error: {message}"]


@pytest.mark.parametrize(
    "key_path, value, message",
    [
        (("schema_version",), True, "config schema_version must be an integer, got True"),
        (("schema_version",), 1.0, "config schema_version must be an integer, got 1.0"),
        (("dataset", "synthetic", "count"), 2000.0, "dataset.synthetic count must be an integer, got 2000.0"),
        (("split", "seed"), 1.5, "split seed must be an integer, got 1.5"),
        (("split", "train_fraction"), True, "split train_fraction must be a real number, got True"),
        (("train", "seed"), True, "train seed must be an integer, got True"),
        (("train", "batch_size"), "32", "train batch_size must be an integer, got '32'"),
        (("train", "lr"), False, "train lr must be a real number, got False"),
        (("attacks", "whitebox"), 1, "attacks whitebox must be true or false, got 1"),
        (("attacks", "mc", 0, "trials"), 2.5, "attacks.mc[0] trials must be an integer, got 2.5"),
        # negative seeds, which SeedSequence would reject only mid-run
        (("dataset", "synthetic", "seed"), -3, "dataset.synthetic seed must be a non-negative integer, got -3"),
        (("split", "seed"), -1, "split seed must be a non-negative integer, got -1"),
        (("train", "seed"), -2, "train seed must be a non-negative integer, got -2"),
        (("attacks", "mc", 0, "seed"), -4, "attacks.mc[0] seed must be a non-negative integer, got -4"),
        # json reads NaN and Infinity, which would otherwise fail only mid-run
        (("train", "lr"), float("nan"), "train lr must be a finite real number, got nan"),
        (("train", "lr"), float("inf"), "train lr must be a finite real number, got inf"),
        (("split", "train_fraction"), float("nan"), "split train_fraction must be a finite real number, got nan"),
        (("dataset", "synthetic", "style", "ornament_prob"), -float("inf"),
         "dataset.synthetic.style ornament_prob must be a finite real number, got -inf"),
        # values of the right type that the run could not use
        (("label",), "mine", "config label must be one of ('default', 'overfitted', 'custom'), got 'mine'"),
        (("dataset", "synthetic", "count"), 1,
         "split train_fraction 0.5 leaves a side of dataset.synthetic count 1 empty"),
        (("attacks", "mc", 0, "metric"), "cosine",
         "attacks.mc[0] metric must be one of ('euclidean', 'tonal'), got 'cosine'"),
        (("train", "iterations"), 0, "train iterations must be >= 1"),
        (("train", "lr"), 0, "train lr must be positive"),
        (("train", "checkpoint_every"), 7, "train checkpoint_every must divide iterations"),
        (("split", "train_fraction"), 1.5, "split train_fraction must be in (0, 1)"),
        (("dataset", "synthetic", "tracks"), 0, "dataset.synthetic tracks must be >= 1"),
        (("dataset", "synthetic", "pitches"), 8,
         "dataset.synthetic pitches must be >= 12 to hold every pitch class, got 8"),
        (("dataset", "synthetic", "style", "rhythm_period"), 0,
         "dataset.synthetic.style rhythm_period must be >= 1"),
        (("attacks", "mc", 0, "n_per_query"), 999, "attacks.mc[0] n_per_query cannot exceed stash_size"),
        (("attacks", "mc", 0, "heuristic"), "p:2", "attacks.mc[0] percentile heuristic needs q in (0, 1)"),
        # integers past int64, which numpy would refuse only as array sizes
        # after earlier stages ran; one key per block
        (("schema_version",), 2**63,
         "config schema_version must be an integer in the int64 range, got 9223372036854775808"),
        (("dataset", "synthetic", "count"), 10**20,
         "dataset.synthetic count must be an integer in the int64 range, got 100000000000000000000"),
        (("dataset", "synthetic", "style", "transpose"), -(2**63) - 1,
         "dataset.synthetic.style transpose must be an integer in the int64 range, got -9223372036854775809"),
        (("train", "latent_dim"), 10**20,
         "train latent_dim must be an integer in the int64 range, got 100000000000000000000"),
        (("attacks", "mc", 0, "stash_size"), 10**20,
         "attacks.mc[0] stash_size must be an integer in the int64 range, got 100000000000000000000"),
        # more values of the right type that the run could not use
        (("dataset", "synthetic", "style", "ornament_prob"), 1.5,
         "dataset.synthetic.style ornament_prob must be in [0, 1]"),
        (("attacks", "mc", 0), 5, "attacks.mc[0] must be an object, got 5"),
    ],
)
def test_mistyped_config_value_exits_2_before_any_output(tmp_path, capsys, key_path, value, message):
    assert _default_config_error(tmp_path, capsys, key_path, value) == [f"error: {message}"]


def test_synthetic_set_that_split_leaves_a_side_empty_exits_2_before_any_output(tmp_path, capsys):
    # floor(0.3 * 3) = 0 train records, the rule ``split`` itself applies
    lines = _default_config_error(
        tmp_path, capsys, ("dataset", "synthetic", "count"), 3, (("split", "train_fraction"), 0.3),
        (("label",), "custom"),
    )
    assert lines == ["error: split train_fraction 0.3 leaves a side of dataset.synthetic count 3 empty"]


def test_batch_larger_than_the_train_side_exits_2_before_training(tmp_path, capsys):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["dataset"]["synthetic"]["count"] = 50
    data["attacks"]["mc"][0]["subset_size"] = 10
    out = tmp_path / "run"
    data["output_dir"] = str(out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: train batch_size 32 exceeds the 25 training records"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == "split"
    assert manifest["stages"] == {"dataset": "ok", "split": "failed"}
    assert sorted(p.name for p in out.iterdir()) == ["dataset.prd", "dataset.prd.meta.json", "manifest.json"]


def test_split_of_one_roll_exits_2_before_any_output(tmp_path, capsys):
    data = tmp_path / "one.prd"
    assert run(["dataset", "gen", "--out", data, "--count", 1, "--tracks", 1, "--bars", 1, "--steps", 4,
                "--pitches", 12, "--seed", 3]) == 0
    capsys.readouterr()
    assert run(["split", "--in", data, "--fraction", 0.5, "--seed", 1,
                "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]) == 2
    message = "split train_fraction 0.5 leaves a side of the 1 records empty"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.prd", "one.prd.meta.json"]


def test_split_stage_names_a_dataset_file_it_leaves_a_side_of_empty(tmp_path, capsys):
    data = tmp_path / "ten.prd"
    assert run(["dataset", "gen", "--out", data, "--count", 10, "--tracks", 1, "--bars", 1, "--steps", 4,
                "--pitches", 12, "--seed", 3]) == 0
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    out = tmp_path / "run"
    config.update(dataset={"path": str(data)}, split={"train_fraction": 0.05, "seed": 1}, label="custom",
                  output_dir=str(out))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["experiment", "run", "--config", path]) == 2
    message = "split train_fraction 0.05 leaves a side of the 10 records empty"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"] == {"dataset": "ok", "split": "failed"}
    assert (manifest["failed_stage"], manifest["error"]) == ("split", message)


def test_attack_mc_flag_out_of_range_exits_2(cli_workspace, tmp_path, capsys):
    _, _, train, test = cli_workspace
    for flag, value, message in (
        ("--trials", 0, "attack mc trials must be >= 1"),
        ("--heuristic", "p:2", "attack mc percentile heuristic needs q in (0, 1)"),
        ("--heuristic", "p:abc", "attack mc bad percentile in 'p:abc'"),
        ("--metric", "cosine", "attack mc metric must be one of ('euclidean', 'tonal'), got 'cosine'"),
    ):
        flags = {"--stash": 20, "--n": 5, "--subset": 2, "--trials": 1, "--seed": 1, flag: value}
        capsys.readouterr()
        assert run(["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", test,
                    *(a for item in flags.items() for a in item), "--out", tmp_path / "mc.csv"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "mc.csv").exists()


def test_train_verb_rejects_unknown_and_mistyped_train_keys(cli_workspace, tmp_path, capsys):
    _, _, train, _ = cli_workspace
    block = {"iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001, "seed": 1,
             "checkpoint_every": 10}
    for key, edit, message in (
        ("train", {"d_steps_per_g_stp": 5}, "unknown train key 'd_steps_per_g_stp'"),
        ("train", {"iterations": 20.0}, "train iterations must be an integer, got 20.0"),
        ("train", {"seed": -2}, "train seed must be a non-negative integer, got -2"),
        ("train", {"iterations": 0}, "train iterations must be >= 1"),
        ("dataset", {"bogus": 1}, "unknown dataset key 'bogus'"),
        ("train", None, "config is missing 'train'"),
        ("dataset", None, "config is missing 'dataset'"),
        # the verb reads only schema_version, dataset and train
        (None, {"split": {"bogus": 1}}, "unknown config key 'split'"),
        (None, {"attacks": {"mc": "nonsense"}}, "unknown config key 'attacks'"),
        (None, {"label": "whatever"}, "unknown config key 'label'"),
        (None, {"output_dir": str(tmp_path / "out")}, "unknown config key 'output_dir'"),
    ):
        data = {"schema_version": 1, "dataset": {"path": str(train)}, "train": dict(block)}
        if key is None:
            data.update(edit)
        elif edit is None:
            del data[key]
        else:
            data[key].update(edit)
        config = tmp_path / "train.json"
        config.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["train", "--config", config, "--out-dir", tmp_path / "ck"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "ck").exists()
    assert not (tmp_path / "out").exists()


def test_attack_on_a_checkpoint_of_another_architecture_exits_3(
    cli_workspace, tmp_path, capsys, monkeypatch
):
    _, _, train, test = cli_workspace
    # a generator 64 wide, with a descriptor and tensors that agree with it
    monkeypatch.setattr(gan, "GEN_WIDTH", 64)
    path = tmp_path / "narrow.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(read_dataset(train).shape, 4, 0)), path)
    monkeypatch.undo()
    capsys.readouterr()
    assert run(["attack", "wb", "--checkpoint", path, "--train", train, "--test", test,
                "--out", tmp_path / "wb.csv"]) == 3
    assert capsys.readouterr().err.startswith("error: architecture mismatch")
    # a checkpoint of the desk shape, whose file agrees with itself
    desk = tmp_path / "desk.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(PianorollShape(2, 1, 16, 24), 4, 0)), desk)
    assert run(["attack", "wb", "--checkpoint", desk, "--train", train, "--test", test,
                "--out", tmp_path / "wb.csv"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: architecture mismatch: checkpoint shape differs from dataset"
    ]
    assert not (tmp_path / "wb.csv").exists()


def test_attack_on_a_checkpoint_with_a_trunk_and_heads_exits_3(cli_workspace, tmp_path, capsys):
    # the layout of a checkpoint whose generator was a 128-wide trunk with
    # one linear head per track: the descriptor names trunk and heads, and
    # the tensors follow them
    _, _, train, test = cli_workspace
    shape = read_dataset(train).shape
    per_track = shape.cells // shape.tracks
    desc = {"latent_dim": 4, "shape": asdict(shape), "trunk": [4, 128],
            "heads": [[128, per_track]] * shape.tracks, "discriminator": [shape.cells, 128, 1]}
    dims = [(128, 4), (128,), *[(per_track, 128), (per_track,)] * shape.tracks,
            (128, shape.cells), (128,), (1, 128), (1,)]
    text = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
    parts = [gan.CHECKPOINT_MAGIC, struct.pack("<IQI", gan.CHECKPOINT_VERSION, 10, len(text)), text,
             struct.pack("<I", len(dims))]
    for d in dims:
        parts += [struct.pack(f"<{1 + len(d)}I", len(d), *d), np.zeros(d, "<f4").tobytes()]
    path = tmp_path / "trunk_and_heads.ganc"
    path.write_bytes(b"".join(parts))
    capsys.readouterr()
    assert run(["attack", "wb", "--checkpoint", path, "--train", train, "--test", test,
                "--out", tmp_path / "wb.csv"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: architecture mismatch: descriptor in {path} is not the model's architecture"
    ]
    assert not (tmp_path / "wb.csv").exists()


def _first_tensor_offset(blob: bytes) -> int:
    """Offset of the first tensor's rank: after the magic, version, iteration,
    descriptor length, descriptor and tensor count."""
    return 20 + int.from_bytes(blob[16:20], "little") + 4


def _set_u32(blob: bytes, at: int, value: int) -> bytes:
    return blob[:at] + value.to_bytes(4, "little") + blob[at + 4:]


def _bump_first_dim(blob: bytes) -> bytes:
    dim = _first_tensor_offset(blob) + 4
    return _set_u32(blob, dim, int.from_bytes(blob[dim:dim + 4], "little") + 1)


@pytest.mark.parametrize("spec", ["p=0.5,sigma=0", "p=1,sigma=0", "p=0,sigma=0.1"])
def test_attack_mc_oracle_refuses_a_range_without_every_pitch_class(tmp_path, capsys, spec):
    shape = PianorollShape(2, 1, 8, 8)
    rolls = np.random.default_rng(3).integers(2, size=(20, *shape.dims()), dtype=np.uint8)
    train, test = tmp_path / "train.prd", tmp_path / "test.prd"
    write_dataset(Dataset(shape, rolls[:10], np.arange(10)), train)
    write_dataset(Dataset(shape, rolls[10:], np.arange(10, 20)), test)
    out = tmp_path / "out" / "mc.csv"
    out.parent.mkdir()
    capsys.readouterr()
    assert run(["attack", "mc", "--oracle", spec, "--train", train, "--test", test, "--stash", 20,
                "--n", 5, "--subset", 2, "--trials", 1, "--seed", 1, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: attack mc --oracle pitches must be >= 12 to hold every pitch class, got 8"
    ]
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob[:20] + b"X" + blob[21:], "bad checkpoint descriptor in {path}: "
         "Expecting value: line 1 column 1 (char 0)"),
        (_bump_first_dim, "architecture mismatch: tensor dims disagree with descriptor"),
        # cut 6 bytes into the first tensor's (rank 2) float32 data
        (lambda blob: blob[:_first_tensor_offset(blob) + 12 + 6], "truncated checkpoint {path}"),
        # cut inside the magic, and inside the version
        (lambda blob: blob[:3], "truncated checkpoint {path}"),
        (lambda blob: blob[:7], "truncated checkpoint {path}"),
        (lambda blob: _set_u32(blob, 16, len(blob)), "truncated checkpoint {path}"),
        (lambda blob: _set_u32(blob, _first_tensor_offset(blob), 10**6), "truncated checkpoint {path}"),
        (lambda blob: blob[:20] + b"\xff" + blob[21:], "bad checkpoint descriptor in {path}: "
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (lambda blob: _set_u32(blob, 16, 0), "bad checkpoint descriptor in {path}: "
         "Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["descriptor-not-json", "tensor-dims", "cut-in-tensor-data", "3-bytes", "7-bytes",
         "descriptor-length-past-end", "first-rank-1e6", "descriptor-byte-0xff", "descriptor-length-0"],
)
def test_attack_on_a_corrupt_checkpoint_exits_3(cli_workspace, tmp_path, capsys, corrupt, message):
    _, _, train, test = cli_workspace
    path = tmp_path / "bad.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(read_dataset(train).shape, 4, 0)), path)
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    assert run(["attack", "wb", "--checkpoint", path, "--train", train, "--test", test,
                "--out", tmp_path / "wb.csv"]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=path)]
    assert not (tmp_path / "wb.csv").exists()


@pytest.mark.parametrize("verb", ["wb", "mc"])
def test_attack_on_a_checkpoint_with_non_finite_weights_exits_3(cli_workspace, tmp_path, capsys, verb):
    _, _, train, test = cli_workspace
    path = tmp_path / "nan.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(read_dataset(train).shape, 4, 0)), path)
    # a quiet NaN in the last tensor, the discriminator's output bias
    path.write_bytes(path.read_bytes()[:-4] + (0x7FC00000).to_bytes(4, "little"))
    flags = [] if verb == "wb" else ["--stash", 20, "--n", 5, "--subset", 2, "--trials", 1, "--seed", 1]
    out = tmp_path / f"{verb}.csv"
    capsys.readouterr()
    assert run(["attack", verb, "--checkpoint", path, "--train", train, "--test", test, *flags,
                "--out", out]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: non-finite weights in checkpoint {path}"]
    assert not out.exists()


def _flag_argv(verb, flag, value, data, train, test, out):
    """argv of ``verb`` with ``flag`` set to ``value`` and the other flags valid."""
    if verb == "split":
        flags = {"--in": data, "--fraction": 0.5, "--seed": 1, "--train": out, "--test": out.with_suffix(".b")}
    elif verb == "dataset gen":
        flags = {"--out": out, "--count": 10, "--seed": 1}
    else:
        flags = {"--oracle": "margin=1,tau=0.1", "--train": train, "--test": test, "--seed": 1, "--out": out}
    flags[flag] = value
    return [*verb.split(), *(a for item in flags.items() for a in item)]


@pytest.mark.parametrize(
    "verb, flag, value, message",
    [
        ("split", "--fraction", 1.5, "split train_fraction must be in (0, 1)"),
        ("split", "--seed", -2, "split seed must be a non-negative integer, got -2"),
        ("split", "--fraction", 0.01, "split train_fraction 0.01 leaves a side of the 60 records empty"),
        ("dataset gen", "--pitches", 8, "dataset gen pitches must be >= 12 to hold every pitch class, got 8"),
        ("dataset gen", "--tracks", 0, "dataset gen tracks must be >= 1"),
        ("dataset gen", "--seed", -1, "dataset gen seed must be a non-negative integer, got -1"),
        ("dataset gen", "--count", 0, "dataset gen count must be >= 1"),
        ("attack wb", "--seed", -1, "attack wb seed must be a non-negative integer, got -1"),
        ("dataset gen", "--count", 2**63,
         "dataset gen count must be an integer in the int64 range, got 9223372036854775808"),
    ],
)
def test_flag_refusal_names_its_verb(cli_workspace, tmp_path, capsys, verb, flag, value, message):
    _, data, train, test = cli_workspace
    out = tmp_path / "out" / "o.prd"
    out.parent.mkdir()
    capsys.readouterr()
    assert run(_flag_argv(verb, flag, value, data, train, test, out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "verb, spec, message",
    [
        ("wb", "margin=nan,tau=0.1", "attack wb --oracle margin must be a finite real number, got nan"),
        ("wb", "margin=1,tau=inf", "attack wb --oracle tau must be a finite real number, got inf"),
        ("wb", "margin=1,tau=0,extra=2", "unknown attack wb --oracle key 'extra'"),
        ("wb", "margin=1", "attack wb --oracle is missing 'tau'"),
        ("mc", "p=nan,sigma=0", "attack mc --oracle p must be a finite real number, got nan"),
        ("mc", "sigma=0", "attack mc --oracle is missing 'p'"),
        # values the oracle could not use
        ("wb", "margin=1,tau=-1", "attack wb --oracle tau must be >= 0, got -1.0"),
        ("mc", "p=2,sigma=0", "attack mc --oracle p must be in [0, 1], got 2.0"),
        ("mc", "p=0.5,sigma=-0.1", "attack mc --oracle sigma must be in [0, 1], got -0.1"),
    ],
)
def test_oracle_spec_is_checked_as_a_block(cli_workspace, tmp_path, capsys, verb, spec, message):
    _, _, train, test = cli_workspace
    flags = [] if verb == "wb" else ["--stash", 20, "--n", 5, "--subset", 2, "--trials", 1, "--seed", 1]
    out = tmp_path / f"{verb}.csv"
    capsys.readouterr()
    assert run(["attack", verb, "--oracle", spec, "--train", train, "--test", test, *flags,
                "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob, sidecar: (blob[:10], sidecar), "truncated dataset header in {path}"),
        (lambda blob, sidecar: (blob[:24] + bytes(4) + blob[28:], sidecar),
         "bad dataset header in {path}: pitches must be >= 1"),
        (lambda blob, sidecar: (blob, "{oops"), "bad sidecar json for {path}: "
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ],
    ids=["cut-in-header", "zero-pitches", "sidecar-not-json"],
)
def test_split_of_a_corrupt_dataset_exits_3(cli_workspace, tmp_path, capsys, corrupt, message):
    _, data, _, _ = cli_workspace
    path = tmp_path / "bad.prd"
    blob, sidecar = corrupt(data.read_bytes(), (data.parent / "data.prd.meta.json").read_text())
    path.write_bytes(blob)
    (tmp_path / "bad.prd.meta.json").write_text(sidecar)
    capsys.readouterr()
    assert run(["split", "--in", path, "--fraction", 0.5, "--seed", 1,
                "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=path)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.prd", "bad.prd.meta.json"]


def test_report_on_a_table_that_is_not_utf8_exits_3_naming_it(tmp_path, capsys):
    table = tmp_path / "mc_metrics.csv"
    table.write_bytes(b"\xff" + harness.MC_HEADER.encode() + b"\n")
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: table {table} is not UTF-8 text: {NOT_UTF8}"]


def test_report_on_an_empty_table_exits_3(tmp_path, capsys):
    (tmp_path / "wb_metrics.csv").write_text("")
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: empty table {tmp_path / 'wb_metrics.csv'}"]


@pytest.mark.parametrize("fmt", ["md", "csv"])
@pytest.mark.parametrize(
    "name, text",
    [
        ("wb_metrics.csv", "a,b\n1,2,3\n"),
        ("wb_metrics.csv", f"{harness.WB_HEADER}\n10,0.500,0.500\n"),
        ("mc_metrics.csv", f"{harness.MC_HEADER}\n10,0.500,1.000,median,euclidean,3,7\n"),
    ],
    ids=["header", "short-row", "long-row"],
)
def test_report_on_a_malformed_table_exits_3(tmp_path, capsys, fmt, name, text):
    (tmp_path / name).write_text(text)
    header = {"wb_metrics.csv": harness.WB_HEADER, "mc_metrics.csv": harness.MC_HEADER}[name]
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path, "--format", fmt]) == 3
    err = f"error: table {tmp_path / name} does not match its header {header!r}\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("output_dir", ["", "."])
def test_force_rerun_in_the_working_directory_replaces_the_run(tmp_path, monkeypatch, capsys, output_dir):
    """A run written into the working directory is replaced entry by entry,
    since the directory itself cannot be removed."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "dataset": {"synthetic": {"count": 40, "tracks": 1, "bars": 1, "steps_per_bar": 8, "pitches": 12,
                                  "seed": 2}},
        "split": {"train_fraction": 0.5, "seed": 3},
        "train": {"iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001, "seed": 4,
                  "checkpoint_every": 10},
        "attacks": {"mc": [{"stash_size": 16, "n_per_query": 8, "subset_size": 5, "trials": 2, "seed": 5}]},
        "output_dir": output_dir,
    }))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)

    def files():
        return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

    assert run(["experiment", "run", "--config", config]) == 0
    first = files()
    assert Path("checkpoints/checkpoint_000020.ganc") in first
    assert run(["experiment", "run", "--config", config]) == 2
    capsys.readouterr()
    assert run(["experiment", "run", "--config", config, "--force"]) == 0
    assert capsys.readouterr().out.startswith("experiment 'custom' complete -> .\n")
    assert files() == first


def test_force_refuses_a_run_directory_holding_the_dataset_it_reads(tmp_path, monkeypatch, capsys):
    """A dataset.path that is, or links to, an entry of the run directory
    would be deleted before the dataset stage reads it."""
    monkeypatch.chdir(tmp_path)
    data = {
        "schema_version": 1,
        "dataset": {"synthetic": {"count": 40, "tracks": 1, "bars": 1, "steps_per_bar": 8, "pitches": 12,
                                  "seed": 2}},
        "split": {"train_fraction": 0.5, "seed": 3},
        "train": {"iterations": 10, "batch_size": 8, "latent_dim": 4, "lr": 0.001, "seed": 4,
                  "checkpoint_every": 10},
        "attacks": {"mc": [{"stash_size": 16, "n_per_query": 8, "subset_size": 5, "trials": 2, "seed": 5}]},
        "output_dir": "run",
    }
    Path("config.json").write_text(json.dumps(data))
    assert run(["experiment", "run", "--config", "config.json"]) == 0
    before = {p: p.read_bytes() for p in Path("run").rglob("*") if p.is_file()}
    Path("link.prd").symlink_to("run/train.prd")
    for source in ("run/dataset.prd", "link.prd"):
        data["dataset"] = {"path": source}
        Path("config.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["experiment", "run", "--config", "config.json", "--force"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output directory run holds dataset.path {source}, which the run reads; "
            "refusing to overwrite it"
        ]
        assert {p: p.read_bytes() for p in Path("run").rglob("*") if p.is_file()} == before


def test_train_verb_refuses_a_batch_larger_than_the_dataset_before_any_output(tmp_path, capsys):
    data = tmp_path / "small.prd"
    assert run(["dataset", "gen", "--out", data, "--count", 10, "--seed", 1]) == 0
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "schema_version": 1, "dataset": {"path": str(data)},
        "train": {"iterations": 20, "batch_size": 32, "latent_dim": 4, "lr": 0.001, "seed": 1,
                  "checkpoint_every": 10},
    }))
    capsys.readouterr()
    assert run(["train", "--config", config, "--out-dir", tmp_path / "ck"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: train batch_size 32 exceeds the 10 training records"]
    assert not (tmp_path / "ck").exists()


def test_base_pitch_outside_the_int32_header_exits_2_before_any_output(tmp_path, capsys):
    message = "base_midi_pitch must be in the int32 range of the dataset header, got 3000000000"
    lines = _default_config_error(tmp_path, capsys, ("dataset", "synthetic", "base_midi_pitch"), 3000000000)
    assert lines == [f"error: dataset.synthetic {message}"]
    gen = ["dataset", "gen", "--count", 4, "--seed", 1, "--out", tmp_path / "d.prd"]
    assert run([*gen, "--base-pitch", 3000000000]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: dataset gen {message}"]
    assert not (tmp_path / "d.prd").exists()
    assert run([*gen, "--base-pitch", -7]) == 0
    assert read_dataset(tmp_path / "d.prd").shape.base_midi_pitch == -7


def test_mc_subset_larger_than_a_side_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    data, train, test = tmp_path / "d.prd", tmp_path / "train.prd", tmp_path / "test.prd"
    assert run(["dataset", "gen", "--out", data, "--count", 400, "--tracks", 1, "--bars", 1,
                "--steps", 8, "--pitches", 12, "--seed", 3]) == 0
    assert run(["split", "--in", data, "--fraction", 0.1, "--seed", 4,
                "--train", train, "--test", test]) == 0
    calls = []
    monkeypatch.setattr(cli, "oracle_generate", lambda *a: calls.append(a))
    capsys.readouterr()
    out = tmp_path / "mc.csv"
    assert run(["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", test,
                "--stash", 20000, "--n", 10, "--subset", 100, "--trials", 1, "--seed", 1,
                "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: attack mc subset_size 100 needs at least that many records on each side; "
        "got 40 train and 360 test records"
    ]
    assert calls == []
    assert not out.exists()


def test_mc_on_sides_that_share_ids_exits_2_before_sampling(cli_workspace, tmp_path, capsys, monkeypatch):
    _, _, train, _ = cli_workspace
    calls = []
    monkeypatch.setattr(cli, "oracle_generate", lambda *a: calls.append(a))
    capsys.readouterr()
    out = tmp_path / "mc.csv"
    assert run(["attack", "mc", "--oracle", "p=1,sigma=0", "--train", train, "--test", train,
                "--stash", 50, "--n", 5, "--subset", 5, "--trials", 1, "--seed", 1,
                "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: attack mc train and test ids must be disjoint"]
    assert calls == []
    assert not out.exists()


def test_wb_on_sides_that_share_ids_exits_2_before_scoring(cli_workspace, tmp_path, capsys, monkeypatch):
    _, _, train, _ = cli_workspace
    calls = []
    monkeypatch.setattr(cli, "oracle_d_score", lambda *a: calls.append(a))
    capsys.readouterr()
    out = tmp_path / "wb.csv"
    assert run(["attack", "wb", "--oracle", "margin=1,tau=0.1", "--train", train, "--test", train,
                "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: attack wb member and nonmember ids must be disjoint"]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, message",
    [
        ("wb", "attack wb member and nonmember datasets must share a shape"),
        ("mc", "attack mc train and test sides must share a shape"),
    ],
)
def test_attack_on_sides_of_two_shapes_exits_2_before_the_model_runs(
    cli_workspace, tmp_path, capsys, monkeypatch, verb, message
):
    _, _, train, _ = cli_workspace
    other = tmp_path / "other.prd"
    assert run(["dataset", "gen", "--out", other, "--count", 20, "--tracks", 2, "--bars", 1,
                "--steps", 16, "--pitches", 12, "--seed", 6]) == 0
    calls = []
    monkeypatch.setattr(cli, "oracle_d_score", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "oracle_generate", lambda *a: calls.append(a))
    flags = {"wb": ["--oracle", "margin=1,tau=0.1"],
             "mc": ["--oracle", "p=1,sigma=0", "--stash", 20, "--n", 5, "--subset", 2, "--trials", 1,
                    "--seed", 1]}[verb]
    capsys.readouterr()
    out = tmp_path / f"{verb}.csv"
    assert run(["attack", verb, *flags, "--train", train, "--test", other, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert calls == []
    assert not out.exists()


def test_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_parser", None)
    assert run(["report", "--in-dir", tmp_path]) == 2
    assert len(built) == 11
    built.clear()
    assert run(["report", "--in-dir", tmp_path]) == 2
    assert built == []


def test_verbs_are_looked_up_when_called(tmp_path, monkeypatch):
    run(["report", "--in-dir", tmp_path])
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.in_dir) or 7)
    assert run(["report", "--in-dir", tmp_path]) == 7
    assert seen == [str(tmp_path)]


def test_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    (tmp_path / "wb_metrics.csv").write_text(f"{harness.WB_HEADER}\n10,0.500,0.500,0.500,0.500,0.500,0.500\n")
    argv = ["report", "--in-dir", tmp_path, "--format", "csv"]
    capsys.readouterr()
    assert run(argv) == 0
    before = capsys.readouterr()
    for bad in (["report", "--format", "xml"],
                ["attack", "wb", "--checkpoint", "c", "--oracle", "margin=1,tau=0"],
                ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: rollmia")
        assert run(argv) == 0
        assert capsys.readouterr() == before


def _one_file_cases():
    split = ["split", "--in", "{data}", "--fraction", 0.5, "--seed", 2]
    attack = ["--train", "{train}", "--test", "{test}"]
    mc = ["--stash", 20, "--n", 10, "--subset", 5, "--trials", 2, "--seed", 3]
    return {
        "split train is test": (
            [*split, "--train", "{new}", "--test", "{new}"], "split --train and --test name the same file {new}"),
        "split train is in": (
            [*split, "--train", "{data}", "--test", "{new}"], "split --in and --train name the same file {data}"),
        "split test is in, by another path": (
            [*split, "--train", "{new}", "--test", "{data_again}"],
            "split --in and --test name the same file {data_again}"),
        "split test is in, through a hard link": (
            [*split, "--train", "{new}", "--test", "{hard}"], "split --in and --test name the same file {hard}"),
        "wb out is train": (
            ["attack", "wb", "--oracle", "margin=1,tau=0.1", *attack, "--out", "{train}"],
            "attack wb --train and --out name the same file {train}"),
        "wb out is checkpoint": (
            ["attack", "wb", "--checkpoint", "{checkpoint}", *attack, "--out", "{checkpoint}"],
            "attack wb --checkpoint and --out name the same file {checkpoint}"),
        "mc out is test": (
            ["attack", "mc", "--oracle", "p=1,sigma=0", *attack, *mc, "--out", "{test}"],
            "attack mc --test and --out name the same file {test}"),
        "mc out is checkpoint, through a link": (
            ["attack", "mc", "--checkpoint", "{checkpoint}", *attack, *mc, "--out", "{link}"],
            "attack mc --checkpoint and --out name the same file {link}"),
    }


@pytest.mark.parametrize("argv, message", _one_file_cases().values(), ids=list(_one_file_cases()))
def test_flags_that_name_one_file_exit_2_before_any_io(cli_workspace, tmp_path, capsys, argv, message):
    _, data, train, test = cli_workspace
    files = {name: tmp_path / path.name for name, path in (("data", data), ("train", train), ("test", test))}
    for name, path in (("data", data), ("train", train), ("test", test)):
        shutil.copy(path, files[name])
    files["checkpoint"] = tmp_path / "model.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(read_dataset(train).shape, 4, 0)), files["checkpoint"])
    (tmp_path / "sub").mkdir()
    files["data_again"] = tmp_path / "sub" / ".." / data.name
    files["link"] = tmp_path / "link.ganc"
    files["link"].symlink_to(files["checkpoint"])
    files["hard"] = tmp_path / "hard.prd"
    os.link(files["data"], files["hard"])
    files["new"] = tmp_path / "new.prd"
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    capsys.readouterr()
    assert run([str(a).format(**files) for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message.format(**files)}"]
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def test_report_refuses_an_unknown_format_as_the_library_does(tmp_path, capsys):
    (tmp_path / "wb_metrics.csv").write_text(f"{harness.WB_HEADER}\n10,0.500,0.500,0.500,0.500,0.500,0.500\n")
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path, "--format", "xml"]) == 2
    assert capsys.readouterr() == ("", "error: format must be csv or md\n")
