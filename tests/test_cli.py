import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rollmia
from rollmia import gan, harness
from rollmia.cli import main
from rollmia.pianoroll import read_dataset


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
    assert run(
        ["attack", "wb", "--oracle", "margin=1,tau=0", "--train", train,
         "--test", test, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iterations,success_rate,accuracy,precision,recall,fpr,f1"
    assert lines[1] == "0,1.000,1.000,1.000,1.000,0.000,1.000"


def test_attack_mc_oracle(cli_workspace):
    root, _, train, test = cli_workspace
    out = root / "mc.csv"
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


def test_exit_code_config_error(tmp_path, cli_workspace):
    root, data, train, test = cli_workspace
    code = run(
        ["split", "--in", data, "--fraction", 0.001, "--seed", 1,
         "--train", tmp_path / "a.prd", "--test", tmp_path / "b.prd"]
    )
    assert code == 2  # degenerate split
    code = run(
        ["attack", "wb", "--oracle", "margin=1", "--train", train, "--test", test,
         "--out", tmp_path / "o.csv"]
    )
    assert code == 2  # missing tau


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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["train", "--config", config, "--out-dir", tmp_path / "ck"]) == 4


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
    assert capsys.readouterr().err.splitlines() == ["error: expected non-negative integer"]
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
    assert capsys.readouterr().err.splitlines() == ["error: expected non-negative integer"]
    assert not (tmp_path / "wb.csv").exists()


def test_python_m_rollmia_runs_the_cli():
    src = Path(rollmia.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "rollmia", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: rollmia")


def test_bad_oracle_specs(cli_workspace, tmp_path):
    root, _, train, test = cli_workspace
    for spec in ("margin=x,tau=0", "bogus=1", "margin=1,tau=1,extra=2", "margin=1,margin=0,tau=0"):
        assert run(
            ["attack", "wb", "--oracle", spec, "--train", train, "--test", test,
             "--out", tmp_path / "o.csv"]
        ) == 2


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


def _default_config_error(tmp_path, capsys, key_path, value) -> list[str]:
    """Run ``experiment run`` on the packaged default config with the value at
    ``key_path`` set; check that it exits 2 before any output exists and
    return its stderr lines."""
    data = json.loads((Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
    data["output_dir"] = str(tmp_path / "run")
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
    ],
)
def test_mistyped_config_value_exits_2_before_any_output(tmp_path, capsys, key_path, value, message):
    assert _default_config_error(tmp_path, capsys, key_path, value) == [f"error: {message}"]


def test_train_verb_rejects_unknown_and_mistyped_train_keys(cli_workspace, tmp_path, capsys):
    _, _, train, _ = cli_workspace
    block = {"iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001, "seed": 1,
             "checkpoint_every": 10}
    for key, edit, message in (
        ("train", {"d_steps_per_g_stp": 5}, "unknown train key 'd_steps_per_g_stp'"),
        ("train", {"iterations": 20.0}, "train iterations must be an integer, got 20.0"),
        ("train", {"seed": -2}, "train seed must be a non-negative integer, got -2"),
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
    # a trunk 64 wide, with a descriptor and tensors that agree with it
    monkeypatch.setattr(gan, "TRUNK_WIDTH", 64)
    path = tmp_path / "narrow.ganc"
    gan.save_checkpoint(gan.Checkpoint(10, gan.build_gan(read_dataset(train).shape, 4, 0)), path)
    monkeypatch.undo()
    capsys.readouterr()
    assert run(["attack", "wb", "--checkpoint", path, "--train", train, "--test", test,
                "--out", tmp_path / "wb.csv"]) == 3
    assert capsys.readouterr().err.startswith("error: architecture mismatch")
    assert not (tmp_path / "wb.csv").exists()


def test_report_on_an_empty_table_exits_3(tmp_path, capsys):
    (tmp_path / "wb_metrics.csv").write_text("")
    capsys.readouterr()
    assert run(["report", "--in-dir", tmp_path]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: empty table {tmp_path / 'wb_metrics.csv'}"]
