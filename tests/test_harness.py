import builtins
import hashlib
import json
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from rollmia import (
    Checkpoint,
    ConfigError,
    Dataset,
    DivergenceError,
    PianorollShape,
    SplitSpec,
    StyleParams,
    SyntheticSpec,
    TrainConfig,
    build_gan,
    emit_reports,
    run_experiment,
    save_checkpoint,
    synth_generate,
    write_dataset,
)
from rollmia import harness, pianoroll
from rollmia.cli import main as cli_main
from rollmia.harness import (
    DatasetFile,
    ExperimentConfig,
    TrainRunConfig,
    _write_manifest,
    config_echo,
    config_hash,
    load_experiment_config,
    parse_experiment_config,
    report_from_dir,
    whitebox_row,
    write_lines,
)
from rollmia.montecarlo import EpsilonHeuristic, McConfig, epsilon_from_heuristic

from conftest import nan_gradients_from


def tiny_config_dict(out_dir, count=80, iterations=40, every=20):
    return {
        "schema_version": 1,
        "label": "custom",
        "dataset": {
            "synthetic": {
                "count": count,
                "tracks": 2,
                "bars": 1,
                "steps_per_bar": 8,
                "pitches": 12,
                "seed": 11,
                "style": {"ornament_prob": 0.02},
            }
        },
        "split": {"train_fraction": 0.5, "seed": 22},
        "train": {
            "iterations": iterations,
            "batch_size": 8,
            "latent_dim": 4,
            "lr": 0.001,
            "seed": 33,
            "checkpoint_every": every,
        },
        "attacks": {
            "whitebox": True,
            "mc": [
                {
                    "stash_size": 32,
                    "n_per_query": 16,
                    "heuristic": "median",
                    "metric": "euclidean",
                    "subset_size": 10,
                    "trials": 2,
                    "seed": 44,
                }
            ],
        },
        "output_dir": str(out_dir),
    }


def _packaged_config_dict(name):
    return json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())


def _path_config_dict():
    """The packaged default config reading its dataset from a file, with a
    dataset path and an output_dir that are not in normal form."""
    data = _packaged_config_dict("default.json")
    return {**data, "dataset": {"path": "./data//x.prd"}, "output_dir": "runs/x/"}


def test_parse_config_roundtrip(tmp_path):
    data = tiny_config_dict(tmp_path / "run")
    config = parse_experiment_config(data)
    assert config.label == "custom"
    assert config.dataset.synthetic.count == 80
    assert config.attacks.mc[0].heuristic == EpsilonHeuristic("median")
    # the echo is the normalized form: parsing it again is a fixed point
    echo = config_echo(config)
    assert parse_experiment_config(echo) == config
    assert config_echo(parse_experiment_config(echo)) == echo
    assert echo["train"]["d_steps_per_g_step"] == 1  # defaults made explicit
    assert len(config_hash(config)) == 64
    for data in (_packaged_config_dict("default.json"), _packaged_config_dict("overfitted.json"),
                 _path_config_dict()):
        config = parse_experiment_config(data)
        echo = config_echo(config)
        assert parse_experiment_config(echo) == config
        assert config_echo(parse_experiment_config(echo)) == echo


def test_config_hash_of_a_dataset_path_config_is_pinned():
    config = parse_experiment_config(_path_config_dict())
    assert config_hash(config) == "e28b06905972328df7edd60e39fa6a53aaa7319a5db148b5c8ae432358066541"
    # paths are echoed in normal form, so the hash does not depend on how they were written
    echo = config_echo(config)
    assert (echo["dataset"], echo["output_dir"]) == ({"path": "data/x.prd"}, "runs/x")
    assert "synthetic" not in echo["dataset"]


def test_every_config_field_type_is_one_config_block_reads():
    """Walk each config file's dataclass and every block it nests: each
    field's type must map to a kind ``check_config_block`` checks, or a
    config holding the key would fail with a KeyError, not a ConfigError."""
    seen, todo = set(), [ExperimentConfig, TrainRunConfig]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        for key, hint in get_type_hints(cls).items():
            t, kind = pianoroll.field_kind(hint)
            assert kind in pianoroll._CONFIG_KINDS, f"{cls.__name__}.{key}: {hint}"
            if kind is list:
                t, rest = get_args(t)
                assert rest is Ellipsis and is_dataclass(t), f"{cls.__name__}.{key}: {hint}"
            if kind in (dict, list):
                todo.append(t)
    assert {SyntheticSpec, StyleParams, SplitSpec, TrainConfig, McConfig, DatasetFile} <= seen
    # the walk would see a type the reader does not take
    for hint in (dict[str, int], list[McConfig], set, int | str):
        assert pianoroll.field_kind(hint)[1] not in pianoroll._CONFIG_KINDS


def test_parse_config_schema_errors(tmp_path):
    data = tiny_config_dict(tmp_path)
    del data["schema_version"]
    with pytest.raises(ConfigError, match="schema_version"):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    data["schema_version"] = 7
    with pytest.raises(ConfigError, match="schema_version"):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    del data["train"]["iterations"]
    with pytest.raises(ConfigError):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    data["dataset"] = {}
    with pytest.raises(ConfigError, match="dataset"):
        parse_experiment_config(data)


def test_label_constraints(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["label"] = "default"  # requires fraction 0.5, which it has
    parse_experiment_config(data)
    data["split"]["train_fraction"] = 0.4
    with pytest.raises(ConfigError, match="0.5"):
        parse_experiment_config(data)
    data["label"] = "overfitted"
    data["split"]["train_fraction"] = 0.1
    parse_experiment_config(data)
    data["split"]["train_fraction"] = 0.5
    with pytest.raises(ConfigError, match="0.1"):
        parse_experiment_config(data)


def test_emit_reports_exact_lines(tmp_path):
    paths = emit_reports(
        tmp_path,
        {},
        {
            "wb_metrics.csv": ["1000,0.500,0.500,0.500,0.500,0.500,0.500"],
            "mc_metrics.csv": ["20000,0.501,1.000,median,euclidean,1"],
        },
    )
    wb = (tmp_path / "wb_metrics.csv").read_text().splitlines()
    assert wb[0] == "iterations,success_rate,accuracy,precision,recall,fpr,f1"
    assert wb[1] == "1000,0.500,0.500,0.500,0.500,0.500,0.500"
    mc_lines = (tmp_path / "mc_metrics.csv").read_text().splitlines()
    assert mc_lines[0] == "epochs,single_mi_accuracy,set_mi_accuracy,heuristic,metric,trials"
    assert mc_lines[1] == "20000,0.501,1.000,median,euclidean,1"
    series = (tmp_path / "success_vs_iteration.csv").read_text().splitlines()
    assert series == [
        "iterations,whitebox_success_rate,single_mi_accuracy",
        "1000,0.500,",
        "20000,,0.501",
    ]
    assert {p.name for p in paths} == {
        "wb_metrics.csv",
        "mc_metrics.csv",
        "success_vs_iteration.csv",
        "report.md",
    }


def test_emit_reports_empty_table(tmp_path):
    with pytest.raises(ConfigError, match="no rows"):
        emit_reports(tmp_path, {}, {})
    with pytest.raises(ConfigError, match="no tables"):
        emit_reports(tmp_path, {"label": "custom"}, {"wb_metrics.csv": [], "mc_metrics.csv": []})


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    config = parse_experiment_config(tiny_config_dict(out))
    manifest = run_experiment(config)
    return out, config, manifest


def test_run_experiment_outputs(finished_run):
    out, config, manifest = finished_run
    for name in (
        "dataset.prd",
        "train.prd",
        "test.prd",
        "wb_metrics.csv",
        "mc_metrics.csv",
        "success_vs_iteration.csv",
        "report.md",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    checkpoints = sorted((out / "checkpoints").glob("*.ganc"))
    assert len(checkpoints) == 2
    wb_rows = (out / "wb_metrics.csv").read_text().splitlines()[1:]
    mc_rows = (out / "mc_metrics.csv").read_text().splitlines()[1:]
    series = (out / "success_vs_iteration.csv").read_text().splitlines()[1:]
    assert len(wb_rows) == len(mc_rows) == len(series) == 2
    assert [int(r.split(",")[0]) for r in wb_rows] == [20, 40]


def test_manifest_records_all_seeds(finished_run):
    out, config, manifest = finished_run
    on_disk = json.loads((out / "manifest.json").read_text())
    echo = on_disk["config"]
    assert echo["dataset"]["synthetic"]["seed"] == 11
    assert echo["split"]["seed"] == 22
    assert echo["train"]["seed"] == 33
    assert echo["attacks"]["mc"][0]["seed"] == 44
    assert on_disk["config_hash"] == config_hash(config)
    assert on_disk["format_versions"] == {
        "dataset": 1,
        "checkpoint": 1,
        "config_schema": 1,
    }
    assert all(v == "ok" for v in on_disk["stages"].values())
    assert set(on_disk["stages"]) == {"dataset", "split", "train", "attacks", "reports"}
    assert "python" in on_disk["platform"]


# SHA-256 of the tables of the tiny two-checkpoint run, recorded before
# training moved from per-sample to batched gradients: the batch sums change
# the summation order, and no table may change with it.  The MC entries were
# recorded again when each trial came to draw one set of stash rows for all
# its candidates; its single-MI accuracy at iteration 20 moved from 0.400 to
# 0.450, and the other MC figures stayed (0.000 set-MI at 20, 0.550 and
# 0.500 at 40).
PINNED_TABLE_DIGESTS = {
    "wb_metrics.csv": "a8eeda74c44895fdd36fd028e33936091e84019e5fd0d0281a5edf8e426a98bb",
    "mc_metrics.csv": "12923e42b2cde8a9f92f86fea65b7662d2c159a63cca7d13ee767b97df6f1ae1",
    "success_vs_iteration.csv": "950e1dcef73d841718e98e4c71a7744a2a84af64beea89aa982d4ffc7fca56e4",
}


def test_attack_tables_are_pinned(finished_run):
    out, _, _ = finished_run
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_TABLE_DIGESTS
    }
    assert digests == PINNED_TABLE_DIGESTS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of the tiny run's report.md and of ``rollmia report`` on it,
# recorded before ``emit_reports`` and ``report_from_dir`` came to share one
# table spec.  The config hash in report.md covers the run's temporary output
# path, so report.md is hashed with that hash replaced by "CONFIG_HASH".
# Recorded again with the MC table above (single-MI 0.400 -> 0.450 at 20).
PINNED_REPORT_DIGESTS = {
    "report.md": "3f88c75d08786876b6231566e7f92bb69da2016035e3a5684c922244912b09cc",
    "report --format md": "9cae2d1fcf66901d3a87bf2d2be048239d9dd854c01b0c7ab4ed31283a597202",
    "report --format csv": "0eee07306914744656fde929ff3a1908a7207b15f6d8d88aa93a31cda780d36a",
}


def test_report_bytes_are_pinned(finished_run, capsys):
    out, config, _ = finished_run
    report = (out / "report.md").read_text(encoding="utf-8")
    assert f"- config_hash: {config_hash(config)}\n" in report
    digests = {"report.md": _sha256(report.replace(config_hash(config), "CONFIG_HASH"))}
    for fmt in ("md", "csv"):
        capsys.readouterr()
        assert cli_main(["report", "--in-dir", str(out), "--format", fmt]) == 0
        digests[f"report --format {fmt}"] = _sha256(capsys.readouterr().out)
    assert digests == PINNED_REPORT_DIGESTS


# success_vs_iteration.csv of the tiny run with a second, tonal MC config,
# whose single-MI accuracy differs from the first's at iteration 20 (0.400
# against 0.450; both read 0.550 at 40): the series takes each checkpoint's
# row of the first MC config only.  Recorded again with the tables above;
# the tonal rows were 0.500 / 0.500 at both checkpoints, and read 0.400 /
# 0.000 at 20 and 0.550 / 0.500 at 40.
PINNED_TWO_MC_SERIES_DIGEST = "950e1dcef73d841718e98e4c71a7744a2a84af64beea89aa982d4ffc7fca56e4"


def test_series_follows_the_first_mc_config(tmp_path):
    data = tiny_config_dict(tmp_path / "run")
    data["attacks"]["mc"].append(dict(data["attacks"]["mc"][0], metric="tonal", heuristic="p:0.1"))
    run_experiment(parse_experiment_config(data))
    series = (tmp_path / "run" / "success_vs_iteration.csv").read_text()
    mc_rows = (tmp_path / "run" / "mc_metrics.csv").read_text().splitlines()[1:]
    first = [r.split(",") for r in mc_rows if r.split(",")[4] == "euclidean"]
    second = [r.split(",") for r in mc_rows if r.split(",")[4] == "tonal"]
    assert first[0][1] != second[0][1]
    assert [line.split(",")[2] for line in series.splitlines()[1:]] == [r[1] for r in first]
    assert _sha256(series) == PINNED_TWO_MC_SERIES_DIGEST


def test_mc_stash_draws_are_made_once_per_run(tmp_path, monkeypatch):
    from rollmia import harness

    data = tiny_config_dict(tmp_path / "run", iterations=30, every=10)
    data["attacks"]["mc"].append(
        dict(data["attacks"]["mc"][0], metric="tonal", heuristic="p:0.1", trials=3, seed=45)
    )
    calls = []
    real_plan = harness.plan_mc_trials

    def counting(*args):
        calls.append(args)
        return real_plan(*args)

    monkeypatch.setattr(harness, "plan_mc_trials", counting)
    run_experiment(parse_experiment_config(data))
    mc_rows = (tmp_path / "run" / "mc_metrics.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in mc_rows] == ["10", "10", "20", "20", "30", "30"]
    # one plan, and so one draw of each trial's stash rows, per MC config,
    # not one per checkpoint
    assert [args[2].seed for args in calls] == [44, 45]


def test_percentile_heuristics_that_pick_different_epsilons_hash_apart():
    configs = {}
    for text in ("p:0.5", "p:0.50000001"):
        data = _minimal_config_dict()
        data["attacks"]["mc"][0]["heuristic"] = text
        configs[text] = parse_experiment_config(data)
    distances = np.arange(12800.0)
    assert [epsilon_from_heuristic(distances, c.attacks.mc[0].heuristic) for c in configs.values()] == [6399.0, 6400.0]
    assert [config_echo(c)["attacks"]["mc"][0]["heuristic"] for c in configs.values()] == list(configs)
    assert len({config_hash(c) for c in configs.values()}) == 2


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, None),
        ({"OMP_NUM_THREADS": "2"}, "2"),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "1"),
    ],
)
def test_manifest_records_blas_threads(tmp_path, monkeypatch, env, expected):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict("run", iterations=10, every=10)
    data["attacks"] = {"whitebox": True, "mc": []}
    manifest = run_experiment(parse_experiment_config(data))
    assert manifest["platform"]["blas_threads"] == expected
    # the thread setting is recorded beside the config, not hashed into it
    assert manifest["config_hash"] == "553b0a8c959a34c06a93ee9b10f59287f3f486afb5898ebe8e65c26b2cdb1f1d"


def test_rerun_refuses_without_force(finished_run):
    out, config, _ = finished_run
    with pytest.raises(ConfigError, match="not empty"):
        run_experiment(config)


def test_rerun_with_force_is_byte_identical(finished_run):
    out, config, _ = finished_run
    before = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    run_experiment(config, force=True)
    after = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert before.keys() == after.keys()
    for name in before:
        assert before[name] == after[name], name


def test_interrupted_run_leaves_a_manifest_and_force_replaces_it(tmp_path, monkeypatch):
    out = tmp_path / "run"
    config = parse_experiment_config(tiny_config_dict(out))
    run_experiment(config)
    before = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt  # Ctrl-C; not an Exception, so no stage is marked failed

    monkeypatch.setattr(harness, "train", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, force=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"] == {"dataset": "ok", "split": "ok", "train": "running"}
    assert "failed_stage" not in manifest
    monkeypatch.undo()
    run_experiment(config, force=True)
    after = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert after == before


def test_force_refuses_a_directory_without_manifest(tmp_path):
    out = tmp_path / "not_a_run"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    config = parse_experiment_config(tiny_config_dict(out))
    with pytest.raises(ConfigError, match="manifest"):
        run_experiment(config, force=True)
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me"


def test_force_refuses_a_run_directory_holding_other_files(finished_run):
    out, config, _ = finished_run
    before = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    for extra in (out / "my_notes.txt", out / "checkpoints" / "notes.ganc", out / "mc_metrics.csv.bak"):
        extra.write_text("keep me")
        with pytest.raises(ConfigError) as info:
            run_experiment(config, force=True)
        assert str(info.value) == (
            f"output directory {out} holds {extra.relative_to(out)}, which rollmia does not "
            "write; refusing to overwrite it"
        )
        assert extra.read_text() == "keep me"
        extra.unlink()
    after = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert after == before


def test_force_replaces_a_run_with_its_temp_files(finished_run):
    out, config, _ = finished_run
    for temp in (out / ".report.md.123.tmp", out / "checkpoints" / ".checkpoint_000020.ganc.7.tmp"):
        temp.write_text("partial")
    run_experiment(config, force=True)
    assert not list(out.rglob("*.tmp"))


def test_failed_stage_manifest(tmp_path):
    data = tiny_config_dict(tmp_path / "fail")
    data["dataset"] = {"path": str(tmp_path / "missing.prd")}
    config = parse_experiment_config(data)
    with pytest.raises(FileNotFoundError):
        run_experiment(config)
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "dataset"
    assert manifest["stages"]["dataset"] == "failed"
    assert "error" in manifest


@pytest.mark.parametrize("nan_from, last_good", [(25, 20), (15, None)])
def test_divergence_manifest_names_the_last_good_checkpoint(tmp_path, monkeypatch, nan_from, last_good):
    nan_gradients_from(monkeypatch, nan_from)
    config = parse_experiment_config(tiny_config_dict(tmp_path / "run"))
    with pytest.raises(DivergenceError, match=f"iteration {nan_from}"):
        run_experiment(config)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "train"
    assert manifest["last_good_iteration"] == last_good
    saved = sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir())
    assert saved == ([] if last_good is None else [f"checkpoint_{last_good:06d}.ganc"])


def test_successful_manifest_has_no_divergence_key(finished_run):
    _, _, manifest = finished_run
    assert "last_good_iteration" not in manifest


class HalfWriter:
    """A file whose every write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


SHAPE_2X8 = PianorollShape(2, 1, 8, 12)
WRITERS = {
    "dataset": lambda d, v: write_dataset(synth_generate(v, 5, SHAPE_2X8), d / "data.prd"),
    "checkpoint": lambda d, v: save_checkpoint(Checkpoint(v, build_gan(SHAPE_2X8, 4, v)), d / "c.ganc"),
    "lines": lambda d, v: write_lines(d / "t.csv", ["h", str(v)]),
    "manifest": lambda d, v: _write_manifest(d, {"version": v}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch, writer):
    WRITERS[writer](tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # atomic_open looks ``open`` up in the pianoroll module
    monkeypatch.setattr(
        pianoroll, "open", lambda *a, **kw: HalfWriter(builtins.open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](tmp_path, 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    WRITERS[writer](tmp_path, 2)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after.keys() == before.keys() and after != before


def test_relative_dataset_path_resolves_against_working_directory(tmp_path, monkeypatch):
    shape = PianorollShape(tracks=2, bars=1, steps_per_bar=8, pitches=12)
    write_dataset(synth_generate(11, 40, shape), tmp_path / "data.prd")
    data = tiny_config_dict("run", iterations=20, every=10)
    data["dataset"] = {"path": "data.prd"}
    data["attacks"] = {"whitebox": True, "mc": []}
    monkeypatch.chdir(tmp_path)
    config = parse_experiment_config(data)
    assert config.dataset.path == Path("data.prd")
    manifest = run_experiment(config)
    assert manifest["config"]["dataset"] == {"path": "data.prd"}
    assert len((tmp_path / "run" / "wb_metrics.csv").read_text().splitlines()) == 3


def test_report_from_dir(finished_run):
    out, _, _ = finished_run
    md = report_from_dir(out, "md")
    assert "White-box discriminator attack" in md
    assert "| iterations |" in md
    csv_text = report_from_dir(out, "csv")
    assert csv_text.startswith("iterations,success_rate")
    with pytest.raises(ConfigError):
        report_from_dir(out, "html")


def test_config_requires_an_attack(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["attacks"] = {"whitebox": False, "mc": []}
    with pytest.raises(ConfigError, match="attack"):
        parse_experiment_config(data)


def test_paired_default_and_overfitted_runs(tmp_path):
    """Mini mirror of the two-model design: same data pool, a 50 percent
    split versus a 10 percent split trained ten times longer, leaving two
    report directories whose series can be compared."""
    runs = {}
    for label, fraction, iterations, every in (
        ("default", 0.5, 100, 10),
        ("overfitted", 0.1, 1000, 100),
    ):
        data = tiny_config_dict(tmp_path / label, count=200, iterations=iterations, every=every)
        data["label"] = label
        data["split"]["train_fraction"] = fraction
        config = parse_experiment_config(data)
        runs[label] = run_experiment(config)
    for label, expected_iters in (("default", range(10, 101, 10)), ("overfitted", range(100, 1001, 100))):
        out = tmp_path / label
        series = (out / "success_vs_iteration.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in series[1:]] == list(expected_iters)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["label"] == label
    # the overfitted run trains on a tenth of the pool for 10x the rounds
    assert runs["overfitted"]["config"]["split"]["train_fraction"] == 0.1
    assert runs["overfitted"]["config"]["train"]["iterations"] == 10 * runs["default"]["config"]["train"]["iterations"]


def test_packaged_configs_parse():
    root = Path(__file__).resolve().parents[1] / "configs"
    # the hash of the config echo names a run in its manifest and report
    hashes = {
        "default.json": "77c0773f14e7fbdef911423004dcba87465b4108c9627549146bbc15024f6633",
        "overfitted.json": "6f61ee777c6fc813b3da979529535040fbc0a6f39d482501c1fad19a97c7aded",
    }
    for name, expected_hash in hashes.items():
        data = json.loads((root / name).read_text())
        config = parse_experiment_config(data)
        assert config.label in ("default", "overfitted")
        assert config_hash(config) == expected_hash
        # overfitted mirrors the default at a tenth of the data and 10x rounds
        if config.label == "overfitted":
            assert config.split.train_fraction == 0.1
            assert config.train.iterations == 10 * 2000


def test_config_field_types_are_read_once_per_class(monkeypatch):
    hints = []
    real = pianoroll.get_type_hints

    def counting(cls):
        hints.append(cls)
        return real(cls)

    monkeypatch.setattr(pianoroll, "get_type_hints", counting)
    pianoroll._field_table.cache_clear()
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    config = load_experiment_config(path)
    assert load_experiment_config(path) == config
    assert ExperimentConfig in hints and McConfig in hints
    assert len(hints) == len(set(hints))


def test_config_block_reads_each_field_of_its_dataclass():
    block = {"count": 4, "seed": 1, "tracks": 1, "bars": 1, "steps_per_bar": 4, "pitches": 12}
    spec = pianoroll.config_block(SyntheticSpec, {**block, "style": {"transpose": 5}}, "b")
    assert spec == SyntheticSpec(**block, style=StyleParams(transpose=5))
    assert spec.shape == PianorollShape(1, 1, 4, 12)
    mc = {"stash_size": 8, "n_per_query": 4, "subset_size": 1, "trials": 1, "seed": 0}
    assert pianoroll.config_block(McConfig, {**mc, "heuristic": "p:0.5"}, "m").heuristic == (
        EpsilonHeuristic("percentile", 0.5)
    )
    for cls, data, message in (
        (SyntheticSpec, {k: v for k, v in block.items() if k != "pitches"}, "b is missing 'pitches'"),
        (SyntheticSpec, {**block, "style": {"rhythm_period": 0}}, "b.style rhythm_period must be >= 1"),
        (SyntheticSpec, {**block, "style": []}, "b style must be an object, got []"),
        (SyntheticSpec, {**block, "tracks": 0}, "b tracks must be >= 1"),
        (McConfig, {**mc, "heuristic": 0.5}, "m heuristic must be a string, got 0.5"),
        (McConfig, {**mc, "heuristic": "x"}, "m unknown heuristic 'x'"),
        (McConfig, {**mc, "metric": "x"}, "m metric must be one of ('euclidean', 'tonal'), got 'x'"),
    ):
        with pytest.raises(ConfigError) as info:
            pianoroll.config_block(cls, data, message[0])
        assert str(info.value) == message


def _minimal_config_dict():
    """A config without any optional key: no label, style, base_midi_pitch,
    d_steps_per_g_step, heuristic or metric."""
    return {
        "schema_version": 1,
        "dataset": {"synthetic": {"count": 40, "seed": 3, "tracks": 2, "bars": 1, "steps_per_bar": 8,
                                  "pitches": 12}},
        "split": {"train_fraction": 0.5, "seed": 4},
        "train": {"iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001, "seed": 5,
                  "checkpoint_every": 10},
        "attacks": {"mc": [{"stash_size": 32, "n_per_query": 16, "subset_size": 10, "trials": 2, "seed": 6}]},
        "output_dir": "run",
    }


def test_config_hash_of_a_config_without_optional_keys_is_pinned():
    config = parse_experiment_config(_minimal_config_dict())
    assert config_hash(config) == "3edadeed3cfc4f8d19a29fead6da1c80f33a1f119ac32e83b08e761c87c21383"
    echo = config_echo(config)
    assert echo["label"] == "custom" and echo["train"]["d_steps_per_g_step"] == 1
    assert echo["dataset"]["synthetic"]["base_midi_pitch"] == 24
    assert echo["dataset"]["synthetic"]["style"] == {"rhythm_period": 4, "ornament_prob": 0.02, "transpose": 12}
    assert echo["attacks"]["mc"][0]["heuristic"] == "median" and echo["attacks"]["mc"][0]["metric"] == "euclidean"


def test_config_hash_with_an_integer_lr_and_a_tonal_mc_entry_is_pinned():
    data = _minimal_config_dict()
    data["train"]["lr"] = 1
    data["attacks"]["mc"].append({"stash_size": 32, "n_per_query": 16, "heuristic": "p:0.010",
                                  "metric": "tonal", "subset_size": 10, "trials": 2, "seed": 7})
    config = parse_experiment_config(data)
    assert config_hash(config) == "055c0aa0bcf2082b948c18cf9dd75f5af0430a26b5531a1820aa1a36bb00da17"
    echo = config_echo(config)
    assert type(echo["train"]["lr"]) is float
    assert (echo["attacks"]["mc"][1]["heuristic"], echo["attacks"]["mc"][1]["metric"]) == ("p:0.01", "tonal")


@pytest.mark.parametrize("n_members, n_nonmembers", [(1, 1), (1, 5), (5, 1)])
@pytest.mark.parametrize("members_first", [True, False])
def test_whitebox_row_is_never_degenerate(n_members, n_nonmembers, members_first):
    """Top-N labels |members| candidates: tp+fp = tp+fn = |members| >= 1 and
    fp+tn = |nonmembers| >= 1, as no Dataset is empty, so even constant
    scores leave no 0/0 metric."""
    pool = synth_generate(3, n_members + n_nonmembers, SHAPE_2X8)
    ids = pool.ids
    member_ids = ids[:n_members] if members_first else ids[n_nonmembers:]
    is_member = np.isin(ids, member_ids)
    members = Dataset(SHAPE_2X8, pool.rolls[is_member], ids[is_member])
    nonmembers = Dataset(SHAPE_2X8, pool.rolls[~is_member], ids[~is_member])
    line = whitebox_row(lambda set_ids, _rolls: np.zeros(len(set_ids)), 7, members, nonmembers)
    iteration, success_rate, _accuracy, precision, recall, _fpr, f1 = line.split(",")
    assert iteration == "7"
    # top-N labels |members| candidates: tp+fp = tp+fn, so these four agree
    assert precision == recall == f1 == success_rate
    expected = 1.0 if members_first else max(0, n_members - n_nonmembers) / n_members
    assert success_rate == f"{expected:.3f}"


def test_style_values_are_checked_not_coerced(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["dataset"]["synthetic"]["style"] = {"rhythm_period": 3, "ornament_prob": 0, "transpose": -2}
    style = config_echo(parse_experiment_config(data))["dataset"]["synthetic"]["style"]
    assert style == {"rhythm_period": 3, "ornament_prob": 0, "transpose": -2}
    assert type(style["ornament_prob"]) is int
    for key, value in (("rhythm_period", 2.5), ("transpose", 1.5), ("transpose", False),
                       ("ornament_prob", True), ("ornament_prob", None)):
        data["dataset"]["synthetic"]["style"] = {key: value}
        with pytest.raises(ConfigError, match=f"style {key} must be"):
            parse_experiment_config(data)


def test_real_fields_accept_integers_and_echo_floats(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["train"]["lr"] = 1
    echo = config_echo(parse_experiment_config(data))
    assert echo["train"]["lr"] == 1.0 and type(echo["train"]["lr"]) is float
